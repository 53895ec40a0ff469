"""Tiny-size self-check of the benchmark.  From the root of a checkout::

    python3 e2ebench/selfcheck.py

It checks that

1. ``BENCHMARK.json`` declares exactly the workloads and the metrics
   (name for name, unit for unit) that ``run.py`` knows;
2. every workload runs untraced and traced at the tiny size, passes its
   gates and prints exactly the declared metrics with their units, the
   end-to-end ones all non-zero;
3. a copy of the program whose ``repro analyze`` output is altered, and
   one whose phase detection is degraded (every breakpoint moved), fail
   their gates: non-zero exit, and a result line with ``correct`` false.
   The degraded copy computes its own references, so only the committed
   F1 floors (``f1_floors.json``) can catch it;
4. in a directory holding only ``BENCHMARK.json`` and this directory the
   benchmark exits non-zero without printing a result line.

Exits 0 when every check passes; prints one line per check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import CACHE, END_TO_END, PER_LAYER, SAMPLERS  # noqa: E402

WORK = os.path.join(CACHE, "selfcheck")


def _run(args, cwd="."):
    argv = [sys.executable, os.path.join("e2ebench", "run.py"), "--seconds", "1",
            "--size", "tiny", "--seed", "3"] + args
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    check([w["name"] for w in bench["workloads"]] == list(SAMPLERS),
          "BENCHMARK.json workloads match run.py")
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    check(declared_e2e == END_TO_END, "end_to_end metrics and units match run.py")
    check(declared_layer == PER_LAYER, "per_layer metrics and units match run.py")

    for workload in SAMPLERS:
        for trace, declared in ((0, declared_e2e), (1, declared_layer)):
            proc, result = _run(["--workload", workload, "--trace", str(trace)])
            printed = ([(k, v["unit"]) for k, v in result["metrics"].items()]
                       if result else None)
            check(proc.returncode == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: exit 0 and every gate passed"
                  + ("" if proc.returncode == 0 else f"\n{proc.stdout[-1500:]}"
                     f"{proc.stderr[-1500:]}"))
            check(printed is not None and sorted(printed) == sorted(declared),
                  f"{workload} trace={trace}: prints exactly the declared metrics")
            if trace == 0 and result:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{workload}: every end-to-end metric is non-zero")

    # Altered programs, each in a checkout copy of its own:
    # (name, file, original text, altered text, workloads that must fail)
    alterations = [
        ("altered analyze output", "cli.py",
         "    print(render_report(result, hints))\n    worst = result",
         "    print(render_report(result, hints).replace('phase(s)', 'phases'))\n"
         "    worst = result", ["analyze_cgpop"]),
        ("degraded phase detection", os.path.join("phases", "detect.py"),
         "candidate_breaks.extend(float(b) for b in model.breakpoints)",
         "candidate_breaks.extend(min(1.0, float(b) + 0.05) for b in model.breakpoints)",
         ["analyze_cgpop", "watch_multiphase"]),
    ]
    for name, rel, original, altered_text, workloads in alterations:
        copy = os.path.join(WORK, "altered")
        shutil.rmtree(copy, ignore_errors=True)
        for path in ["src"] + bench["paths"]:
            shutil.copytree(path, os.path.join(copy, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", copy)
        target = os.path.join(copy, "src", "repro", rel)
        with open(target, encoding="utf-8") as handle:
            text = handle.read()
        check(text.count(original) == 1, f"{name}: found the code to alter in {rel}")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text.replace(original, altered_text))
        for workload in workloads:
            proc, result = _run(["--workload", workload, "--trace", "0"], cwd=copy)
            check(proc.returncode == 1 and result is not None and not result["correct"]
                  and result["failed"] >= 1,
                  f"{name}: {workload} fails its gate, exits 1, prints a result")
        shutil.rmtree(copy, ignore_errors=True)

    # Only BENCHMARK.json and the benchmark's own files: no program to run.
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([bench["command"][0]] + bench["command"][1:]
                          + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "without the program: non-zero exit and no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
