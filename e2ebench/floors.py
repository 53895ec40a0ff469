"""Record the boundary-F1 floors the correctness gates check against.

Run from the root of a checkout, with the program whose phase detection
the floors should hold every later version to::

    python3 e2ebench/floors.py

For ``analyze_cgpop`` and ``watch_multiphase``, at both sizes, it
generates the inputs of seeds 0-9 (the table) and 10-39 (the survey)
and writes ``f1_floors.json`` next to this file.  The table holds, per
seed, the boundary F1 of each input trace as this program detects it;
a later program must reach it exactly.  A seed outside the table is held
to a fixed floor per workload and size: the lowest F1 of any input of
the table or the survey, less ``MARGIN``.  The floors are data committed
with the benchmark, so a program that detects worse phases fails the
gate even though ``inputs.py`` computes its references with that same
program.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import FLOORS_PATH, PINNED_ENV, Runner, prepare_inputs  # noqa: E402
from workloads import F1_TOLERANCE  # noqa: E402

TABLE_SEEDS = range(10)
SURVEY_SEEDS = range(10, 40)
MARGIN = 0.1
WORKLOADS = ("analyze_cgpop", "watch_multiphase")


def main() -> int:
    os.environ.update(PINNED_ENV)
    work = os.path.abspath(os.path.join(".bench_cache", "work", f"floors-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    runner = Runner(work, time.monotonic() + 24 * 3600)
    doc = {"tolerance": F1_TOLERANCE, "table_seeds": list(TABLE_SEEDS),
           "survey_seeds": [SURVEY_SEEDS[0], SURVEY_SEEDS[-1]], "margin": MARGIN,
           "table": {}, "other_seeds": {}}
    for workload in WORKLOADS:
        for size in ("full", "tiny"):
            table, lowest = {}, 1.0
            for seed in list(TABLE_SEEDS) + list(SURVEY_SEEDS):
                inputs = prepare_inputs(runner, workload, seed, size)
                with open(os.path.join(inputs, "inputs.json"), encoding="utf-8") as fh:
                    f1s = [item["f1"] for item in json.load(fh)["inputs"]]
                if seed in TABLE_SEEDS:
                    table[str(seed)] = f1s
                lowest = min([lowest] + f1s)
                print(f"{workload} {size} seed {seed}: F1 {f1s}", flush=True)
            doc["table"].setdefault(workload, {})[size] = table
            doc["other_seeds"].setdefault(workload, {})[size] = round(
                max(0.0, lowest - MARGIN), 6)
    shutil.rmtree(work, ignore_errors=True)
    with open(FLOORS_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(FLOORS_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
