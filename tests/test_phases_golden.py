"""detect_phases pinned on folded inputs that drive every post-pass.

Natural traces seldom reach the multi-counter passes of
:func:`repro.phases.detect.detect_phases`, so the cases here are built
to fire each one at least once, and the test asserts that it did:

- boundary dedupe (two counters propose the same transition);
- the significance drop (a boundary no search counter changes slope at
  once every counter is refit at the merged boundaries);
- the boundary-blur sliver loop (a smoother fallback breakpoint too
  close to the edge);
- a second abscissa group (a multiplexed counter folded on its own x).

``tests/golden/detect_phases_seed0.json`` holds the boundaries and every
counter model as ``float.hex``.  Monotone cases must match bit for bit;
unconstrained cases match boundaries bit for bit and the model numbers
at rtol 1e-8.  Re-record with ``PYTHONPATH=src python
tests/test_phases_golden.py`` only when a change moves results on
purpose.
"""

import json
import os

import numpy as np
import pytest

import repro.phases.detect as detect_mod
from repro.fitting.pwlr import PWLRConfig
from repro.folding.fold import FoldedCounter

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "detect_phases_seed0.json")
PIVOT = "PAPI_TOT_INS"


def _normalized_pwl(x, knots, slopes):
    """Continuous PWL curve from (0, 0) to (1, 1) with the given knots and
    relative slopes."""
    edges = np.concatenate([[0.0], knots, [1.0]])
    slopes = np.asarray(slopes, dtype=float)
    slopes = slopes / float(np.sum(slopes * np.diff(edges)))
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(edges))])
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, slopes.size - 1)
    return values[idx] + slopes[idx] * (x - edges[idx])


def _folded(name, x, y, n_instances=20):
    return FoldedCounter(
        counter=name,
        x=x,
        y=y,
        instance_ids=np.arange(x.size) % n_instances,
        n_instances=n_instances,
        mean_duration=1e-3,
        mean_total=1e6,
    )


def _interleaved():
    """A convex pivot whose breakpoints the L3 counter's knees interleave
    (so refitting at the union weakens some pivot boundaries below the
    significance floor), plus an FP counter whose knee lands next to a
    pivot breakpoint (dedupe)."""
    rng = np.random.default_rng(0)
    n = 600
    x = np.sort(rng.uniform(0.0, 1.0, n))
    knees = [0.169, 0.257, 0.341, 0.42, 0.50, 0.598, 0.694, 0.79, 0.888]
    return {
        PIVOT: _folded(
            PIVOT, x, np.maximum.accumulate(x**2 + rng.normal(0, 0.002, n))
        ),
        "PAPI_L3_TCM": _folded(
            "PAPI_L3_TCM",
            x,
            _normalized_pwl(x, knees, [1, 3] * 5) + rng.normal(0, 0.002, n),
        ),
        "PAPI_FP_OPS": _folded(
            "PAPI_FP_OPS",
            x,
            _normalized_pwl(x, [0.51], [1, 2]) + rng.normal(0, 0.002, n),
        ),
        "PAPI_TOT_CYC": _folded("PAPI_TOT_CYC", x, x + rng.normal(0, 0.002, n)),
    }


def _multiplexed():
    """A three-phase pivot plus a multiplexed branch counter sampled only
    seven times, all early: its breakpoint search fails (too few points),
    the kernel-smoother fallback proposes a boundary inside the edge
    sliver, and its refit runs on its own abscissa."""
    rng = np.random.default_rng(1)
    n = 500
    x = np.sort(rng.uniform(0.0, 1.0, n))
    early = np.linspace(0.0, 0.04, 7)
    return {
        PIVOT: _folded(
            PIVOT,
            x,
            _normalized_pwl(x, [0.3, 0.7], [1.0, 2.5, 0.8])
            + rng.normal(0, 0.002, n),
        ),
        "PAPI_L1_DCM": _folded(
            "PAPI_L1_DCM",
            x,
            _normalized_pwl(x, [0.3, 0.7], [2.0, 0.5, 1.0])
            + rng.normal(0, 0.002, n),
        ),
        "PAPI_BR_MSP": _folded(
            "PAPI_BR_MSP",
            early,
            np.minimum(early * 3.0, 0.036 + (early - 0.012) * 0.5),
        ),
    }


CASES = {
    "interleaved": (_interleaved, {}),
    "multiplexed": (_multiplexed, {"allow_fallback": True}),
}
MONOTONE = {"monotone": True, "unconstrained": False}


def _run(case, monotone, monkeypatch=None):
    """detect_phases on ``case``; with ``monkeypatch``, also the refit
    rounds (boundaries, set of abscissas) and the search proposals."""
    build, kwargs = CASES[case]
    cfg = PWLRConfig(monotone=MONOTONE[monotone])
    proposals, calls = [], []
    if monkeypatch is not None:
        real_fit = detect_mod.fit_pwlr
        real_many = detect_mod.refit_slopes_many

        def fit(x, y, config=None):
            model = real_fit(x, y, config=config)
            proposals.extend(float(b) for b in model.breakpoints)
            return model

        def many(x, ys, breaks, **kw):
            models = real_many(x, ys, breaks, **kw)
            shared = tuple(float(b) for b in models[0].breakpoints)
            calls.append((shared, x.tobytes()))
            return models

        monkeypatch.setattr(detect_mod, "fit_pwlr", fit)
        monkeypatch.setattr(detect_mod, "refit_slopes_many", many)
    phase_set = detect_mod.detect_phases(build(), config=cfg, **kwargs)
    rounds = []
    for breaks, x in calls:
        if not rounds or rounds[-1][0] != breaks:
            rounds.append((breaks, set()))
        rounds[-1][1].add(x)
    return phase_set, rounds, proposals


def _hex(phase_set):
    return {
        "boundaries": [float(b).hex() for b in phase_set.boundaries],
        "models": {
            name: {
                "breakpoints": [float(b).hex() for b in model.breakpoints],
                "slopes": [float(s).hex() for s in model.slopes],
                "intercept": float(model.intercept).hex(),
                "sse": float(model.sse).hex(),
            }
            for name, model in phase_set.counter_models.items()
        },
    }


def _floats(hexes):
    return np.array([float.fromhex(v) for v in np.atleast_1d(hexes)])


def _spans(breaks):
    return np.diff(np.concatenate([[0.0], breaks, [1.0]]))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize("monotone", sorted(MONOTONE))
class TestPostPassesFire:
    def test_dedupe_and_significance_drop(self, monotone, monkeypatch):
        _, rounds, proposals = _run("interleaved", monotone, monkeypatch)
        first = rounds[0][0]
        assert len(first) < len(proposals), "dedupe merged nothing"
        assert _spans(first).min() >= PWLRConfig().min_phase_span
        # With no sliver in the first round, only the significance pass
        # can start a second one, and it only removes boundaries.
        assert len(rounds) >= 2 and set(rounds[1][0]) < set(first)

    def test_sliver_loop_and_second_abscissa_group(self, monotone, monkeypatch):
        _, rounds, _ = _run("multiplexed", monotone, monkeypatch)
        floor = PWLRConfig().min_phase_span
        assert any(len(xs) == 2 for _, xs in rounds)
        assert any(
            _spans(before).min() < floor and len(after) == len(before) - 1
            for (before, _), (after, _) in zip(rounds, rounds[1:])
        ), "no sliver was dropped"
        assert _spans(rounds[-1][0]).min() >= floor


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("monotone", sorted(MONOTONE))
def test_detect_phases_matches_golden(case, monotone, golden):
    got = _hex(_run(case, monotone)[0])
    want = golden[f"{case}/{monotone}"]
    assert got["boundaries"] == want["boundaries"]
    if MONOTONE[monotone]:
        assert got == want
        return
    assert sorted(got["models"]) == sorted(want["models"])
    for name, model in want["models"].items():
        assert got["models"][name]["breakpoints"] == model["breakpoints"], name
        for key in ("slopes", "intercept", "sse"):
            np.testing.assert_allclose(
                _floats(got["models"][name][key]),
                _floats(model[key]),
                rtol=1e-8,
                atol=1e-12,
                err_msg=f"{name}.{key}",
            )


if __name__ == "__main__":
    cases = {
        f"{case}/{monotone}": _hex(_run(case, monotone)[0])
        for case in sorted(CASES)
        for monotone in sorted(MONOTONE)
    }
    with open(GOLDEN, "w") as handle:
        json.dump({"cases": cases}, handle, indent=1, sort_keys=True)
        handle.write("\n")
