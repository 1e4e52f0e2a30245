"""The verifier's power: planted faults, each run on every golden and shipped
config with a full run (every stage).

A fault is planted by a monkeypatch or by a config knob, never in the
source:

- ``stop_at_1``: every extraction stops at n = 1, as ``_first_stop``
  stops every run at its first difference;
- ``q_scale_0.5`` and ``q_scale_1.5``: the extracted Q is scaled by the
  ``negative_control.q_scale`` knob.  A config without a quadratic scheme
  refuses the knob, so it has no cell for these faults;
- ``delta_half``: the auto delta is halved after it is resolved, as
  ``harness.measure_residual_sup`` returns half the sup.  Only a constant
  control with ``"delta": "auto"`` has a cell;
- ``q_a_swapped``: the two components of a combined theorem are swapped,
  Q for A, as ``harness.extract_components`` hands them out in reverse.
  Only a config with a combined theorem has a cell;
- ``a_scale_0.5`` and ``a_scale_1.5``: the extracted A of every theorem
  that has one is scaled, as ``harness.extract_components`` hands out the
  additive component through the negative control's ``_ScaledComponent``.
  Only a config with an additive scheme has a cell;
- ``q_scale_`` and ``a_scale_`` at 1.001, 0.999, 1.000001 and 0.999999: Q
  or A scaled by 1 +- 1e-3 and 1 +- 1e-6, as the faults above plant them;
- ``q_bump``: ``BUMP`` is added to each coordinate of Q at ``x_index`` 0,
  as ``harness.extract_components`` hands out the quadratic component
  through ``_Bumped``.  Only a config with a quadratic scheme has a cell.

Each cell expects one outcome:

- killed: the run exits nonzero, and the row named in the cell fails;
- missed: the run passes today.  The cell is a strict expected failure
  whose reason names the ROADMAP item meant to kill it, and that item's
  fix removes the marker.  Where the run fails unplanted, the cell names
  the row that the fault hides;
- unchanged: the fault plants nothing, since Q is 0 at every sample point,
  so the run passes correctly.
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from test_golden import CASES, CONFIGS

from fuzzystab import extraction, harness
from fuzzystab.control import THEOREMS
from fuzzystab.errors import ConfigError
from fuzzystab.harness import ALL_STAGES, ExperimentConfig, run_pipeline
from fuzzystab.spaces import MEMBERSHIP_SLACK

STOP_AT_1 = "stop_at_1"
Q_SCALES = {"q_scale_0.5": 0.5, "q_scale_1.5": 1.5}
DELTA_HALF = "delta_half"
Q_A_SWAPPED = "q_a_swapped"
A_SCALES = {"a_scale_0.5": 0.5, "a_scale_1.5": 1.5}
NUDGES = (1.001, 0.999, 1.000001, 0.999999)
Q_NUDGES = {f"q_scale_{factor!r}": factor for factor in NUDGES}
A_NUDGES = {f"a_scale_{factor!r}": factor for factor in NUDGES}
Q_FACTORS, A_FACTORS = {**Q_SCALES, **Q_NUDGES}, {**A_SCALES, **A_NUDGES}
Q_BUMP = "q_bump"
BUMP = 1.0

#: Reasons of the missed cells, by the ROADMAP items meant to kill them.
MISSED_STOP = "ROADMAP items 8 and 21: no law row checks Q or A, and no tail bound proves a stop"
MISSED_SCALE = (
    "ROADMAP items 8 and 5: no component_error row, and a mis-scaled Q inside the radius passes"
)
MISSED_SWAP = "ROADMAP item 8: no law row checks Q or A, and the swap keeps their sum Q + A"
MISSED_A_SCALE = (
    "ROADMAP items 8 and 5: no component_error row, and a mis-scaled A inside the radius passes"
)
MISSED_NUDGE = (
    "ROADMAP items 8 and 5: no component_error row, and Q or A off by 1e-3 or less passes"
)
MISSED_BUMP = (
    "ROADMAP items 8 and 5: no component_error or law row, and a bump inside the radius passes"
)

#: The golden configs that refuse ``q_scale``: none has a quadratic scheme.
NO_QUADRATIC = ("additive_up_power", "additive_down_product", "additive_down_2d")

#: A premise that fails with or without a fault: the defects overflow.
PREMISE = "hypothesis quadratic_down defect_premise"

UNCHANGED = "unchanged"

#: Each cell's outcome: the row a killed run fails, or a missed cell's
#: reason with the row it hides (None if the run passes unplanted).
OUTCOMES = {
    STOP_AT_1: {
        **{case: (MISSED_STOP, None) for case in CASES},
        "defect_overflow": PREMISE,
        # 25 violations unplanted: the early stop hides a true failure
        "additive_down_2d": (MISSED_STOP, "verification additive_down"),
    },
    **{
        fault: {
            "combined": "verification combined",
            "max_2d": "verification combined",
            "weighted_2d": "verification combined",
            "defect_overflow": PREMISE,
            # f is odd, so its Q is 0 and so is any multiple of it
            "two_theorems": UNCHANGED,
            "quadratic_power": (MISSED_SCALE, None),
            "combined_power": (MISSED_SCALE, None),
            "quadratic_down_max_2d": (MISSED_SCALE, None),
        }
        for fault in Q_SCALES
    },
    DELTA_HALF: {
        "combined": "hypothesis combined defect_premise",
        "max_2d": "hypothesis combined defect_premise",
        "weighted_2d": "hypothesis combined defect_premise",
        "two_theorems": "hypothesis combined defect_premise",
        "defect_overflow": PREMISE,
    },
    Q_A_SWAPPED: {
        case: (MISSED_SWAP, None)
        for case in ("combined", "max_2d", "weighted_2d", "combined_power", "two_theorems")
    },
    **{
        fault: {
            "combined": "verification combined",
            "max_2d": "verification combined",
            "weighted_2d": "verification combined",
            "two_theorems": "verification additive_up",
            # 25 violations unplanted: the run fails with or without the fault
            "additive_down_2d": "verification additive_down",
            "combined_power": (MISSED_A_SCALE, None),
            "additive_up_power": (MISSED_A_SCALE, None),
            "additive_down_product": (MISSED_A_SCALE, None),
        }
        for fault in A_SCALES
    },
    **{
        fault: {
            **{
                case: (MISSED_NUDGE, None)
                for case in (
                    "combined",
                    "max_2d",
                    "weighted_2d",
                    "quadratic_power",
                    "combined_power",
                    "quadratic_down_max_2d",
                )
            },
            "defect_overflow": PREMISE,
            # f is odd, so its Q is 0 and so is any multiple of it
            "two_theorems": UNCHANGED,
        }
        for fault in Q_NUDGES
    },
    **{
        fault: {
            **{
                case: (MISSED_NUDGE, None)
                for case in (
                    "combined",
                    "max_2d",
                    "weighted_2d",
                    "two_theorems",
                    "combined_power",
                    "additive_up_power",
                    "additive_down_product",
                )
            },
            # 25 violations unplanted: the run fails with or without the fault
            "additive_down_2d": "verification additive_down",
        }
        for fault in A_NUDGES
    },
    Q_BUMP: {
        "combined": "verification combined",
        "max_2d": "verification combined",
        "weighted_2d": "verification combined",
        # Q is 0, so the bump is all of it
        "two_theorems": "verification combined",
        "quadratic_down_max_2d": "verification quadratic_down",
        "defect_overflow": PREMISE,
        "quadratic_power": (MISSED_BUMP, None),
        "combined_power": (MISSED_BUMP, None),
    },
}


def _config(case: str, fault: str) -> dict:
    config = CASES[case][1]
    if config is None:
        data = json.loads((CONFIGS / f"{case}.json").read_text(encoding="utf-8"))
    else:
        data = json.loads(json.dumps(config))
    if fault in Q_FACTORS:
        data["negative_control"] = {"q_scale": Q_FACTORS[fault]}
    return data


def _failing_rows(report) -> set[str]:
    """The failing hypothesis and verification rows of a run, as
    "<section> <theorem> ..."."""
    return {
        *(f"hypothesis {r.theorem_id} {r.check}" for r in report.hypothesis_rows if not r.passed),
        *(
            f"verification {r.theorem_id}"
            for r in report.verification_reports
            if r.violations or not r.hypothesis_ok
        ),
    }


def _cells():
    for fault, outcomes in OUTCOMES.items():
        for case, outcome in outcomes.items():
            if isinstance(outcome, tuple):
                reason, row = outcome
                mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
                yield pytest.param(fault, case, row, marks=mark, id=f"{fault}-{case}")
            else:
                yield pytest.param(fault, case, outcome, id=f"{fault}-{case}")


@dataclass(frozen=True, eq=False)
class _Bumped:
    """A component with ``BUMP`` added to its value at the first point of
    each stack, ``x_index`` 0 of a verification."""

    source: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        values = np.array(self.source(x), dtype=float)
        values[0] += BUMP
        return values


def _plant(fault: str, monkeypatch) -> list:
    """Plant the monkeypatched fault; the list records what it planted."""
    planted = []
    if fault == STOP_AT_1:
        monkeypatch.setattr(
            extraction, "_first_stop", lambda diffs, sizes, tol: np.zeros(diffs.shape[:-1], int)
        )
    elif fault == DELTA_HALF:
        measure = harness.measure_residual_sup

        def halved(*args, **kwargs):
            planted.append(measure(*args, **kwargs) / 2)
            return planted[-1]

        monkeypatch.setattr(harness, "measure_residual_sup", halved)
    elif fault == Q_A_SWAPPED:
        extract = harness.extract_components

        def swapped(f, schemes, xs):
            components, results = extract(f, schemes, xs)
            if len(schemes) == 1:
                return components, results
            planted.append(schemes)
            return components[::-1], results[::-1]

        monkeypatch.setattr(harness, "extract_components", swapped)
    elif fault in A_FACTORS:
        extract, factor = harness.extract_components, A_FACTORS[fault]

        def scaled(f, schemes, xs):
            components, results = extract(f, schemes, xs)
            if _additive(schemes):
                planted.append(schemes)
            components = tuple(
                c if c.scheme.is_quadratic else harness._ScaledComponent(c, factor)
                for c in components
            )
            return components, results

        monkeypatch.setattr(harness, "extract_components", scaled)
    elif fault == Q_BUMP:
        extract = harness.extract_components

        def bumped(f, schemes, xs):
            components, results = extract(f, schemes, xs)
            if _quadratic(schemes):
                planted.append(schemes)
            components = tuple(_Bumped(c) if c.scheme.is_quadratic else c for c in components)
            return components, results

        monkeypatch.setattr(harness, "extract_components", bumped)
    return planted


def _additive(schemes) -> bool:
    return not all(scheme.is_quadratic for scheme in schemes)


def _quadratic(schemes) -> bool:
    return any(scheme.is_quadratic for scheme in schemes)


def _auto_constant(data: dict) -> bool:
    return data["control"]["family"] == "constant" and data["control"]["delta"] == "auto"


@pytest.mark.parametrize("fault, case, row", _cells())
def test_planted_fault(fault, case, row, monkeypatch):
    planted = _plant(fault, monkeypatch)
    report = run_pipeline(ExperimentConfig.from_dict(_config(case, fault)), ALL_STAGES)
    if fault == STOP_AT_1:  # planted: no run goes past n = 1
        assert max(n for t in report.extractions for n in t.n_used) <= 1
    elif fault == DELTA_HALF:  # planted: the run's delta is the halved sup
        assert len(planted) == 1 and report.resolved_delta is planted[0]
    elif fault == Q_A_SWAPPED:  # planted: every combined theorem's pair
        assert len(planted) == _config(case, fault)["theorems"].count("combined")
    elif fault in A_FACTORS:  # planted: the A of every theorem that has one
        theorems = _config(case, fault)["theorems"]
        assert planted == [THEOREMS[t].schemes for t in theorems if _additive(THEOREMS[t].schemes)]
    elif fault == Q_BUMP:  # planted: the Q of every theorem that has one
        theorems = _config(case, fault)["theorems"]
        assert planted == [THEOREMS[t].schemes for t in theorems if _quadratic(THEOREMS[t].schemes)]
    if row == UNCHANGED:
        assert report.exit_status == 0
        assert not any(t.limits.any() for t in report.extractions if t.component == "quadratic")
        return
    assert report.exit_status != 0
    if row is not None:
        assert row in _failing_rows(report)
    if fault == Q_BUMP and row.startswith("verification"):  # the bumped point alone fails
        (verified,) = [r for r in report.verification_reports if row.endswith(r.theorem_id)]
        assert np.flatnonzero((verified.slack < -MEMBERSHIP_SLACK).any(axis=1)).tolist() == [0]


def test_every_config_has_a_cell_for_each_fault():
    assert set(OUTCOMES[STOP_AT_1]) == set(CASES)
    for fault in [*Q_SCALES, *Q_NUDGES, Q_BUMP]:
        assert set(OUTCOMES[fault]) == set(CASES) - set(NO_QUADRATIC)
    for case in NO_QUADRATIC:
        with pytest.raises(ConfigError, match="q_scale"):
            ExperimentConfig.from_dict(_config(case, "q_scale_0.5"))
    data = {case: _config(case, STOP_AT_1) for case in CASES}
    assert set(OUTCOMES[DELTA_HALF]) == {c for c in CASES if _auto_constant(data[c])}
    assert set(OUTCOMES[Q_A_SWAPPED]) == {c for c in CASES if "combined" in data[c]["theorems"]}
    for fault in [*A_SCALES, *A_NUDGES]:
        additive = {
            c for c in CASES if any(_additive(THEOREMS[t].schemes) for t in data[c]["theorems"])
        }
        assert set(OUTCOMES[fault]) == additive
