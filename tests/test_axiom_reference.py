"""The axiom audit against its scalar reference loop.

``reference_check_axioms`` is the audit as nested loops over single
membership calls.  The array form in ``fuzzystab.spaces`` must reproduce it
exactly, field by field and down to the sign of a zero slack, on induced
norms of every crisp kind and on custom evaluators.
"""

import math
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzystab.spaces import (
    FUZZY_TOLERANCE,
    MEMBERSHIP_SLACK,
    PAIR_BLOCK_CELLS,
    AxiomCheck,
    FuzzyNorm,
    check_axioms,
    crisp_norm,
    default_axiom_samples,
    euclidean_norm,
)


def _dedupe_vectors(vectors: Iterable[np.ndarray]) -> list[np.ndarray]:
    seen: set[bytes] = set()
    out = []
    for v in vectors:
        key = v.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def reference_check_axioms(
    norm: FuzzyNorm,
    sample_points: Sequence[tuple[np.ndarray, float]],
    scalar_samples: Sequence[float],
    *,
    continuity_jump: float = 1e-3,
) -> tuple[AxiomCheck, ...]:
    """Scalar loop form of :func:`fuzzystab.spaces.check_axioms`, one
    membership call at a time.  It predates the rule that a non-finite
    membership is a violation, so it is a reference for finite ones only."""
    if not sample_points:
        raise ValueError("sample_points must be non-empty")
    pts = [(np.atleast_1d(np.asarray(x, dtype=float)), float(a)) for x, a in sample_points]
    pos_a = sorted({a for _, a in pts if a > 0})
    xs = _dedupe_vectors(v for v, _ in pts)
    dim = xs[0].size
    zero = np.zeros(dim)
    checks: list[AxiomCheck] = []

    # N1: membership vanishes at non-positive thresholds.
    worst = 0.0
    bad = 0
    for x, a in pts:
        for a_neg in (0.0, -1.0, -abs(a)):
            m = norm(x, a_neg)
            worst = min(worst, -m)
            if m > MEMBERSHIP_SLACK:
                bad += 1
    checks.append(AxiomCheck("N1", bad == 0, bad, worst))

    # N2: membership 1 at the origin for every positive threshold, and
    # below 1 somewhere for every nonzero sample vector.
    worst = 0.0
    bad = 0
    note = ""
    if not pos_a:
        note = "degenerate: no positive thresholds sampled"
    for a in pos_a:
        m = norm(zero, a)
        worst = min(worst, m - 1.0)
        if m < 1.0 - MEMBERSHIP_SLACK:
            bad += 1
    for x in xs:
        if not np.any(x):
            continue
        m_min = min(norm(x, a) for a in pos_a) if pos_a else 1.0
        if m_min >= 1.0 - MEMBERSHIP_SLACK:
            bad += 1
            worst = min(worst, (1.0 - m_min) - MEMBERSHIP_SLACK)
    checks.append(AxiomCheck("N2", bad == 0, bad, worst, note=note))

    # N3: scaling the vector rescales the threshold, N(cx, b) = N(x, b/|c|).
    worst = 0.0
    bad = 0
    note = ""
    usable = [c for c in scalar_samples if abs(c) > 1e-15]
    if not usable:
        note = "degenerate: no usable nonzero scalars"
    for c in usable:
        for x in xs:
            for b in pos_a:
                diff = abs(norm(c * x, b) - norm(x, b / abs(c)))
                worst = min(worst, -diff)
                if diff > MEMBERSHIP_SLACK:
                    bad += 1
    checks.append(AxiomCheck("N3", bad == 0, bad, worst, note=note))

    # N4: triangle-min inequality over sampled pairs.
    worst = 0.0
    bad = 0
    pos_pts = [(x, a) for x, a in pts if a > 0]
    for x, a in pos_pts:
        for y, b in pos_pts:
            margin = norm(x + y, a + b) - min(norm(x, a), norm(y, b))
            worst = min(worst, margin)
            if margin < -MEMBERSHIP_SLACK:
                bad += 1
    checks.append(AxiomCheck("N4", bad == 0, bad, worst))

    # N5: monotone in the threshold, approaching 1 for large thresholds.
    worst = 0.0
    bad = 0
    for x in xs:
        ms = [norm(x, a) for a in pos_a]
        for lo, hi in zip(ms, ms[1:]):
            worst = min(worst, hi - lo)
            if hi < lo - MEMBERSHIP_SLACK:
                bad += 1
        if pos_a:
            big = max(pos_a) * (1.0 + (norm.crisp or euclidean_norm)(x))
            margin = norm(x, big) - (1.0 - FUZZY_TOLERANCE)
            worst = min(worst, margin)
            if margin < 0.0:
                bad += 1
    checks.append(AxiomCheck("N5", bad == 0, bad, worst))

    # N6: continuity in the threshold is probed, never proven, from points.
    jump = 0.0
    for x in xs:
        for a in pos_a:
            m = norm(x, a)
            for h in (a * (1 - 1e-7), a * (1 + 1e-7)):
                jump = max(jump, abs(norm(x, h) - m))
    checks.append(
        AxiomCheck(
            "N6",
            jump <= continuity_jump,
            0,
            -jump,
            status="sampled",
            note="sampled, not proven",
        )
    )
    return tuple(checks)


def _half(x, a):
    return 0.5


def _squared(x, a):
    if a <= 0:
        return 0.0
    return a / (a + float(np.linalg.norm(x)) ** 2)


CUSTOM = {"half": _half, "squared": _squared}


def _exact(checks: tuple[AxiomCheck, ...]) -> list[tuple]:
    return [
        (c.axiom, c.passed, c.violations, float(c.worst_slack).hex(), c.status, c.note)
        for c in checks
    ]


def _assert_same_as_reference(norm, points, scalars):
    assert _exact(check_axioms(norm, points, scalars)) == _exact(
        reference_check_axioms(norm, points, scalars)
    )


_COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_THRESHOLD = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-3, 1.0, 1e3]),
    st.floats(-2.0, 60.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _audit_case(draw):
    dim = draw(st.integers(1, 3))
    vector = st.lists(_COORD, min_size=dim, max_size=dim).map(np.array)
    vectors = draw(st.lists(vector, min_size=1, max_size=8))
    vectors += [np.zeros(dim), vectors[0].copy()]
    vectors = draw(st.permutations(vectors))
    points = [(v, draw(_THRESHOLD)) for v in vectors]
    scalars = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), max_size=4))
    kind = draw(st.sampled_from(["euclidean", "max", "weighted", *CUSTOM]))
    if kind in CUSTOM:
        norm = FuzzyNorm(evaluator=CUSTOM[kind])
    else:
        weights = draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim))
        norm = FuzzyNorm.induced(crisp_norm(kind, weights if kind == "weighted" else None))
    return norm, points, scalars


@settings(max_examples=300, deadline=None)
@given(_audit_case())
def test_array_audit_equals_reference_loop(case):
    _assert_same_as_reference(*case)


def test_array_audit_equals_reference_on_default_samples():
    for dim in (1, 2, 3):
        points, scalars = default_axiom_samples(dim, count=40, seed=dim)
        for norm in (FuzzyNorm.induced(), *(FuzzyNorm(evaluator=e) for e in CUSTOM.values())):
            _assert_same_as_reference(norm, points, scalars)


def _blocks(p: int) -> list[int]:
    """Rows of each N4 block of ``p`` positive-threshold points."""
    step = max(1, PAIR_BLOCK_CELLS // p)
    return [min(step, p - i) for i in range(0, p, step)]


#: Positive-threshold point counts and the N4 blocks they make.  No count
#: fills exactly one block (p == PAIR_BLOCK_CELLS // p has no solution for
#: 8192 cells), so B rows is a full last block after a full first one.
BLOCK_FILLS = {
    "1 row": (1, [1]),
    "B-1 rows": (90, [90]),  # B = 91
    "B rows": (128, [64, 64]),  # B = 64
    "B+1 rows": (91, [90, 1]),  # B = 90
}


@pytest.mark.parametrize("kind", ["euclidean", "max", "weighted", "squared"])
@pytest.mark.parametrize("fill", BLOCK_FILLS)
def test_array_audit_equals_reference_at_block_boundaries(fill, kind):
    p, blocks = BLOCK_FILLS[fill]
    assert _blocks(p) == blocks
    points, scalars = default_axiom_samples(2, count=p, seed=p)
    # points at non-positive thresholds take part in no N4 pair
    points += [(points[-1][0], 0.0), (np.array([0.5, -1.0]), -1.0)]
    if kind == "squared":
        norm = FuzzyNorm(evaluator=_squared)
    else:
        weights = [0.5, 2.0] if kind == "weighted" else None
        norm = FuzzyNorm.induced(crisp_norm(kind, weights))
    _assert_same_as_reference(norm, points, scalars)


def test_non_finite_pair_in_the_second_block_is_one_violation():
    # 90 points in the radius-2 ball and one at norm 10 make blocks of 90
    # and 1 rows; only that point's pair with itself (norm 20) is NaN
    def nan_beyond_15(x, a):
        return math.nan if float(np.linalg.norm(x)) > 15.0 else FuzzyNorm.induced()(x, a)

    points, _ = default_axiom_samples(2, count=90, seed=11)
    points.append((np.array([10.0, 0.0]), 1.0))
    assert _blocks(len(points)) == [90, 1]
    norm, scalars = FuzzyNorm(evaluator=nan_beyond_15), [-0.5, 0.5, 1.0]
    report = check_axioms(norm, points, scalars)
    n4 = {c.axiom: c for c in report}["N4"]
    assert (n4.passed, n4.violations) == (False, 1)
    assert n4.worst_slack == -math.inf
    # the reference loop skips a NaN margin; every other axiom is finite
    reference = reference_check_axioms(norm, points, scalars)
    assert {c.axiom: c for c in reference}["N4"].violations == 0
    assert [row for row in _exact(report) if row[0] != "N4"] == [
        row for row in _exact(reference) if row[0] != "N4"
    ]
