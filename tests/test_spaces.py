"""Fuzzy norm construction and axiom checking."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzystab.errors import DimensionMismatchError
from fuzzystab.spaces import (
    FUZZY_TOLERANCE,
    FuzzyNorm,
    SpaceConfig,
    check_axioms,
    crisp_norm,
    default_axiom_samples,
    euclidean_norm,
    log_a_grid,
)

E1 = np.array([1.0])


def by_axiom(checks):
    """The audit's checks by axiom name, each axiom checked once."""
    report = {c.axiom: c for c in checks}
    assert len(report) == len(checks)
    return report


def induced(kind, x, a, weights=None):
    """Membership of x at a under the fuzzy norm induced by the named crisp norm."""
    return FuzzyNorm.induced(crisp_norm(kind, weights))(x, a)


def test_induced_norm_unit_vector_half():
    assert induced("euclidean", E1, 1.0) == 0.5


def test_induced_norm_at_origin_is_one():
    assert induced("euclidean", np.zeros(3), 3.7) == 1.0


def test_induced_norm_nonpositive_threshold_is_zero():
    assert induced("euclidean", np.array([2.0, 1.0]), -1.0) == 0.0
    assert induced("euclidean", E1, 0.0) == 0.0


def test_induced_norm_other_crisp_kinds():
    x = np.array([3.0, -4.0])
    assert induced("euclidean", x, 5.0) == pytest.approx(0.5)
    assert induced("max", x, 4.0) == pytest.approx(0.5)
    assert induced("weighted", E1, 2.0, weights=[4.0]) == pytest.approx(0.5)


def test_weighted_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        induced("weighted", np.array([1.0, 2.0]), 1.0, weights=[1.0])
    with pytest.raises(DimensionMismatchError):
        crisp_norm("weighted", [1.0])(np.ones((3, 2)))


@pytest.mark.parametrize("kind", ["euclidean", "max", "weighted"])
def test_each_crisp_norm_maps_a_stack_as_it_maps_one_vector(kind):
    rng = np.random.default_rng(7)
    for dim in range(1, 11):
        norm = crisp_norm(kind, rng.uniform(0.1, 5.0, size=dim) if kind == "weighted" else None)
        rows = rng.normal(size=(500, dim)) * rng.choice([1e-150, 1e-3, 1.0, 1e3], size=(500, 1))
        rows[0] = 0.0
        singles = [norm(v) for v in rows]
        # one vector gives a Python float, whose ** raises on overflow
        assert {type(r) for r in singles} == {float}
        expected = np.array(singles)
        assert norm(rows).tobytes() == expected.tobytes()
        stacked = rows.reshape(5, 100, dim)[:, None]
        assert norm(stacked).tobytes() == expected.reshape(5, 1, 100).tobytes()


def test_euclidean_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    vectors = [0.0, -0.0, 5e-324, 3.0, [], [3.0, -4.0], [math.inf, 1.0], [math.nan, -math.inf]]
    for dim in range(1, 9):
        for scale in (1e-300, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e300):
            vectors += list(rng.normal(size=(20, dim)) * scale)
    with np.errstate(over="ignore"):  # both square and overflow alike
        for v in vectors:
            assert euclidean_norm(v).hex() == float(np.linalg.norm(v)).hex()
        # a Fortran-ordered stack is normed row by row, each row as numpy norms it
        stack = np.asfortranarray(rng.normal(size=(3, 8)) * [[1e8], [1.0], [1e-8]])
        expected = [float(np.linalg.norm(row)).hex() for row in stack]
        assert [r.hex() for r in euclidean_norm(stack).tolist()] == expected


@pytest.mark.parametrize("kind", ["euclidean", "max", "weighted"])
def test_memberships_broadcast_and_match_single_calls(kind):
    # thresholds at and around the edges of the induced membership, and
    # vectors with zero, infinite and NaN entries
    induced = FuzzyNorm.induced(crisp_norm(kind, [0.5, 2.0, 3.0] if kind == "weighted" else None))
    cellwise = FuzzyNorm(evaluator=induced)
    a = np.array([-1.0, -0.0, 0.0, 1e-3, 0.5, 7.0, math.inf, math.nan])
    entries = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan]
    x = np.array([[u, v, 0.25] for u in entries for v in entries])[:, None]
    expected = np.array([[induced(x[i, 0], a[j]) for j in range(len(a))] for i in range(len(x))])
    assert induced.memberships(x, a).tobytes() == expected.tobytes()
    assert cellwise.memberships(x, a).tobytes() == expected.tobytes()
    assert induced.memberships(np.zeros(3), a).shape == a.shape


def test_a_norm_that_does_not_map_stacks_is_refused():
    induced = FuzzyNorm.induced(lambda v: float(np.linalg.norm(v)))
    x = np.ones((3, 2))
    with pytest.raises(ValueError, match="must map"):
        induced.memberships(x, 1.0)
    assert induced(x[0], 1.0) == 1.0 / (1.0 + math.sqrt(2.0))  # one vector is fine


def test_a_fuzzy_norm_is_a_crisp_norm_or_an_evaluator():
    for fields in ({}, {"evaluator": lambda x, a: 1.0, "crisp": euclidean_norm}):
        with pytest.raises(ValueError, match="exactly one of evaluator and crisp"):
            FuzzyNorm(**fields)
    assert FuzzyNorm.induced(euclidean_norm) == FuzzyNorm(crisp=euclidean_norm)


@pytest.mark.parametrize("kind", ["euclidean", "max", "weighted"])
@pytest.mark.parametrize("a", [-1.0, 0.0, 1e-3, 0.5, 7.0, math.inf, math.nan])
def test_least_of_the_memberships_equals_the_per_row_minimum(kind, a):
    # the envelope's minimum: np.min over one memberships call is the least
    # per-row membership bit for bit, and NaN if any of them is
    rng = np.random.default_rng(5)
    norm = crisp_norm(kind, [0.5, 2.0, 3.0] if kind == "weighted" else None)
    induced = FuzzyNorm.induced(norm)
    # the induced norm, and the same memberships from a custom evaluator
    cellwise = FuzzyNorm(evaluator=induced)
    finite = rng.normal(size=(6, 3))
    cases = [finite] + [np.vstack([finite, [[bad, 0.0, 0.0]]]) for bad in (np.inf, np.nan)]
    for rows in cases:
        singles = [induced(v, a) for v in rows]
        least = math.nan if any(map(math.isnan, singles)) else min(singles)
        for fuzzy in (induced, cellwise):
            assert float(np.min(fuzzy.memberships(rows, a))).hex() == least.hex()


def test_induced_membership_is_one_at_infinite_threshold():
    norm = FuzzyNorm.induced()
    x = np.array([[3.0, 4.0], [0.0, 0.0], [np.inf, 0.0]])
    rows = norm.memberships(x, np.inf)
    single = [norm(v, np.inf) for v in x]
    assert rows[:2].tolist() == single[:2] == [1.0, 1.0]
    assert np.isnan(rows[2]) and math.isnan(single[2])  # inf / inf has no limit


def test_space_config_validation():
    with pytest.raises(ValueError):
        SpaceConfig(dim_x=0, dim_y=1)
    with pytest.raises(ValueError):
        SpaceConfig(dim_x=1, dim_y=1, crisp_norm_kind="weighted", weights=(-1.0,))
    cfg = SpaceConfig(dim_x=2, dim_y=2, crisp_norm_kind="weighted", weights=(1.0, 2.0))
    assert cfg.norm()(np.array([1.0, 0.0])) == 1.0


@pytest.mark.parametrize("kind", ["euclidean", "max"])
def test_only_the_weighted_norm_takes_weights(kind):
    message = f"{kind} norm takes no weights"
    with pytest.raises(ValueError, match=message):
        crisp_norm(kind, [3.0])
    with pytest.raises(ValueError, match=message):
        SpaceConfig(dim_x=1, dim_y=1, crisp_norm_kind=kind, weights=(3.0,))


class TestAxiomChecks:
    def test_induced_norm_passes_all_checked_axioms(self):
        points, scalars = default_axiom_samples(dim=2, count=200, seed=3)
        checks = check_axioms(FuzzyNorm.induced(), points, scalars)
        report = by_axiom(checks)
        for axiom in ("N1", "N2", "N3", "N4", "N5"):
            assert report[axiom].passed, f"{axiom}: {report[axiom]}"
            assert report[axiom].violations == 0
        assert all(c.passed for c in checks if c.status == "checked")

    def test_continuity_axiom_only_sampled(self):
        points, scalars = default_axiom_samples(dim=1, count=50, seed=5)
        report = by_axiom(check_axioms(FuzzyNorm.induced(), points, scalars))
        assert report["N6"].status == "sampled"
        assert "not proven" in report["N6"].note

    def test_constant_half_evaluator_fails_origin_axiom(self):
        norm = FuzzyNorm(evaluator=lambda x, a: 0.5)
        points, scalars = default_axiom_samples(dim=1, count=40, seed=1)
        report = by_axiom(check_axioms(norm, points, scalars))
        assert not report["N2"].passed

    def test_squared_norm_evaluator_fails_scaling_axiom(self):
        # Both sides at x with ||x|| = 1, scalar 2, b = 1 computed directly:
        # left N(2x, 1) = 1/(1+4) = 0.2, right N(x, 1/2) = 0.5/1.5 = 1/3.
        def squared(x, a):
            if a <= 0:
                return 0.0
            return a / (a + float(np.linalg.norm(x)) ** 2)

        assert squared(2 * E1, 1.0) == pytest.approx(1 / 5)
        assert squared(E1, 0.5) == pytest.approx(1 / 3)

        norm = FuzzyNorm(evaluator=squared)
        report = by_axiom(check_axioms(norm, [(E1, 1.0), (2 * E1, 2.0)], [2.0]))
        assert not report["N3"].passed
        assert report["N3"].violations > 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_membership_fails_every_axiom(self, value):
        norm = FuzzyNorm(evaluator=lambda x, a: value)
        checks = check_axioms(norm, [(E1, 1.0), (2 * E1, 2.0)], [2.0])
        assert [c.axiom for c in checks] == ["N1", "N2", "N3", "N4", "N5", "N6"]
        for check in checks:
            assert not check.passed, check
            assert check.violations > 0
            assert check.worst_slack == -math.inf

    def test_distinct_vectors_are_audited_in_first_occurrence_order(self):
        seen = []

        def recording(x, a):
            seen.append(x.tobytes())
            return FuzzyNorm.induced()(x, a)

        vectors = [np.array([v]) for v in (2.0, -1.0, 2.0, 0.0, -1.0, -0.0)]
        check_axioms(FuzzyNorm(evaluator=recording), [(v, 1.0) for v in vectors], [])
        # the audit opens with each distinct vector, byte for byte, at the one
        # positive threshold
        assert seen[:4] == [np.array([v]).tobytes() for v in (2.0, -1.0, 0.0, -0.0)]

    def test_pair_audit_memory_stays_bounded(self):
        # 2000 points make 4e6 N4 pairs: their argument sums alone would
        # take 64 MB in one broadcast, where the blocks hold a few at a time
        points, scalars = default_axiom_samples(dim=2, count=2000, seed=7)
        tracemalloc.start()
        try:
            report = by_axiom(check_axioms(FuzzyNorm.induced(), points, scalars))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["N4"].passed and report["N4"].violations == 0
        assert peak < 16e6

    def test_one_non_finite_membership_is_one_violation(self):
        def nan_at_origin(x, a):
            return math.nan if a > 0 and not np.any(x) else FuzzyNorm.induced()(x, a)

        checks = check_axioms(FuzzyNorm(evaluator=nan_at_origin), [(E1, 1e3)], [2.0])
        report = by_axiom(checks)
        assert report["N2"].violations == 1
        assert report["N2"].worst_slack == -math.inf
        assert sum(c.violations for c in checks if c.status == "checked") == 1


class TestFuzzyConvergenceIsNormConvergence:
    """An induced membership a/(a + ||x||) exceeds 1 - tol exactly when
    ||x|| < a tol/(1 - tol), so a sequence converges in the fuzzy norm
    exactly when it converges in the crisp norm."""

    @pytest.mark.parametrize("kind", ["euclidean", "max", "weighted"])
    def test_membership_exceeds_one_minus_tol_exactly_inside_the_crisp_radius(self, kind):
        rng = np.random.default_rng(13)
        norm = crisp_norm(kind, [0.5, 2.0, 3.0] if kind == "weighted" else None)
        fuzzy = FuzzyNorm.induced(norm)
        for a in log_a_grid(1e-3, 1e3, 7):
            for tol in (1e-3, 0.01, 0.3):
                radius = a * tol / (1 - tol)
                for ratio in (0.0, 0.5, 0.9, 1.1, 2.0, 10.0):
                    u = rng.normal(size=3)
                    x = (ratio * radius / norm(u)) * u
                    assert (fuzzy(x, a) > 1 - tol) == (ratio < 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_term_is_never_within_tolerance(self, value):
        # the difference to the term itself is NaN (inf - inf, quietly), to
        # the origin it is infinite: no membership exceeds 1 - tol at any threshold
        term = np.array([value, 0.0])
        a = np.array(log_a_grid() + (math.inf,))
        with np.errstate(invalid="ignore"):
            for candidate in (term, np.zeros(2)):
                m = FuzzyNorm.induced().memberships(term - candidate, a)
                assert not np.any(m > 1 - FUZZY_TOLERANCE)


@pytest.mark.parametrize(
    "lo, hi, points",
    [
        (0.0, 1.0, 5),
        (-1.0, 1.0, 5),
        (1.0, 1.0, 5),
        (2.0, 1.0, 5),
        (1e-3, 1e3, 0),
        (math.nan, 1.0, 5),
        (1e-3, math.nan, 5),
        (1e-3, math.inf, 5),
    ],
)
def test_log_a_grid_rejects_bad_bounds(lo, hi, points):
    # a NaN or infinite bound would put NaN or inf thresholds on the grid
    with pytest.raises(ValueError, match="0 < lo < hi < inf"):
        log_a_grid(lo, hi, points)


def test_log_a_grid_is_log_spaced_from_lo_to_hi():
    grid = log_a_grid(1e-2, 1e4, 7)
    assert len(grid) == 7 and {type(a) for a in grid} == {float}
    assert grid[0] == pytest.approx(1e-2, rel=1e-15) and grid[-1] == pytest.approx(1e4, rel=1e-15)
    assert np.diff(np.log10(grid)) == pytest.approx([1.0] * 6, rel=1e-12)
    assert log_a_grid(0.5, 2.0, 1) == (0.5,)


vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=3
).map(lambda v: np.array(v))
thresholds = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@given(x=vectors, b=thresholds, c=st.floats(min_value=0.01, max_value=100))
@settings(max_examples=200)
def test_homogeneity_of_induced_norm(x, b, c):
    n = FuzzyNorm.induced()
    assert abs(n(c * x, b) - n(x, b / abs(c))) <= 1e-12


@given(x=vectors, y=vectors, a=thresholds, b=thresholds)
@settings(max_examples=200)
def test_triangle_min_inequality(x, y, a, b):
    n = FuzzyNorm.induced()
    assert n(x + y, a + b) >= min(n(x, a), n(y, b)) - 1e-12


@given(x=vectors, a=thresholds, bump=st.floats(min_value=1.0, max_value=100))
@settings(max_examples=200)
def test_monotone_in_threshold(x, a, bump):
    n = FuzzyNorm.induced()
    assert n(x, a + bump) >= n(x, a) - 1e-12
    assert 0.0 <= n(x, a) <= 1.0


@given(
    rate=st.floats(min_value=0.1, max_value=0.9),
    tolerance=st.floats(min_value=1e-3, max_value=0.5),
    a_min=st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=60)
def test_crisp_convergence_is_fuzzy_convergence_at_every_grid_threshold(rate, tolerance, a_min):
    # ||x_n - L|| = rate^n; every membership over the grid exceeds 1 - tolerance
    # once rate^n < a_min * tolerance / (1 - tolerance), and not a term before.
    # That crossing index is computed here, independently of the memberships.
    L = np.array([1.0, -2.0])
    n = np.arange(1, 200)
    terms = L + rate ** n[:, None] * np.array([1.0, 0.0])
    grid = np.geomspace(a_min, a_min * 1e4, 8)
    m = FuzzyNorm.induced().memberships((terms - L)[:, None, :], grid)
    within = np.all(m > 1 - tolerance, axis=1)
    crossing = math.log(a_min * tolerance / (1 - tolerance)) / math.log(rate)
    start = max(1, math.ceil(crossing) + 1)
    assert within[start - 1 :].all()
    assert not within[: max(0, math.floor(crossing - 1))].any()
