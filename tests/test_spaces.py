"""Fuzzy norm construction, axiom checking, and convergence predicates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzystab.errors import DimensionMismatchError
from fuzzystab.spaces import (
    FuzzyNorm,
    SequenceProbe,
    SpaceConfig,
    check_axioms,
    crisp_norm,
    default_axiom_samples,
    euclidean_norm,
    fuzzy_cauchy,
    fuzzy_limit,
    log_a_grid,
)

E1 = np.array([1.0])


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
    with pytest.raises(ValueError, match="must map"):
        induced.least_membership(x, 1.0)
    assert induced(x[0], 1.0) == 1.0 / (1.0 + math.sqrt(2.0))  # one vector is fine


def test_a_fuzzy_norm_is_a_crisp_norm_or_an_evaluator():
    for fields in ({}, {"evaluator": lambda x, a: 1.0, "crisp": euclidean_norm}):
        with pytest.raises(ValueError, match="exactly one of evaluator and crisp"):
            FuzzyNorm(**fields)
    assert FuzzyNorm.induced(euclidean_norm) == FuzzyNorm(crisp=euclidean_norm)


@pytest.mark.parametrize("kind", ["euclidean", "max", "weighted"])
@pytest.mark.parametrize("a", [-1.0, 0.0, 1e-3, 0.5, 7.0, math.inf, math.nan])
def test_least_membership_is_one_call_at_the_largest_norm(kind, a, monkeypatch):
    rng = np.random.default_rng(5)
    norm = crisp_norm(kind, [0.5, 2.0, 3.0] if kind == "weighted" else None)
    induced = FuzzyNorm.induced(norm)
    # the induced norm, and the same memberships from a custom evaluator
    cellwise = FuzzyNorm(evaluator=induced)
    finite = rng.normal(size=(6, 3))
    cases = [finite] + [np.vstack([finite, [[bad, 0.0, 0.0]]]) for bad in (np.inf, np.nan)]
    calls = []
    call = FuzzyNorm.__call__

    def counted(self, v, t):
        calls.append(self)
        return call(self, v, t)

    for rows in cases:
        singles = [induced(v, a) for v in rows]
        least = math.nan if any(map(math.isnan, singles)) else min(singles)
        with monkeypatch.context() as patch:
            patch.setattr(FuzzyNorm, "__call__", counted)
            for fuzzy, n_calls in ((induced, 1), (cellwise, len(rows))):
                calls.clear()
                assert fuzzy.least_membership(rows, a).hex() == least.hex()
                assert sum(c is fuzzy for c in calls) == n_calls


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
        report = check_axioms(FuzzyNorm.induced(), points, scalars)
        for axiom in ("N1", "N2", "N3", "N4", "N5"):
            assert report[axiom].passed, f"{axiom}: {report[axiom]}"
            assert report[axiom].violations == 0
        assert report.passed

    def test_continuity_axiom_only_sampled(self):
        points, scalars = default_axiom_samples(dim=1, count=50, seed=5)
        report = check_axioms(FuzzyNorm.induced(), points, scalars)
        assert report["N6"].status == "sampled"
        assert "not proven" in report["N6"].note

    def test_constant_half_evaluator_fails_origin_axiom(self):
        norm = FuzzyNorm(evaluator=lambda x, a: 0.5)
        points, scalars = default_axiom_samples(dim=1, count=40, seed=1)
        report = check_axioms(norm, points, scalars)
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
        report = check_axioms(norm, [(E1, 1.0), (2 * E1, 2.0)], [2.0])
        assert not report["N3"].passed
        assert report["N3"].violations > 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_membership_fails_every_axiom(self, value):
        norm = FuzzyNorm(evaluator=lambda x, a: value)
        report = check_axioms(norm, [(E1, 1.0), (2 * E1, 2.0)], [2.0])
        for check in report.checks:
            assert not check.passed, check
            assert check.violations > 0
            assert check.worst_slack == -math.inf
        assert not report.passed

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
            report = check_axioms(FuzzyNorm.induced(), points, scalars)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["N4"].passed and report["N4"].violations == 0
        assert peak < 16e6

    def test_one_non_finite_membership_is_one_violation(self):
        def nan_at_origin(x, a):
            return math.nan if a > 0 and not np.any(x) else FuzzyNorm.induced()(x, a)

        report = check_axioms(FuzzyNorm(evaluator=nan_at_origin), [(E1, 1e3)], [2.0])
        assert report["N2"].violations == 1
        assert report["N2"].worst_slack == -math.inf
        assert report.total_violations == 1


class TestFuzzyLimit:
    def test_crisp_convergence_implies_fuzzy_limit(self):
        # ||x_n - c|| = 1/n; the needed window start for membership
        # a/(a + 1/n) > 1 - tol at the smallest grid threshold is
        # n > (1 - tol) / (a_min tol), computed here as the oracle.
        c = np.array([2.0, -1.0])
        probe = SequenceProbe(
            terms=lambda n: c + (1.0 / n) * np.array([1.0, 0.0]),
            norm=FuzzyNorm.induced(),
            a_grid=log_a_grid(0.5, 1e3, 10),
            tolerance=0.01,
        )
        n_needed = math.ceil((1 - 0.01) / (0.5 * 0.01))
        assert n_needed < 1000
        assert fuzzy_limit(probe, c, range(1000, 2001, 100))

    def test_alternating_sequence_has_no_limit(self):
        probe = SequenceProbe(
            terms=lambda n: (-1.0) ** n * E1,
            norm=FuzzyNorm.induced(),
        )
        assert not fuzzy_limit(probe, np.array([0.0]), range(1000, 1010))

    def test_rescaled_quadratic_sequence_is_constant(self):
        probe = SequenceProbe(
            terms=lambda n: np.ldexp(np.ldexp(E1, n) ** 2, -2 * n),
            norm=FuzzyNorm.induced(),
        )
        assert fuzzy_limit(probe, E1, range(1, 30))
        assert fuzzy_limit(probe, E1, range(490, 500))

    def test_nan_sequence_has_no_limit(self):
        # the memberships are NaN, which is not above 1 - tol
        probe = SequenceProbe(terms=lambda n: np.array([math.nan]), norm=FuzzyNorm.induced())
        assert not fuzzy_limit(probe, np.array([0.0]), range(1, 5))

    def test_infinite_sequence_has_no_infinite_limit(self):
        # inf - inf is NaN, quietly
        probe = SequenceProbe(terms=lambda n: np.array([math.inf]), norm=FuzzyNorm.induced())
        assert not fuzzy_limit(probe, np.array([math.inf]), range(1, 5))

    def test_a_term_of_another_dimension_than_the_candidate_is_refused(self):
        # broadcasting [2^-n, 2^-n] - [0] would "converge" to a 1-vector
        probe = SequenceProbe(terms=lambda n: np.full(2, 2.0**-n), norm=FuzzyNorm.induced())
        assert fuzzy_limit(probe, np.zeros(2), range(40, 50))
        with pytest.raises(DimensionMismatchError, match=r"shape \(2,\) against shape \(1,\)"):
            fuzzy_limit(probe, np.array([0.0]), range(40, 50))


class TestFuzzyCauchy:
    def test_geometric_partial_sums_are_cauchy(self):
        partial = lambda n: np.array([sum(2.0**-k for k in range(1, n + 1))])
        probe = SequenceProbe(terms=partial, norm=FuzzyNorm.induced())
        # tail increments below a_min * tol/(1-tol) ~ 1.01e-5 from n >= 17
        assert fuzzy_cauchy(probe, p_max=5, n0=20, n_max=40)

    def test_divergent_sequence_is_not_cauchy(self):
        probe = SequenceProbe(terms=lambda n: n * E1, norm=FuzzyNorm.induced())
        assert not fuzzy_cauchy(probe, p_max=3, n0=5, n_max=20)

    def test_rescaled_perturbed_quadratic_is_cauchy(self):
        # x_n = f(2^n)/4^n for f(t) = t^2 + sin t: increments are bounded by
        # |sin 2^{n+p}|/4^{n+p} + |sin 2^n|/4^n <= 2/4^n (checked directly).
        terms = lambda n: np.array([1.0 + math.sin(2.0**n) / 4.0**n])
        for n in range(12, 20):
            for p in range(1, 4):
                assert abs(terms(n + p)[0] - terms(n)[0]) <= 2.0 / 4.0**n
        probe = SequenceProbe(terms=terms, norm=FuzzyNorm.induced())
        assert fuzzy_cauchy(probe, p_max=3, n0=12, n_max=30)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_sequence_is_not_cauchy(self, value):
        # its increments are NaN (inf - inf, quietly), and so are their memberships
        probe = SequenceProbe(terms=lambda n: np.array([value]), norm=FuzzyNorm.induced())
        assert not fuzzy_cauchy(probe, p_max=2, n0=1, n_max=3)

    def test_terms_of_different_dimensions_are_refused(self):
        probe = SequenceProbe(terms=lambda n: np.zeros(1 + n % 2), norm=FuzzyNorm.induced())
        with pytest.raises(DimensionMismatchError):
            fuzzy_cauchy(probe, p_max=1, n0=1, n_max=3)

    def test_an_empty_window_is_refused(self):
        # n_max < n0 would check no increment and pass the divergent [n]
        probe = SequenceProbe(terms=lambda n: n * E1, norm=FuzzyNorm.induced())
        with pytest.raises(ValueError, match="n_max must be >= n0"):
            fuzzy_cauchy(probe, p_max=3, n0=10, n_max=5)
        assert not fuzzy_cauchy(probe, p_max=3, n0=10, n_max=10)


class TestProbeValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), a_grid=())
        with pytest.raises(ValueError):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), a_grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), a_grid=(-1.0, 1.0))

    @pytest.mark.parametrize("a_grid", [(math.nan,), (math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_a_nan_threshold(self, a_grid):
        # at a NaN threshold every membership is NaN, so any sequence would pass
        with pytest.raises(ValueError, match="strictly positive"):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), a_grid=a_grid)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), tolerance=1.5)


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
def test_crisp_convergence_implies_fuzzy_limit_for_any_grid(rate, tolerance, a_min):
    # ||x_n - L|| = rate^n; membership exceeds 1 - tolerance at every grid
    # threshold once rate^n < a_min * tolerance / (1 - tolerance), and that
    # crossing index is computed here, independently of the predicate.
    L = np.array([1.0, -2.0])
    probe = SequenceProbe(
        terms=lambda n: L + rate**n * np.array([1.0, 0.0]),
        norm=FuzzyNorm.induced(),
        a_grid=tuple(float(a) for a in np.geomspace(a_min, a_min * 1e4, 8)),
        tolerance=tolerance,
    )
    crossing = math.log(a_min * tolerance / (1 - tolerance)) / math.log(rate)
    start = max(1, math.ceil(crossing) + 1)
    assert fuzzy_limit(probe, L, range(start, start + 10))
