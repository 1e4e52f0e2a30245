"""Fuzzy norm construction, axiom checking, and convergence predicates."""

import math

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
    fuzzy_cauchy,
    fuzzy_limit,
    induced_fuzzy_norm,
    log_a_grid,
)

E1 = np.array([1.0])


def test_induced_norm_unit_vector_half():
    assert induced_fuzzy_norm("euclidean", E1, 1.0) == 0.5


def test_induced_norm_at_origin_is_one():
    assert induced_fuzzy_norm("euclidean", np.zeros(3), 3.7) == 1.0


def test_induced_norm_nonpositive_threshold_is_zero():
    assert induced_fuzzy_norm("euclidean", np.array([2.0, 1.0]), -1.0) == 0.0
    assert induced_fuzzy_norm("euclidean", E1, 0.0) == 0.0


def test_induced_norm_other_crisp_kinds():
    x = np.array([3.0, -4.0])
    assert induced_fuzzy_norm("euclidean", x, 5.0) == pytest.approx(0.5)
    assert induced_fuzzy_norm("max", x, 4.0) == pytest.approx(0.5)
    assert induced_fuzzy_norm("weighted", E1, 2.0, weights=[4.0]) == pytest.approx(0.5)


def test_weighted_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        induced_fuzzy_norm("weighted", np.array([1.0, 2.0]), 1.0, weights=[1.0])
    with pytest.raises(DimensionMismatchError):
        crisp_norm("weighted", [1.0]).rows(np.ones((3, 2)))


@pytest.mark.parametrize("kind", ["euclidean", "max", "weighted"])
def test_row_form_of_each_crisp_norm_equals_its_scalar_form(kind):
    rng = np.random.default_rng(7)
    for dim in range(1, 11):
        norm = crisp_norm(kind, rng.uniform(0.1, 5.0, size=dim) if kind == "weighted" else None)
        rows = rng.normal(size=(500, dim)) * rng.choice([1e-150, 1e-3, 1.0, 1e3], size=(500, 1))
        rows[0] = 0.0
        expected = np.array([norm(v) for v in rows])
        assert norm.rows(rows).tobytes() == expected.tobytes()
        stacked = rows.reshape(5, 100, dim)[:, None]
        assert norm.rows(stacked).tobytes() == expected.reshape(5, 1, 100).tobytes()


def test_memberships_broadcast_and_match_single_calls():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 1, 3))
    a = np.array([-1.0, 0.0, 1e-3, 0.5, 7.0])
    induced = FuzzyNorm.induced()
    cellwise = FuzzyNorm(evaluator=induced.evaluator)
    expected = np.array([[induced(x[i, 0], a[j]) for j in range(5)] for i in range(4)])
    assert induced.memberships(x, a).tobytes() == expected.tobytes()
    assert cellwise.memberships(x, a).tobytes() == expected.tobytes()
    assert induced.memberships(np.zeros(2), a).shape == (5,)


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
    assert cfg.norm_x()(np.array([1.0, 0.0])) == 1.0


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


class TestProbeValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), a_grid=())
        with pytest.raises(ValueError):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), a_grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            SequenceProbe(terms=lambda n: E1, norm=FuzzyNorm.induced(), a_grid=(-1.0, 1.0))

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
