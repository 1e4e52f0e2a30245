"""Control families, envelopes, scaling/vanishing decisions, bound verification."""

import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fuzzystab import control
from fuzzystab.control import (
    ConstantControl,
    Margin,
    PowerControl,
    ProductControl,
    defect_premise_margin,
    envelope,
    eval_control,
    measure_residual_sup,
    premise_pairs,
    scaling_alpha_check,
    THEOREMS,
    vanishing_check,
    verify_stability,
)
from fuzzystab.errors import DomainError
from fuzzystab.extraction import ExtractedComponent, Scheme
from fuzzystab.funceq import CoordinatePoly, Perturbation, TestFunction
from fuzzystab.harness import RunReport, emit_report
from fuzzystab.spaces import MEMBERSHIP_SLACK, FuzzyNorm, euclidean_norm, log_a_grid

V = lambda *vals: np.array([float(v) for v in vals])
NPRIME = FuzzyNorm.induced()
N = FuzzyNorm.induced()
NAN_NORM = FuzzyNorm(evaluator=lambda x, a: float("nan"))


def stacked(*pairs):
    """The pairs (x, y) as one (2, k, d) array, the layout the checks take."""
    return np.array([[x for x, _ in pairs], [y for _, y in pairs]])


def is_positive_zero(value):
    """``value`` is 0.0, not -0.0, as the report prints it."""
    return value == 0.0 and math.copysign(1.0, value) == 1.0


def seeded_margin(f, phi, theorem_id, xs, a_values, N):
    """The defect premise margin on the pairs a generator seeded 0 draws from xs."""
    pairs = premise_pairs(THEOREMS[theorem_id], xs, np.random.default_rng(0))
    return defect_premise_margin(f, phi, N, pairs, a_values)


def verify(f, components, phi, theorem_id, xs, a_values, N):
    """verify_stability gated by the seeded margin of the same arguments."""
    margin = seeded_margin(f, phi, theorem_id, xs, a_values, N)
    return verify_stability(f, components, phi, theorem_id, xs, a_values, N, premise_margin=margin)


class TestEvalControl:
    def test_constant(self):
        phi = ConstantControl(delta=1.0)
        assert eval_control(phi, V(9.0), V(-4.0)) == 1.0

    def test_power_sums_norm_powers(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        assert eval_control(phi, V(1.0), V(2.0)) == 3.0

    def test_product_multiplies_norm_powers(self):
        phi = ProductControl(theta=2.0, p1=1.0, p2=1.0, alpha=4.0)
        assert eval_control(phi, V(1.0), V(3.0)) == 6.0

    @pytest.mark.parametrize(
        "phi",
        [
            PowerControl(theta=1.0, p=3.0, alpha=2.0),
            ProductControl(theta=1.0, p1=3.0, p2=1.0, alpha=4.0),
        ],
        ids=["power", "product"],
    )
    def test_overflowing_power_is_inf(self, phi):
        # Python's float ** raises OverflowError here; the control overflows to inf
        assert eval_control(phi, [1e110], [1.0]) == np.inf

    def test_negative_power_at_origin_is_domain_error(self):
        phi = PowerControl(theta=1.0, p=-1.0, alpha=0.5)
        with pytest.raises(DomainError):
            eval_control(phi, V(0.0), V(1.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConstantControl(delta=-1.0)
        with pytest.raises(ValueError):
            PowerControl(theta=1.0, p=1.0, alpha=0.0)

    def test_no_control_call_takes_a_norm(self):
        # phi holds its domain norm and its N'; only the defect sup takes a
        # norm, which measures the defect in the codomain
        calls = [getattr(control, n) for n in control.__all__]
        calls = [c for c in calls if inspect.isfunction(c)]
        calls += [family.rows for family in (ConstantControl, PowerControl, ProductControl)]
        takers = [c for c in calls if {"norm", "nprime"} & set(inspect.signature(c).parameters)]
        assert [c.__name__ for c in takers] == ["measure_residual_sup"]


class TestScalingAlphaCheck:
    def test_constant_control_scale_invariant(self):
        # 1 - 2^0 is exactly 0.0, the margin of every constant control at alpha 1
        margin = scaling_alpha_check(ConstantControl(delta=2.0, alpha=1.0), Scheme.QUADRATIC_UP)
        assert is_positive_zero(margin)

    def test_degree_one_power_admits_alpha_two(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        assert scaling_alpha_check(phi, Scheme.QUADRATIC_UP) == 0.0

    def test_degree_one_power_rejects_alpha_below_two(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=1.5)
        assert scaling_alpha_check(phi, Scheme.QUADRATIC_UP) == -0.5

    def test_alpha_outside_scheme_interval_rejected_with_reason(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=5.0)
        reason = "alpha out of range (0,4) for quadratic_up"
        with pytest.raises(ValueError, match=re.escape(reason)):
            scaling_alpha_check(phi, Scheme.QUADRATIC_UP)

    def test_down_scheme_margin_is_growth_less_alpha(self):
        high, low = (PowerControl(theta=0.5, p=p, alpha=5.0) for p in (3.0, 1.0))
        assert scaling_alpha_check(high, Scheme.QUADRATIC_DOWN) == 3.0
        assert scaling_alpha_check(low, Scheme.QUADRATIC_DOWN) == -3.0

    def test_product_control_degree_is_the_sum_of_its_powers(self):
        phi = ProductControl(theta=1.0, p1=2.0, p2=-0.5, alpha=2.5)
        assert scaling_alpha_check(phi, Scheme.ADDITIVE_DOWN) == 2.0**1.5 - 2.5

    def test_boundary_is_decided_in_floating_point_without_slack(self):
        # 0.2 + 0.4 is 0.6000000000000001, so 2^degree lands one ulp above
        # 2^0.6: alpha = 2^0.6 fails by that ulp, alpha = 2^degree holds at 0
        phi = ProductControl(theta=1.0, p1=0.2, p2=0.4, alpha=2.0**0.6)
        assert scaling_alpha_check(phi, Scheme.ADDITIVE_UP) == -2.0**-52
        at_degree = replace(phi, alpha=2.0 ** (0.2 + 0.4))
        assert is_positive_zero(scaling_alpha_check(at_degree, Scheme.ADDITIVE_UP))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_verdict_matches_analytic_criterion(self, scheme):
        # oracle: an alpha outside the scheme's interval is rejected, and an
        # admissible one passes iff 2^degree <= alpha for up-schemes (>= for
        # down-schemes)
        rng = np.random.default_rng(99)
        for _ in range(8):
            p = float(rng.uniform(0.0, 3.5))
            alpha = float(rng.uniform(0.05, 9.0))
            phi = PowerControl(theta=float(rng.uniform(0.1, 2.0)), p=p, alpha=alpha)
            if not scheme.admits_alpha(alpha):
                with pytest.raises(ValueError, match="alpha out of range"):
                    scaling_alpha_check(phi, scheme)
                continue
            analytic = 2.0**p <= alpha if scheme.is_up else 2.0**p >= alpha
            assert (scaling_alpha_check(phi, scheme) >= 0.0) == analytic, (scheme, p, alpha)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize(
        "phi",
        [
            ConstantControl(delta=0.0, alpha=0.5),
            PowerControl(theta=0.0, p=3.0, alpha=0.5),
            ProductControl(theta=0.0, p1=1.0, p2=-0.5, alpha=0.5),
        ],
        ids=["constant", "power", "product"],
    )
    def test_zero_control_holds_at_any_alpha_with_margin_zero(self, scheme, phi):
        phi = replace(phi, alpha=0.5 if scheme.is_up else 9.0)
        assert is_positive_zero(scaling_alpha_check(phi, scheme))

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_non_finite_control_fails_at_minus_inf(self, scheme, scale):
        phi = ConstantControl(delta=scale, alpha=1.0 if scheme.is_up else 5.0)
        assert scaling_alpha_check(phi, scheme) == -math.inf

    def test_overflowing_growth_is_a_margin_not_an_error(self):
        # 2.0 ** 2000 raises OverflowError in Python; the growth is inf
        up = PowerControl(theta=1.0, p=2000.0, alpha=1.5)
        assert scaling_alpha_check(up, Scheme.ADDITIVE_UP) == -math.inf
        down = PowerControl(theta=1.0, p=2000.0, alpha=5.0)
        assert scaling_alpha_check(down, Scheme.QUADRATIC_DOWN) == math.inf
        tiny = PowerControl(theta=1.0, p=-2000.0, alpha=1.5)
        assert scaling_alpha_check(tiny, Scheme.ADDITIVE_UP) == 1.5


class TestVanishingCheck:
    @pytest.mark.parametrize(
        "phi, scheme, holds",
        [
            # up: 2^degree < rate; down: 2^degree > rate
            (ConstantControl(delta=1.0, alpha=1.0), Scheme.QUADRATIC_UP, True),
            (PowerControl(theta=1.0, p=3.0, alpha=1.0), Scheme.QUADRATIC_UP, False),
            (PowerControl(theta=1.0, p=1.0, alpha=2.0), Scheme.QUADRATIC_UP, True),
            (PowerControl(theta=1.0, p=0.5, alpha=1.5), Scheme.ADDITIVE_UP, True),
            # at the boundary the membership is constant in n, below 1
            (PowerControl(theta=1.0, p=1.0, alpha=1.0), Scheme.ADDITIVE_UP, False),
            (PowerControl(theta=1.0, p=2.0, alpha=5.0), Scheme.QUADRATIC_DOWN, False),
            (PowerControl(theta=1.0, p=3.0, alpha=5.0), Scheme.QUADRATIC_DOWN, True),
            (PowerControl(theta=1.0, p=1.0, alpha=5.0), Scheme.QUADRATIC_DOWN, False),
            (ProductControl(theta=1.0, p1=2.0, p2=-0.5, alpha=2.5), Scheme.ADDITIVE_DOWN, True),
            (ConstantControl(delta=1.0, alpha=5.0), Scheme.QUADRATIC_DOWN, False),
            (PowerControl(theta=1.0, p=2000.0, alpha=5.0), Scheme.QUADRATIC_DOWN, True),
            (PowerControl(theta=1.0, p=2000.0, alpha=1.5), Scheme.ADDITIVE_UP, False),
        ],
    )
    def test_decided_by_degree_and_rate(self, phi, scheme, holds):
        assert vanishing_check(phi, scheme) is holds

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_zero_control_vanishes_under_every_scheme(self, scheme):
        assert vanishing_check(ConstantControl(delta=0.0, alpha=1.0), scheme)
        assert vanishing_check(PowerControl(theta=0.0, p=2.0, alpha=1.0), scheme)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_non_finite_control_does_not_vanish(self, scheme, scale):
        assert not vanishing_check(ConstantControl(delta=scale, alpha=1.0), scheme)
        assert not vanishing_check(PowerControl(theta=scale, p=3.0, alpha=1.0), scheme)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_scaling_implies_vanishing(self, scheme):
        # 2^degree <= alpha < rate (up) or 2^degree >= alpha > rate (down)
        rng = np.random.default_rng(21)
        for _ in range(40):
            phi = PowerControl(
                theta=1.0, p=float(rng.uniform(-2.0, 4.0)), alpha=float(rng.uniform(0.05, 9.0))
            )
            if scheme.admits_alpha(phi.alpha) and scaling_alpha_check(phi, scheme) >= 0.0:
                assert vanishing_check(phi, scheme), (scheme, phi)


QUADRATIC_UP = (Scheme.QUADRATIC_UP,)
ADDITIVE_UP = (Scheme.ADDITIVE_UP,)


class TestEnvelope:
    def test_constant_control_all_entries_equal(self):
        phi = ConstantControl(delta=1.0, alpha=1.0)
        # threshold 2 (4 - 1) / 6 = 1
        assert envelope(QUADRATIC_UP, phi, V(2.0), 2.0) == 0.5

    def test_power_control_entries_enumerated(self):
        # phi(x/3, w) = ||x/3|| + ||w|| over w in {x/3, x, 4x/3, -2x/3, 0}
        # at ||x|| = 3: entries 2, 4, 5, 3, 1; the minimum membership, at
        # the threshold 15 (4 - 2) / 6 = 5, is at 5
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        x = V(3.0)
        entries = [2.0, 4.0, 5.0, 3.0, 1.0]
        memberships = [5.0 / (5.0 + e) for e in entries]
        assert envelope(QUADRATIC_UP, phi, x, 15.0) == min(memberships) == 0.5

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_envelope_at_origin_is_one(self, scheme):
        alpha = 1.0 if scheme.is_up else 5.0
        for phi in (
            ConstantControl(delta=0.0, alpha=alpha),
            PowerControl(theta=1.0, p=2.0, alpha=alpha),
            ProductControl(theta=2.0, p1=1.0, p2=1.0, alpha=alpha),
        ):
            assert envelope((scheme,), phi, V(0.0), 1.0) == 1.0

    def test_nonpositive_threshold_gives_zero(self):
        phi = ConstantControl(delta=1.0, alpha=1.0)
        assert envelope(QUADRATIC_UP, phi, V(1.0), 0.0) == 0.0
        assert envelope(ADDITIVE_UP, phi, V(1.0), -2.0) == 0.0
        assert envelope(THEOREMS["combined"].schemes, phi, V(1.0), -2.0) == 0.0
        down = ConstantControl(delta=1.0, alpha=5.0)
        assert envelope((Scheme.QUADRATIC_DOWN,), down, V(1.0), -6.0) == 0.0

    def test_one_scheme_decides_by_its_threshold_not_by_the_level(self):
        # alpha 5 lies outside the quadratic_up interval, so a = -6 gives the
        # positive threshold -6 (4 - 5) / 6 = 1, where N'(1, 1) = 1/2
        phi = ConstantControl(delta=1.0, alpha=5.0)
        assert envelope(QUADRATIC_UP, phi, V(1.0), -6.0) == 0.5
        assert envelope(QUADRATIC_UP, phi, V(1.0), 6.0) == 0.0

    def test_monotone_in_threshold_and_in_unit_interval(self):
        phi = PowerControl(theta=0.7, p=1.5, alpha=3.0)
        x = V(1.3)
        additive_down = (Scheme.ADDITIVE_DOWN,)
        values = [envelope(additive_down, phi, x, a) for a in log_a_grid(1e-2, 1e2, 15)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(hi >= lo - 1e-12 for lo, hi in zip(values, values[1:]))

    def test_scaling_control_up_never_raises_envelope(self):
        phi1 = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        phi2 = PowerControl(theta=2.5, p=1.0, alpha=2.0)
        for a in (0.01, 1.0, 50.0):
            for x in (V(0.5), V(2.0)):
                assert envelope(QUADRATIC_UP, phi2, x, a) <= envelope(
                    QUADRATIC_UP, phi1, x, a
                )

    def test_combined_envelope_is_min_of_the_parts_at_half_the_level(self):
        phi = ConstantControl(delta=0.4, alpha=1.0)
        x, a = V(1.5), 2.0
        want = min(
            envelope(QUADRATIC_UP, phi, x, a / 2),
            envelope(ADDITIVE_UP, phi, x, a / 2),
        )
        # the parts are N'(0.4, t) at t = a (4 - 1) / 12 and a (2 - 1) / 8
        assert want == NPRIME(V(0.4), a * 1.0 / 8.0)
        assert envelope(THEOREMS["combined"].schemes, phi, x, a) == want

    # phi(u, w) = ||u||^2 + ||w||^2 at x = 3, in pair order; the entries are
    # exact and distinct, so an N' can be NaN at exactly one pair
    ENTRIES = {
        Scheme.QUADRATIC_UP: [2.0, 10.0, 17.0, 5.0, 1.0],
        Scheme.ADDITIVE_UP: [18.0, 4.5, 38.25, 22.5],
    }

    @staticmethod
    def _nan_at(bad, seen):
        def evaluate(v, a):
            seen.append(float(v[0]))
            return float("nan") if v[0] == bad else a / (a + abs(v[0]))

        return FuzzyNorm(evaluator=evaluate)

    # the level at which each scheme's threshold is 1 for alpha 1
    @pytest.mark.parametrize("scheme, a", [(Scheme.QUADRATIC_UP, 2.0), (Scheme.ADDITIVE_UP, 4.0)])
    @pytest.mark.parametrize("k", [0, 2, -1], ids=["first", "middle", "last"])
    def test_nan_membership_at_any_pair_makes_the_envelope_nan(self, scheme, a, k):
        phi = PowerControl(theta=1.0, p=2.0, alpha=1.0)
        entries = self.ENTRIES[scheme]
        seen = []
        nan_phi = replace(phi, nprime=self._nan_at(entries[k], seen))
        assert np.isnan(envelope((scheme,), nan_phi, V(3.0), a))
        assert seen == entries
        clean = envelope((scheme,), replace(phi, nprime=self._nan_at(None, [])), V(3.0), a)
        assert clean == min(1.0 / (1.0 + e) for e in entries)

    @pytest.mark.parametrize("bad", [2.0, 38.25], ids=["n1pp_part", "n3pp_part"])
    def test_nan_in_either_part_makes_the_combined_envelope_nan(self, bad):
        phi = PowerControl(theta=1.0, p=2.0, alpha=1.0)
        seen = []
        schemes = THEOREMS["combined"].schemes
        nan_phi = replace(phi, nprime=self._nan_at(bad, seen))
        assert np.isnan(envelope(schemes, nan_phi, V(3.0), 1.0))
        assert seen == self.ENTRIES[Scheme.QUADRATIC_UP] + self.ENTRIES[Scheme.ADDITIVE_UP]


def test_premise_pairs_past_the_largest_double_are_inf_without_a_warning():
    # the y of the pairs (x, 4x/3), (x, -2x/3) and (x, 2x) overflows at
    # x = 1e308; every warning fails a test
    x, ys = 1e308, [(0, 1), (1, 1), (1, 2), (4, 3), (-2, 3), (1, 3), (1.5, 1), (2, 1)]
    pairs = premise_pairs(THEOREMS["combined"], np.array([[x]]), np.random.default_rng(0))
    k = len(ys)
    assert pairs.shape == (2, k + control.BALL_PAIRS, 1)
    assert (pairs[0, :k, 0] == x).all()
    assert pairs[1, :k, 0].tolist() == [num * x / den for num, den in ys]
    assert np.isinf(pairs[1, :k, 0]).sum() == 3
    assert np.isfinite(pairs[:, k:]).all()


class TestNoPairs:
    """A (2, 0, d) array of pairs gives the defect sup 0 and the premise
    margin ``(inf, None)``, which passes."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_pair_array(self, dim):
        pairs = np.empty((2, 0, dim))
        f = TestFunction(coords=(CoordinatePoly(linear=np.ones(dim)),), dim_x=dim)
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        sup = measure_residual_sup(f, pairs)
        assert type(sup) is float and sup == 0.0
        premise = defect_premise_margin(f, phi, N, pairs, (0.1, 1.0))
        assert premise == Margin(np.inf, None) and premise.worst >= -MEMBERSHIP_SLACK


class TestVerifyStability:
    XS = [V(v) for v in (0.5, 1.0, 1.5, 2.0, -1.0)]
    A_VALUES = log_a_grid(1e-3, 1e3, 9)

    def _component(self, f, scheme=Scheme.QUADRATIC_UP):
        return ExtractedComponent(scheme=scheme, source=f)

    def test_exact_solution_yields_zero_violations(self):
        f = TestFunction.scalar(quad=1.0)
        report = verify(
            f,
            (self._component(f),),
            ConstantControl(delta=0.5, alpha=1.0),
            "quadratic_up",
            self.XS,
            self.A_VALUES,
            N,
        )
        assert report.hypothesis_ok
        assert report.violations == 0
        assert report.worst_slack >= 0.0

    @pytest.mark.parametrize(
        "theorem_id,f,scheme,phi",
        [
            (
                "quadratic_down",
                TestFunction.scalar(quad=1.0),
                Scheme.QUADRATIC_DOWN,
                PowerControl(theta=0.3, p=3.0, alpha=5.0),
            ),
            (
                "additive_down",
                TestFunction.scalar(linear=2.0),
                Scheme.ADDITIVE_DOWN,
                PowerControl(theta=0.3, p=2.0, alpha=3.0),
            ),
            (
                "additive_up",
                TestFunction.scalar(linear=2.0),
                Scheme.ADDITIVE_UP,
                ConstantControl(delta=0.1, alpha=1.0),
            ),
        ],
    )
    def test_exact_solutions_across_admissible_theorems(self, theorem_id, f, scheme, phi):
        components = (self._component(f, scheme),)
        report = verify(f, components, phi, theorem_id, self.XS, self.A_VALUES, N)
        assert report.hypothesis_ok
        assert report.violations == 0

    @pytest.mark.parametrize(
        "theorem_id, alpha, factors",
        [
            ("quadratic_up", 1.0, [(4.0 - 1.0) / 6.0]),
            ("quadratic_down", 7.0, [(7.0 - 4.0) / 6.0]),
            ("additive_up", 1.0, [(2.0 - 1.0) / 4.0]),
            ("additive_down", 3.0, [(3.0 - 2.0) / 4.0]),
            ("combined", 1.0, [(4.0 - 1.0) / 12.0, (2.0 - 1.0) / 8.0]),  # a/2 to each scheme
        ],
    )
    def test_rhs_is_the_envelope_at_the_theorem_threshold(self, theorem_id, alpha, factors):
        f = TestFunction.scalar()  # no defect, so the premise holds and every row is written
        phi = ConstantControl(delta=0.5, alpha=alpha)
        spec = THEOREMS[theorem_id]
        components = (lambda x: np.zeros_like(x),) * len(spec.schemes)
        report = verify(f, components, phi, theorem_id, self.XS, self.A_VALUES, N)
        assert report.rhs.shape == (len(self.XS), len(self.A_VALUES))
        assert np.array_equal(report.a_values, self.A_VALUES)
        for rhs_at_x in report.rhs:
            for a, rhs in zip(report.a_values, rhs_at_x):
                # a constant control's envelope is N'(delta, t) at each scheme's threshold t
                want = min(NPRIME(V(0.5), a * factor) for factor in factors)
                assert rhs == pytest.approx(want, rel=1e-12)

    def test_wrong_component_is_caught(self):
        f = TestFunction.scalar(quad=1.0)
        wrong = lambda x: 1.1 * np.asarray(x, dtype=float) ** 2
        report = verify(
            f,
            (wrong,),
            ConstantControl(delta=1e-9, alpha=1.0),
            "quadratic_up",
            self.XS,
            self.A_VALUES,
            N,
        )
        assert report.violations > 0
        assert report.worst_slack < -1e-12

    def test_unsatisfied_premise_blocks_assertion(self):
        f = TestFunction.scalar(
            quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=10.0),)
        )
        report = verify(
            f,
            (self._component(f),),
            ConstantControl(delta=1e-3, alpha=1.0),
            "quadratic_up",
            self.XS,
            self.A_VALUES,
            N,
        )
        assert not report.hypothesis_ok
        assert report.lhs.shape == report.rhs.shape == (0, len(self.A_VALUES))
        assert "hypothesis not satisfied" in report.note

    def test_constant_control_bound_has_classic_closed_form(self):
        # with induced norms and constant delta the envelope threshold at
        # level a is t = a (4 - alpha) / 6 and the bound reads t / (t + delta)
        delta, alpha = 0.25, 1.0
        phi = ConstantControl(delta=delta, alpha=alpha)
        for a in self.A_VALUES:
            t = a * (4.0 - alpha) / 6.0
            want = t / (t + delta)
            got = envelope(QUADRATIC_UP, phi, V(1.7), a)
            assert got == pytest.approx(want, abs=1e-15)

    def test_auto_delta_satisfies_premise_by_construction(self):
        f = TestFunction.scalar(
            quad=1.0, perturbations=(Perturbation(shape="cos", amplitude=0.01),)
        )
        rng = np.random.default_rng(5)
        pairs = premise_pairs(THEOREMS["quadratic_up"], self.XS, rng)
        delta = measure_residual_sup(f, pairs)
        assert delta > 0
        worst, _ = defect_premise_margin(
            f, ConstantControl(delta=delta, alpha=1.0), N, pairs, self.A_VALUES
        )
        assert worst >= 0.0

    @pytest.mark.parametrize("order", [1, -1])
    def test_nan_defect_makes_the_sup_nan_in_any_order(self, order):
        # the defect of x^2 at (1e160, 1e160) is inf - inf; a sup that keeps
        # a NaN only when it comes first would depend on the pair order
        pairs = stacked((V(1.0), V(1.0)), (V(1e160), V(1e160)))[:, ::order]
        # a crisp norm, and a plain callable that maps stacks
        for norm in (euclidean_norm, lambda v: np.linalg.norm(v, axis=-1)):
            with np.errstate(over="ignore", invalid="ignore"):
                sup = measure_residual_sup(TestFunction.scalar(quad=1.0), pairs, norm=norm)
            assert np.isnan(sup)

    def test_a_norm_that_does_not_map_stacks_is_refused(self):
        # one number for a whole stack would pass for the sup of its rows
        whole = lambda v: float(np.linalg.norm(v))
        f = TestFunction.scalar(quad=1.0)
        pairs = stacked((V(1.0), V(2.0)), (V(3.0), V(-1.0)))
        for check in (
            lambda: measure_residual_sup(f, pairs, norm=whole),
            lambda: PowerControl(theta=1.0, p=2.0, alpha=1.0, norm=whole).rows(pairs),
            lambda: ProductControl(theta=1.0, p1=1.0, p2=1.0, alpha=1.0, norm=whole).rows(pairs),
        ):
            with pytest.raises(ValueError, match=r"must map \(\.\.\., d\) to \(\.\.\.\)"):
                check()

    def test_non_finite_premise_margin_is_a_violation(self):
        f = TestFunction.scalar(quad=1.0)
        pairs = stacked((V(1.0), V(0.5)), (V(2.0), V(-1.0)))
        phi = ConstantControl(delta=1.0, alpha=1.0, nprime=NAN_NORM)
        worst, (x, y, a) = defect_premise_margin(f, phi, N, pairs, (0.1, 1.0))
        assert worst == -np.inf
        assert (x.tobytes(), y.tobytes(), a) == (V(1.0).tobytes(), V(0.5).tobytes(), 0.1)
        report = verify(f, (self._component(f),), phi, "quadratic_up", self.XS, self.A_VALUES, N)
        assert not report.hypothesis_ok and report.lhs.shape[0] == 0

    def test_a_pair_whose_phi_is_not_finite_is_a_violation(self):
        # the defect of a line is 0 at every pair, and phi = |x|^2 + |y|^2
        # overflows at the second pair only: N'(inf, a) = 0 no longer passes
        # that pair, whose first cell is the witness at -inf
        f = TestFunction.scalar(linear=1.0)
        pairs = stacked((V(1.0), V(0.5)), (V(1e200), V(-1.0)), (V(2.0), V(3.0)))
        phi = PowerControl(theta=1.0, p=2.0, alpha=1.0)
        worst, (x, y, a) = defect_premise_margin(f, phi, N, pairs, (0.1, 1.0))
        assert worst == -np.inf
        assert (x.tobytes(), y.tobytes(), a) == (V(1e200).tobytes(), V(-1.0).tobytes(), 0.1)

    def test_non_finite_slack_is_a_violation(self):
        f = TestFunction.scalar(quad=1.0)
        report = verify(
            f,
            (lambda x: np.full_like(x, np.nan),),
            ConstantControl(delta=0.5, alpha=1.0),
            "quadratic_up",
            self.XS,
            self.A_VALUES,
            N,
        )
        assert report.hypothesis_ok
        assert report.lhs.shape == (len(self.XS), len(self.A_VALUES))
        assert report.violations == report.lhs.size
        assert report.worst_slack == -np.inf

    def test_report_carries_repair_disclosures(self):
        f = TestFunction.scalar(linear=1.0)
        report = verify(
            f,
            (self._component(f, Scheme.ADDITIVE_UP),),
            ConstantControl(delta=0.5, alpha=1.0),
            "additive_up",
            self.XS,
            self.A_VALUES,
            N,
        )
        assert "additive_envelope_pair" in report.repairs

    def test_infinite_slack_is_a_violation(self):
        # lhs is +inf wherever the error exceeds 0.5, so the slack is +inf:
        # not finite, hence a violation, though it is above -slack
        inf_norm = FuzzyNorm(
            evaluator=lambda v, a: np.inf if np.max(np.abs(v)) > 0.5 else a / (a + np.max(np.abs(v)))
        )
        f = TestFunction.scalar(quad=1.0)
        xs, a_values = [V(0.5), V(1.0), V(-2.0)], (0.1, 1.0)
        report = verify(
            f,
            (lambda x: np.asarray(x, dtype=float) ** 2 + 1.0,),
            ConstantControl(delta=0.5, alpha=1.0),
            "quadratic_up",
            xs,
            a_values,
            inf_norm,
        )
        assert report.hypothesis_ok
        assert report.slack.shape == (3, 2) and np.all(report.slack == np.inf)
        assert report.violations == 6
        assert report.worst_slack == -np.inf

    def test_infinite_lhs_and_rhs_make_a_quiet_nan_violation(self, tmp_path):
        # N and N' are inf everywhere, so every slack is inf - inf: NaN, a
        # violation, with no RuntimeWarning (every warning fails a test)
        inf_norm = FuzzyNorm(evaluator=lambda v, a: np.inf)
        f = TestFunction.scalar(quad=1.0)
        xs = [V(0.5), V(-1.0)]
        report = verify_stability(
            f,
            (lambda x: np.asarray(x, dtype=float) ** 2,),
            ConstantControl(delta=0.5, nprime=inf_norm),
            "quadratic_up",
            xs,
            (0.1, 1.0),
            inf_norm,
            premise_margin=Margin(0.0, None),  # on inf - inf the premise check gates the bound
        )
        assert report.hypothesis_ok
        assert report.slack.shape == (2, 2) and np.isnan(report.slack).all()
        assert (report.violations, report.worst_slack) == (4, -np.inf)
        run = RunReport(
            seed=0, stages=("verification",), verification_reports=(report,), x_norms=(0.5, 1.0)
        )
        emit_report(run, "csv", tmp_path)
        lines = (tmp_path / "verification.csv").read_text().splitlines()
        assert lines[1] == "quadratic_up,0,0.5,0.10000000000000001,inf,inf,nan"
        assert len(lines) == 5 and all(line.endswith(",inf,inf,nan") for line in lines[1:])

    def test_gated_note_names_the_witness_threshold(self):
        f = TestFunction.scalar(
            quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=10.0),)
        )
        phi = ConstantControl(delta=1e-3, alpha=1.0)
        margin = seeded_margin(f, phi, "quadratic_up", self.XS, self.A_VALUES, N)
        worst, (_, _, a) = margin
        report = verify_stability(
            f,
            (self._component(f),),
            phi,
            "quadratic_up",
            self.XS,
            self.A_VALUES,
            N,
            premise_margin=margin,
        )
        assert not report.hypothesis_ok
        assert f"by {-worst:.3e} at a={a:g} (bound not asserted)" in report.note
