"""Control families, envelopes, scaling/vanishing checks, bound verification."""

import re

import numpy as np
import pytest

from fuzzystab.control import (
    ConstantControl,
    Margin,
    PowerControl,
    ProductControl,
    _pairs_at,
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
from fuzzystab.spaces import MEMBERSHIP_SLACK, FuzzyNorm, euclidean_norm, log_a_grid

V = lambda *vals: np.array([float(v) for v in vals])
NPRIME = FuzzyNorm.induced()
N = FuzzyNorm.induced()
NAN_NORM = FuzzyNorm(evaluator=lambda x, a: float("nan"))
A_GRID = log_a_grid()


def stacked(*pairs):
    """The pairs (x, y) as one (2, k, d) array, the layout the checks take."""
    return np.array([[x for x, _ in pairs], [y for _, y in pairs]])


def y_set_pairs(scheme, xs):
    """The pairs (x, y) of the y-set of the scheme's own theorem at each x."""
    theorem = "quadratic_up" if scheme.is_quadratic else "additive_up"
    return _pairs_at(THEOREMS[theorem].y_set, np.asarray(xs, dtype=float))


def scaling(phi, scheme, xs, nprime=NPRIME, a_grid=A_GRID):
    """The scaling check on the scheme's y-set at the points xs."""
    return scaling_alpha_check(phi, scheme, nprime, y_set_pairs(scheme, xs), a_grid)


def seeded_margin(f, phi, theorem_id, xs, a_values, N, nprime):
    """The defect premise margin on the pairs a generator seeded 0 draws from xs."""
    pairs = premise_pairs(THEOREMS[theorem_id], xs, np.random.default_rng(0))
    return defect_premise_margin(f, phi, N, nprime, pairs, a_values)


def verify(f, components, phi, theorem_id, xs, a_values, N, nprime):
    """verify_stability gated by the seeded margin of the same arguments."""
    margin = seeded_margin(f, phi, theorem_id, xs, a_values, N, nprime)
    return verify_stability(
        f, components, phi, theorem_id, xs, a_values, N, nprime, premise_margin=margin
    )


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


class TestScalingAlphaCheck:
    XS = [V(0.5), V(1.0), V(2.5), V(-1.5)]

    def test_constant_control_scale_invariant(self):
        phi = ConstantControl(delta=2.0, alpha=1.0)
        assert scaling(phi, Scheme.QUADRATIC_UP, self.XS).worst >= -MEMBERSHIP_SLACK

    def test_degree_one_power_admits_alpha_two(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        assert scaling(phi, Scheme.QUADRATIC_UP, self.XS).worst >= -MEMBERSHIP_SLACK

    def test_degree_one_power_rejects_alpha_below_two(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=1.5)
        res = scaling(phi, Scheme.QUADRATIC_UP, self.XS)
        assert res.worst < -MEMBERSHIP_SLACK
        assert res.witness is not None

    def test_alpha_outside_scheme_interval_rejected_with_reason(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=5.0)
        reason = "alpha out of range (0,4) for quadratic_up"
        with pytest.raises(ValueError, match=re.escape(reason)):
            scaling(phi, Scheme.QUADRATIC_UP, self.XS)

    def test_down_scheme_accepts_high_degree(self):
        phi = PowerControl(theta=0.5, p=3.0, alpha=5.0)
        assert scaling(phi, Scheme.QUADRATIC_DOWN, self.XS).worst >= -MEMBERSHIP_SLACK

    def test_down_scheme_rejects_low_degree(self):
        phi = PowerControl(theta=0.5, p=1.0, alpha=5.0)
        assert scaling(phi, Scheme.QUADRATIC_DOWN, self.XS).worst < -MEMBERSHIP_SLACK

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_grid_verdict_matches_analytic_criterion(self, scheme):
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
                    scaling(phi, scheme, self.XS)
                continue
            analytic = 2.0**p <= alpha if scheme.is_up else 2.0**p >= alpha
            got = scaling(phi, scheme, self.XS).worst >= -MEMBERSHIP_SLACK
            assert got == analytic, (scheme, p, alpha)

    def test_non_finite_margin_fails_at_first_cell(self):
        phi = ConstantControl(delta=1.0, alpha=1.0)
        res = scaling(phi, Scheme.QUADRATIC_UP, self.XS, nprime=NAN_NORM, a_grid=(0.5, 2.0))
        assert res.worst == -np.inf
        x, y, a = res.witness
        assert x.tobytes() == self.XS[0].tobytes() and not np.any(y) and a == 0.5

    def test_witness_is_the_worst_sample_point(self):
        # degree 2 against alpha 2: doubling the arguments gives 4 phi, so
        # the worst margin is N'(4 phi, a) - N'(2 phi, a) at the witness
        phi = PowerControl(theta=1.0, p=2.0, alpha=2.0)
        res = scaling(phi, Scheme.QUADRATIC_UP, self.XS)
        x, y, a = res.witness
        assert any(x.tobytes() == xs.tobytes() for xs in self.XS)
        u = x / 3.0
        value = eval_control(phi, u, y)
        want = a / (a + 4.0 * value) - a / (a + 2.0 * value)
        assert res.worst == pytest.approx(want, rel=1e-12) and res.worst < -0.1


class TestVanishingCheck:
    PAIRS = stacked((V(1.0), V(0.5)), (V(-2.0), V(1.0)), (V(0.3), V(0.9)))

    def probe(self, phi, scheme, n_probe=30, nprime=NPRIME):
        return vanishing_check(phi, scheme, nprime, self.PAIRS, n_probe, A_GRID)

    def test_constant_control_vanishes_under_quadratic_rescaling(self):
        # closed form at n = 30: membership 4^30 a / (4^30 a + 1) -> 1
        a = 1e-3
        assert 4.0**30 * a / (4.0**30 * a + 1.0) > 1 - 0.01
        phi = ConstantControl(delta=1.0, alpha=1.0)
        margin = self.probe(phi, Scheme.QUADRATIC_UP)
        assert margin.worst > 0
        # the least membership is at the smallest a
        assert margin.worst == 4.0**30 * a / (4.0**30 * a + 1.0) - (1 - 0.01)
        assert margin.witness[2] == A_GRID[0]

    def test_cubic_growth_outruns_quadratic_rescaling(self):
        phi = PowerControl(theta=1.0, p=3.0, alpha=1.0)
        assert self.probe(phi, Scheme.QUADRATIC_UP).worst <= 0

    def test_boundary_degree_membership_stalls_below_one(self):
        # degree 1 under the additive rescaling: membership is constant in n
        # and stays below 1, so the probe reports failure
        phi = PowerControl(theta=1.0, p=1.0, alpha=1.0)
        assert self.probe(phi, Scheme.ADDITIVE_UP).worst <= 0

    def test_degree_one_vanishes_under_quadratic_rescaling(self):
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        assert self.probe(phi, Scheme.QUADRATIC_UP).worst > 0

    def test_down_scheme_vanishing_for_high_degree(self):
        phi = PowerControl(theta=1.0, p=3.0, alpha=5.0)
        assert self.probe(phi, Scheme.QUADRATIC_DOWN).worst > 0
        low = PowerControl(theta=1.0, p=1.0, alpha=5.0)
        assert self.probe(low, Scheme.QUADRATIC_DOWN).worst <= 0

    def test_overflowed_rescaled_value_has_membership_zero(self):
        # 4^600 phi overflows to inf: membership 0, a failed probe, not an error
        phi = ConstantControl(delta=1.0, alpha=5.0)
        assert self.probe(phi, Scheme.QUADRATIC_DOWN, n_probe=600).worst == 0.0 - (1 - 0.01)

    def test_non_finite_membership_fails(self):
        phi = ConstantControl(delta=1.0, alpha=1.0)
        margin = self.probe(phi, Scheme.QUADRATIC_UP, nprime=NAN_NORM)
        assert margin.worst == -np.inf
        x, y, a = margin.witness
        assert (x.tobytes(), y.tobytes(), a) == (V(1.0).tobytes(), V(0.5).tobytes(), A_GRID[0])

    def test_membership_equal_to_one_minus_tol_fails(self):
        # the probe needs every membership strictly above 1 - tol: one
        # quadratic step takes a = 0.99 / 4 to 0.99, and with phi = 0.01 the
        # membership 0.99 / (0.99 + 0.01) is 1 - 0.01 exactly
        phi = ConstantControl(delta=0.01, alpha=1.0)
        pairs = stacked((V(1.0), V(1.0)))
        margin = vanishing_check(phi, Scheme.QUADRATIC_UP, NPRIME, pairs, 1, (0.99 / 4,))
        assert 0.99 / (0.99 + 0.01) == 1 - 0.01
        assert margin.worst == 0.0


QUADRATIC_UP = (Scheme.QUADRATIC_UP,)
ADDITIVE_UP = (Scheme.ADDITIVE_UP,)


class TestEnvelope:
    def test_constant_control_all_entries_equal(self):
        phi = ConstantControl(delta=1.0, alpha=1.0)
        # threshold 2 (4 - 1) / 6 = 1
        assert envelope(QUADRATIC_UP, phi, NPRIME, V(2.0), 2.0) == 0.5

    def test_power_control_entries_enumerated(self):
        # phi(x/3, w) = ||x/3|| + ||w|| over w in {x/3, x, 4x/3, -2x/3, 0}
        # at ||x|| = 3: entries 2, 4, 5, 3, 1; the minimum membership, at
        # the threshold 15 (4 - 2) / 6 = 5, is at 5
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        x = V(3.0)
        entries = [2.0, 4.0, 5.0, 3.0, 1.0]
        memberships = [5.0 / (5.0 + e) for e in entries]
        assert envelope(QUADRATIC_UP, phi, NPRIME, x, 15.0) == min(memberships) == 0.5

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_envelope_at_origin_is_one(self, scheme):
        alpha = 1.0 if scheme.is_up else 5.0
        for phi in (
            ConstantControl(delta=0.0, alpha=alpha),
            PowerControl(theta=1.0, p=2.0, alpha=alpha),
            ProductControl(theta=2.0, p1=1.0, p2=1.0, alpha=alpha),
        ):
            assert envelope((scheme,), phi, NPRIME, V(0.0), 1.0) == 1.0

    def test_nonpositive_threshold_gives_zero(self):
        phi = ConstantControl(delta=1.0, alpha=1.0)
        assert envelope(QUADRATIC_UP, phi, NPRIME, V(1.0), 0.0) == 0.0
        assert envelope(ADDITIVE_UP, phi, NPRIME, V(1.0), -2.0) == 0.0
        assert envelope(THEOREMS["combined"].schemes, phi, NPRIME, V(1.0), -2.0) == 0.0
        down = ConstantControl(delta=1.0, alpha=5.0)
        assert envelope((Scheme.QUADRATIC_DOWN,), down, NPRIME, V(1.0), -6.0) == 0.0

    def test_one_scheme_decides_by_its_threshold_not_by_the_level(self):
        # alpha 5 lies outside the quadratic_up interval, so a = -6 gives the
        # positive threshold -6 (4 - 5) / 6 = 1, where N'(1, 1) = 1/2
        phi = ConstantControl(delta=1.0, alpha=5.0)
        assert envelope(QUADRATIC_UP, phi, NPRIME, V(1.0), -6.0) == 0.5
        assert envelope(QUADRATIC_UP, phi, NPRIME, V(1.0), 6.0) == 0.0

    def test_monotone_in_threshold_and_in_unit_interval(self):
        phi = PowerControl(theta=0.7, p=1.5, alpha=3.0)
        x = V(1.3)
        additive_down = (Scheme.ADDITIVE_DOWN,)
        values = [envelope(additive_down, phi, NPRIME, x, a) for a in log_a_grid(1e-2, 1e2, 15)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(hi >= lo - 1e-12 for lo, hi in zip(values, values[1:]))

    def test_scaling_control_up_never_raises_envelope(self):
        phi1 = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        phi2 = PowerControl(theta=2.5, p=1.0, alpha=2.0)
        for a in (0.01, 1.0, 50.0):
            for x in (V(0.5), V(2.0)):
                assert envelope(QUADRATIC_UP, phi2, NPRIME, x, a) <= envelope(
                    QUADRATIC_UP, phi1, NPRIME, x, a
                )

    def test_combined_envelope_is_min_of_the_parts_at_half_the_level(self):
        phi = ConstantControl(delta=0.4, alpha=1.0)
        x, a = V(1.5), 2.0
        want = min(
            envelope(QUADRATIC_UP, phi, NPRIME, x, a / 2),
            envelope(ADDITIVE_UP, phi, NPRIME, x, a / 2),
        )
        # the parts are N'(0.4, t) at t = a (4 - 1) / 12 and a (2 - 1) / 8
        assert want == NPRIME(V(0.4), a * 1.0 / 8.0)
        assert envelope(THEOREMS["combined"].schemes, phi, NPRIME, x, a) == want

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
        assert np.isnan(envelope((scheme,), phi, self._nan_at(entries[k], seen), V(3.0), a))
        assert seen == entries
        clean = envelope((scheme,), phi, self._nan_at(None, []), V(3.0), a)
        assert clean == min(1.0 / (1.0 + e) for e in entries)

    @pytest.mark.parametrize("bad", [2.0, 38.25], ids=["n1pp_part", "n3pp_part"])
    def test_nan_in_either_part_makes_the_combined_envelope_nan(self, bad):
        phi = PowerControl(theta=1.0, p=2.0, alpha=1.0)
        seen = []
        schemes = THEOREMS["combined"].schemes
        assert np.isnan(envelope(schemes, phi, self._nan_at(bad, seen), V(3.0), 1.0))
        assert seen == self.ENTRIES[Scheme.QUADRATIC_UP] + self.ENTRIES[Scheme.ADDITIVE_UP]


class TestNoPairs:
    """No sample points, or a (2, 0, d) array of pairs, give every check the
    margin ``(inf, None)``, which passes."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("dim", [1, 3])
    def test_no_sample_points_pass_the_scaling_check(self, scheme, dim):
        good, bad = (1.0, 5.0) if scheme.admits_alpha(1.0) else (5.0, 1.0)
        res = scaling(PowerControl(theta=1.0, p=1.0, alpha=good), scheme, np.empty((0, dim)))
        assert res == Margin(np.inf, None) and res.worst >= -MEMBERSHIP_SLACK
        # an inadmissible alpha is rejected before any pair is looked at
        with pytest.raises(ValueError, match="alpha out of range"):
            scaling(PowerControl(theta=1.0, p=1.0, alpha=bad), scheme, np.empty((0, dim)))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_pair_array(self, dim):
        pairs = np.empty((2, 0, dim))
        f = TestFunction(coords=(CoordinatePoly(linear=np.ones(dim)),), dim_x=dim)
        phi = PowerControl(theta=1.0, p=1.0, alpha=2.0)
        vanishing = vanishing_check(phi, Scheme.QUADRATIC_UP, NPRIME, pairs, 30, A_GRID)
        assert vanishing == Margin(np.inf, None) and vanishing.worst > 0
        sup = measure_residual_sup(f, pairs)
        assert type(sup) is float and sup == 0.0
        premise = defect_premise_margin(f, phi, N, NPRIME, pairs, (0.1, 1.0))
        assert premise == Margin(np.inf, None) and premise.worst >= -MEMBERSHIP_SLACK
        scaled = scaling_alpha_check(phi, Scheme.QUADRATIC_UP, NPRIME, pairs, A_GRID)
        assert scaled == Margin(np.inf, None)


class TestVerifyStability:
    XS = [V(v) for v in (0.5, 1.0, 1.5, 2.0, -1.0)]
    A_VALUES = log_a_grid(1e-3, 1e3, 9)

    def _component(self, f, scheme=Scheme.QUADRATIC_UP):
        return ExtractedComponent(scheme=scheme, source=f, tol=1e-9, n_max=40)

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
            NPRIME,
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
        report = verify(
            f, (self._component(f, scheme),), phi, theorem_id, self.XS, self.A_VALUES, N, NPRIME
        )
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
        report = verify(
            f, components, phi, theorem_id, self.XS, self.A_VALUES, N, NPRIME
        )
        assert len(report.rows) == len(self.XS) * len(self.A_VALUES)
        for row in report.rows:
            # a constant control's envelope is N'(delta, t) at each scheme's threshold t
            want = min(NPRIME(V(0.5), row.a * factor) for factor in factors)
            assert row.rhs == pytest.approx(want, rel=1e-12)

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
            NPRIME,
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
            NPRIME,
        )
        assert not report.hypothesis_ok
        assert report.rows == ()
        assert "hypothesis not satisfied" in report.note

    def test_constant_control_bound_has_classic_closed_form(self):
        # with induced norms and constant delta the envelope threshold at
        # level a is t = a (4 - alpha) / 6 and the bound reads t / (t + delta)
        delta, alpha = 0.25, 1.0
        phi = ConstantControl(delta=delta, alpha=alpha)
        for a in self.A_VALUES:
            t = a * (4.0 - alpha) / 6.0
            want = t / (t + delta)
            got = envelope(QUADRATIC_UP, phi, NPRIME, V(1.7), a)
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
            f, ConstantControl(delta=delta, alpha=1.0), N, NPRIME, pairs, self.A_VALUES
        )
        assert worst >= 0.0

    @pytest.mark.parametrize("order", [1, -1])
    def test_nan_defect_makes_the_sup_nan_in_any_order(self, order):
        # the defect of x^2 at (1e160, 1e160) is inf - inf; a sup that keeps
        # a NaN only when it comes first would depend on the pair order
        pairs = stacked((V(1.0), V(1.0)), (V(1e160), V(1e160)))[:, ::order]
        # the crisp norm's row form, and a plain callable normed row by row
        for norm in (euclidean_norm, lambda v: float(np.linalg.norm(v))):
            with np.errstate(over="ignore", invalid="ignore"):
                sup = measure_residual_sup(TestFunction.scalar(quad=1.0), pairs, norm=norm)
            assert np.isnan(sup)

    def test_non_finite_premise_margin_is_a_violation(self):
        f = TestFunction.scalar(quad=1.0)
        pairs = stacked((V(1.0), V(0.5)), (V(2.0), V(-1.0)))
        phi = ConstantControl(delta=1.0, alpha=1.0)
        worst, (x, y, a) = defect_premise_margin(f, phi, N, NAN_NORM, pairs, (0.1, 1.0))
        assert worst == -np.inf
        assert (x.tobytes(), y.tobytes(), a) == (V(1.0).tobytes(), V(0.5).tobytes(), 0.1)
        report = verify(
            f, (self._component(f),), phi, "quadratic_up", self.XS, self.A_VALUES, N, NAN_NORM
        )
        assert not report.hypothesis_ok and report.rows == ()

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
            NPRIME,
        )
        assert report.hypothesis_ok
        assert report.violations == len(report.rows) == len(self.XS) * len(self.A_VALUES)
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
            NPRIME,
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
            NPRIME,
        )
        assert report.hypothesis_ok
        assert all(row.slack == np.inf for row in report.rows)
        assert report.violations == len(report.rows) == 6
        assert report.worst_slack == -np.inf

    def test_gated_note_names_the_witness_threshold(self):
        f = TestFunction.scalar(
            quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=10.0),)
        )
        phi = ConstantControl(delta=1e-3, alpha=1.0)
        margin = seeded_margin(f, phi, "quadratic_up", self.XS, self.A_VALUES, N, NPRIME)
        worst, (_, _, a) = margin
        report = verify_stability(
            f,
            (self._component(f),),
            phi,
            "quadratic_up",
            self.XS,
            self.A_VALUES,
            N,
            NPRIME,
            premise_margin=margin,
        )
        assert not report.hypothesis_ok
        assert f"by {-worst:.3e} at a={a:g} (bound not asserted)" in report.note
