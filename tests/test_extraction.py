"""Rescaling schemes: iterates, limits, component extraction, uniqueness."""

import math

import numpy as np
import pytest

from fuzzystab.errors import ScaleError
from fuzzystab.extraction import (
    MAX_STEPS,
    ExtractionConfig,
    Scheme,
    extract_components,
    extract_limit,
    iterate,
    uniqueness_crosscheck,
)
from fuzzystab.funceq import (
    Perturbation,
    TestFunction,
    residual_additive,
    residual_quadratic,
)

V = lambda *vals: np.array([float(v) for v in vals])

SQUARE = TestFunction.scalar(quad=1.0)
LINE = TestFunction.scalar(linear=1.0)
SQUARE_SIN = TestFunction.scalar(
    quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),)
)


class TestIterate:
    def test_exact_quadratic_is_fixed_point(self):
        for n in (0, 1, 5, 20):
            assert iterate(Scheme.QUADRATIC_UP, SQUARE, V(1), n)[0] == 1.0
            assert iterate(Scheme.QUADRATIC_DOWN, SQUARE, V(1), n)[0] == 1.0

    def test_perturbed_quadratic_iterate_closed_form(self):
        # f(2^5)/4^5 = 1 + sin(32)/1024, evaluated directly as the oracle
        f = TestFunction.scalar(quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=1.0),))
        want = 1.0 + math.sin(32.0) / 1024.0
        got = iterate(Scheme.QUADRATIC_UP, f, V(1), 5)[0]
        assert got == pytest.approx(want, abs=0)
        assert got == pytest.approx(1.0005385, abs=1e-7)

    def test_additive_part_decays_under_quadratic_scheme(self):
        got = iterate(Scheme.QUADRATIC_UP, LINE, V(1), 10)[0]
        assert got == 2.0**10 / 4.0**10
        assert got == pytest.approx(9.7656e-4, rel=1e-4)

    def test_additive_schemes(self):
        f = TestFunction.scalar(linear=3.0)
        assert iterate(Scheme.ADDITIVE_UP, f, V(2), 7)[0] == 6.0
        assert iterate(Scheme.ADDITIVE_DOWN, f, V(2), 7)[0] == 6.0

    def test_overflow_guard_names_offending_step(self):
        f = SQUARE
        with pytest.raises(ScaleError) as err:
            iterate(Scheme.QUADRATIC_UP, f, V(1e100), 200)
        assert err.value.n == 200
        assert "n=200" in str(err.value)
        assert err.value.scheme == "quadratic_up"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            iterate(Scheme.QUADRATIC_UP, SQUARE, V(1), -1)


class TestExtractLimit:
    def test_perturbed_quadratic_converges_to_square(self):
        r = extract_limit(Scheme.QUADRATIC_UP, SQUARE_SIN, V(1), tol=1e-9, n_max=40)
        assert r.converged
        assert abs(r.limit_value[0] - 1.0) <= 1e-9
        assert 0.15 <= r.ratio_estimate <= 0.35

    def test_perturbed_linear_converges_under_additive_scheme(self):
        # The stop at step n leaves |limit - 2| = 0.1 |sin(2^n)| / 2^n <= 0.1 / 2^n,
        # with n >= 20 for tol 1e-9, hence a 1e-7 cap.
        f = TestFunction.scalar(linear=2.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),))
        r = extract_limit(Scheme.ADDITIVE_UP, f, V(1), tol=1e-9, n_max=40)
        assert r.converged
        assert r.n_used >= 20
        assert abs(r.limit_value[0] - 2.0) <= 0.1 / 2.0**r.n_used * 2
        assert abs(r.limit_value[0] - 2.0) <= 1e-7
        assert 0.35 <= r.ratio_estimate <= 0.65

    def test_exact_quadratic_converges_immediately_under_down_scheme(self):
        r = extract_limit(Scheme.QUADRATIC_DOWN, SQUARE, V(1), tol=1e-9, n_max=40)
        assert r.converged
        assert r.n_used == 1
        assert r.limit_value[0] == 1.0
        assert r.ratio_estimate == 0.0

    def test_stop_rule_is_relative_successive_difference(self):
        r = extract_limit(Scheme.QUADRATIC_UP, SQUARE_SIN, V(1), tol=1e-9, n_max=40)
        values = dict(r.iterates)
        gap = np.linalg.norm(values[r.n_used] - values[r.n_used - 1])
        assert gap <= 1e-9 * (1.0 + np.linalg.norm(r.limit_value))

    def test_annihilation_of_additive_part_with_exact_half_ratio(self):
        r = extract_limit(Scheme.QUADRATIC_UP, LINE, V(1), tol=1e-9, n_max=40)
        assert r.converged
        assert abs(r.limit_value[0]) <= 1e-8
        assert r.ratio_estimate == 0.5

    def test_quadratic_part_diverges_under_additive_scheme(self):
        r = extract_limit(Scheme.ADDITIVE_UP, SQUARE, V(1), tol=1e-9, n_max=40)
        assert not r.converged
        assert r.ratio_estimate == 2.0

    def test_nonconvergence_is_a_result_not_an_error(self):
        r = extract_limit(Scheme.ADDITIVE_UP, SQUARE, V(1), tol=1e-9, n_max=5)
        assert not r.converged
        assert r.n_used == 5

    def test_ratio_estimate_in_unit_interval_when_converged(self):
        for x in np.linspace(0.5, 3.0, 7):
            r = extract_limit(Scheme.QUADRATIC_UP, SQUARE_SIN, V(x), tol=1e-9, n_max=40)
            assert r.converged
            assert 0.0 <= r.ratio_estimate < 1.0

    def test_down_scheme_underflow_stops_with_current_value(self):
        # constant term blows up under the down-scheme, so the stop rule never
        # fires and the shrinking argument trips the denormal guard instead
        f = TestFunction.scalar(quad=1.0, const=1.0)
        r = extract_limit(Scheme.QUADRATIC_DOWN, f, V(1e-135), tol=1e-9, n_max=40)
        assert r.stopped_reason != ""
        assert not r.converged
        assert np.isfinite(r.limit_value).all()


    @pytest.mark.parametrize("x,n", [(1.2, 1), (1.9, 0)])
    def test_non_finite_iterate_stops_unconverged(self, x, n):
        # 1e308 x^2 is finite at 1.2 and overflows at 2.4 (n=1) and at 1.9 (n=0)
        f = TestFunction.scalar(quad=1e308)
        with np.errstate(over="ignore"):
            r = extract_limit(Scheme.QUADRATIC_UP, f, V(x), tol=1e-9, n_max=40)
        assert not r.converged
        assert r.n_used == n
        assert r.stopped_reason == f"non-finite iterate at n={n}"
        assert r.limit_value[0] == math.inf
        assert [k for k, _ in r.iterates] == list(range(n + 1))

    @pytest.mark.parametrize(
        "scheme,limit",
        [
            # the difference 1e200 overflows the norm: 2e200, 4e200, ... diverges
            (Scheme.ADDITIVE_UP, 2e200),
            # a bitwise fixed point, but its own norm overflows
            (Scheme.QUADRATIC_UP, 1e200),
        ],
    )
    def test_overflowing_norm_stops_unconverged(self, scheme, limit):
        with np.errstate(over="ignore"):
            r = extract_limit(scheme, TestFunction.scalar(quad=1e200), V(1), tol=1e-9, n_max=40)
        assert not r.converged
        assert r.n_used == 1
        assert r.stopped_reason == "iterate norm overflows at n=1"
        assert r.limit_value[0] == limit
        assert r.ratio_estimate == 0.0

    def test_n_max_bounds(self):
        for n_max in (1, MAX_STEPS + 1):
            with pytest.raises(ValueError, match="n_max"):
                extract_limit(Scheme.QUADRATIC_UP, SQUARE, V(1), n_max=n_max)

    def test_source_must_map_stacked_points_row_by_row(self):
        # a scalar-valued source would turn the stack of iterates into one vector
        with pytest.raises(ValueError, match="row by row"):
            extract_limit(Scheme.QUADRATIC_UP, lambda v: np.sum(v * v, axis=-1), V(1))


class TestFixedPointProperty:
    def test_exact_quadratic_iterates_bitwise_stable(self):
        rng = np.random.default_rng(11)
        quad = rng.normal(size=(2, 2))
        quad = (quad + quad.T) / 2
        from fuzzystab.funceq import CoordinatePoly

        f = TestFunction(coords=(CoordinatePoly(quad=quad),), dim_x=2)
        x = rng.normal(size=2)
        fx = f(x)
        for n in (1, 3, 10, 25):
            up = iterate(Scheme.QUADRATIC_UP, f, x, n)
            down = iterate(Scheme.QUADRATIC_DOWN, f, x, n)
            assert np.all(np.abs(up - fx) <= 4 * np.spacing(np.abs(fx)))
            assert np.all(np.abs(down - fx) <= 4 * np.spacing(np.abs(fx)))

    def test_exact_additive_iterates_bitwise_stable(self):
        f = TestFunction.scalar(linear=-2.75)
        x = V(1.37)
        fx = f(x)
        for n in (1, 4, 16):
            up = iterate(Scheme.ADDITIVE_UP, f, x, n)
            down = iterate(Scheme.ADDITIVE_DOWN, f, x, n)
            assert np.all(np.abs(up - fx) <= 4 * np.spacing(np.abs(fx)))
            assert np.all(np.abs(down - fx) <= 4 * np.spacing(np.abs(fx)))


class TestExtractComponents:
    def test_polynomial_splits_exactly(self):
        f = TestFunction.scalar(quad=3.0, linear=2.0, const=5.0)
        cfg = ExtractionConfig(sample_xs=(V(1), V(0.5)))
        pair = extract_components(f, cfg)
        assert pair.f0[0] == 5.0
        assert abs(pair.quadratic(V(1))[0] - 3.0) <= 1e-9
        assert abs(pair.additive(V(1))[0] - 2.0) <= 1e-9
        assert pair.quadratic_converged and pair.additive_converged

    def test_odd_function_has_zero_quadratic_component(self):
        f = TestFunction.scalar(linear=2.0)
        pair = extract_components(f, ExtractionConfig(sample_xs=(V(1),)))
        assert pair.quadratic(V(1))[0] == 0.0
        assert pair.additive(V(1))[0] == 2.0
        assert pair.f0[0] == 0.0

    def test_even_perturbation_recovered_within_tolerance(self):
        f = TestFunction.scalar(
            quad=1.0, perturbations=(Perturbation(shape="cos", amplitude=0.01),)
        )
        cfg = ExtractionConfig(tol=1e-9, n_max=25, sample_xs=(V(1),))
        pair = extract_components(f, cfg)
        assert abs(pair.quadratic(V(1))[0] - 1.0) <= 1e-6
        assert abs(pair.additive(V(1))[0]) <= 1e-9

    def test_components_vanish_at_origin_exactly(self):
        f = TestFunction.scalar(quad=1.0, linear=1.0, const=2.0)
        pair = extract_components(f, ExtractionConfig())
        assert pair.quadratic(V(0))[0] == 0.0
        assert pair.additive(V(0))[0] == 0.0

    def test_component_parity_eq_and_laws(self):
        f = TestFunction.scalar(
            quad=2.0,
            linear=-1.0,
            perturbations=(
                Perturbation(shape="sin", amplitude=0.01),
                Perturbation(shape="cos", amplitude=0.01),
            ),
        )
        pair = extract_components(f, ExtractionConfig(sample_xs=(V(0.7),)))
        q, a = pair.quadratic, pair.additive
        for x in (0.4, 1.1, 2.0):
            assert abs(q(V(x))[0] - q(V(-x))[0]) <= 1e-9
            assert abs(a(V(x))[0] + a(V(-x))[0]) <= 1e-9
        for x, y in [(0.5, 0.9), (1.2, -0.4)]:
            assert residual_quadratic(q, V(x), V(y)).norm() <= 1e-6
            assert residual_additive(a, V(x), V(y)).norm() <= 1e-6

    def test_scheme_pairing_validated(self):
        with pytest.raises(ValueError):
            ExtractionConfig(quadratic_scheme=Scheme.ADDITIVE_UP)
        with pytest.raises(ValueError):
            ExtractionConfig(additive_scheme=Scheme.QUADRATIC_DOWN)


class TestUniquenessCrosscheck:
    def test_windows_agree_for_perturbed_quadratic(self):
        res = uniqueness_crosscheck(
            Scheme.QUADRATIC_UP, SQUARE_SIN, V(1), (10, 20), (21, 40), tol=1e-8
        )
        assert res
        assert res.distance <= 1e-8 * 2

    def test_exact_solution_any_windows(self):
        assert uniqueness_crosscheck(Scheme.QUADRATIC_UP, SQUARE, V(1), (2, 5), (10, 14))
        assert uniqueness_crosscheck(Scheme.QUADRATIC_UP, SQUARE, V(1), range(2, 6), range(10, 15))

    def test_unbounded_defect_reported_not_asserted(self):
        # growth faster than any bounded control; the result is reported
        wobble = lambda v: v + 0.1 * v * np.sin(np.log1p(np.abs(v)))
        res = uniqueness_crosscheck(Scheme.ADDITIVE_UP, wobble, V(1), (5, 12), (20, 30), tol=1e-10)
        assert isinstance(bool(res), bool)
        if not res:
            assert res.note != "" or res.distance > 0

    @pytest.mark.parametrize(
        "quad, note",
        [
            # 1e200 x^2 doubles each step under the additive scheme; from
            # n = 10 on its iterates are finite but their norms overflow
            (1e200, "iterate norm overflows in window ending at n=5"),
            # 1e308 x^2 overflows to inf at the first doubling
            (1e308, "non-finite iterate in window ending at n=5"),
        ],
    )
    def test_overflowing_windows_give_no_estimate(self, quad, note):
        f = TestFunction.scalar(quad=quad)
        res = uniqueness_crosscheck(Scheme.ADDITIVE_UP, f, V(1), (2, 5), (10, 14))
        assert not res
        assert res.limit_1 is None and res.limit_2 is None
        assert math.isnan(res.distance)
        assert res.note.startswith(note)
