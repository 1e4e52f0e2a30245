"""Residuals of the functional equations and parity decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzystab.errors import DimensionMismatchError
from fuzzystab.extraction import Scheme, iterate
from fuzzystab.funceq import (
    CoordinatePoly,
    Perturbation,
    TestFunction,
    even_part,
    odd_part,
    remove_offset,
    residual_additive,
    residual_main,
    residual_quadratic,
)
from fuzzystab.spaces import euclidean_norm

V = lambda *vals: np.array([float(v) for v in vals])


def brute_main_defect(f, x, y):
    """Independent oracle: the six equation terms summed one by one."""
    return f(2 * x + y) + f(2 * x - y) - f(x + y) - f(x - y) - 2 * f(2 * x) + 2 * f(x)


class TestMainResidual:
    @pytest.mark.parametrize("a,b,c", [(1.0, 0.0, 0.0), (2.5, -1.0, 3.0), (0.0, 4.0, -2.0)])
    def test_quadratic_family_solves_the_equation(self, a, b, c):
        f = TestFunction.scalar(quad=a, linear=b, const=c)
        for x, y in [(0.3, 0.7), (-1.2, 2.4), (5.0, -3.0)]:
            r = residual_main(f, V(x), V(y))
            scale = 1.0 + abs(f(V(2 * x + y))[0])
            assert euclidean_norm(r) <= 1e-9 * scale

    def test_cubic_gives_six_at_unit_pair(self):
        # Direct arithmetic: 27 + 1 - 8 - 0 - 16 + 2 = 6.
        cube = lambda v: v**3
        assert brute_main_defect(cube, V(1), V(1))[0] == 6.0
        r = residual_main(cube, V(1), V(1))
        assert r[0] == 6.0

    def test_identity_map_solves_the_equation(self):
        f = TestFunction.scalar(linear=1.0)
        for x, y in [(0.0, 0.0), (1.5, -2.0), (10.0, 3.0)]:
            assert euclidean_norm(residual_main(f, V(x), V(y))) == 0.0

    def test_matches_bruteforce_on_perturbed_function(self):
        f = TestFunction.scalar(
            quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.3),)
        )
        x, y = V(0.8), V(-1.7)
        assert residual_main(f, x, y) == pytest.approx(brute_main_defect(f, x, y))

    def test_dimension_mismatch_is_an_input_error(self):
        f = TestFunction.scalar(quad=1.0)
        with pytest.raises(DimensionMismatchError):
            residual_main(f, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            residual_main(f, V(1), np.array([1.0, 2.0]))


class TestQuadraticResidual:
    def test_square_satisfies_parallelogram(self):
        f = TestFunction.scalar(quad=1.0)
        for x, y in [(1.0, 1.0), (-2.0, 0.5), (3.0, 3.0)]:
            assert euclidean_norm(residual_quadratic(f, V(x), V(y))) == 0.0

    def test_linear_map_defect_is_minus_two(self):
        f = TestFunction.scalar(linear=1.0)
        assert residual_quadratic(f, V(1), V(1))[0] == -2.0

    def test_mixed_map_defect_from_linear_part_only(self):
        f = TestFunction.scalar(quad=1.0, linear=1.0)
        assert residual_quadratic(f, V(1), V(1))[0] == -2.0


class TestAdditiveResidual:
    def test_linear_maps_are_additive(self):
        f = TestFunction.scalar(linear=4.5)
        for x, y in [(1.0, 2.0), (-3.0, 0.25)]:
            assert euclidean_norm(residual_additive(f, V(x), V(y))) == 0.0

    def test_square_defect_is_two_at_unit_pair(self):
        f = TestFunction.scalar(quad=1.0)
        assert residual_additive(f, V(1), V(1))[0] == 2.0

    def test_constant_offset_breaks_additivity_by_itself(self):
        for c in (1.0, -2.5):
            f = TestFunction.scalar(linear=1.0, const=c)
            for x, y in [(0.5, 0.5), (2.0, -1.0)]:
                assert residual_additive(f, V(x), V(y))[0] == pytest.approx(-c)


@pytest.mark.parametrize("residual", [residual_quadratic, residual_additive])
def test_each_law_residual_refuses_mismatched_dimensions(residual):
    f = TestFunction.scalar(quad=1.0)
    with pytest.raises(DimensionMismatchError):
        residual(f, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        residual(f, V(1), np.array([1.0, 2.0]))


#: Each residual's term arguments written out by hand, in its order.
HAND_WRITTEN_ARGUMENTS = {
    residual_main: lambda x, y: [2 * x + y, 2 * x - y, x + y, x - y, 2 * x, x],
    residual_quadratic: lambda x, y: [x + y, x - y, x, y],
    residual_additive: lambda x, y: [x + y, x, y],
}


@pytest.mark.parametrize("residual", HAND_WRITTEN_ARGUMENTS)
def test_term_arguments_are_the_hand_written_ones_bit_for_bit(residual):
    # a zero multiplier leaves its variable out: 0 * inf would be NaN and
    # -0.0 + 0 * y would be 0.0
    x = np.array([[-0.0], [0.0], [np.inf], [-1.5], [-0.0]])
    y = np.array([[-0.0], [np.inf], [-0.0], [-np.inf], [1e308]])
    received = []

    def identity(v):
        received.append(v)
        return v

    with np.errstate(invalid="ignore", over="ignore"):
        residual(identity, x, y)
        expected = np.stack(HAND_WRITTEN_ARGUMENTS[residual](x, y))
    (args,) = received
    assert args.tobytes() == expected.tobytes()


@pytest.mark.parametrize("residual", [residual_main, residual_quadratic, residual_additive])
@pytest.mark.parametrize("points", [(), (4,)])
def test_a_source_that_maps_only_one_point_is_refused(residual, points):
    # f is called once on the stacked arguments of the terms, even for one
    # pair, so a source that sums a stack into one value is refused, with
    # the error that iterate gives it on a stack of steps or of points
    def squared_norm(v):
        return np.array([np.sum(v * v)])

    x, y = np.ones((2, *points, 2))
    message = "it must map (..., dim_x) to (..., dim_y) row by row"
    with pytest.raises(ValueError) as refused:
        residual(squared_norm, x, y)
    with pytest.raises(ValueError) as iterated:
        iterate(Scheme.QUADRATIC_UP, squared_norm, x, np.arange(3) if x.ndim == 1 else 0)
    assert refused.value.args[0].endswith(message)
    assert iterated.value.args[0].endswith(message)


class TestParityDecomposition:
    def test_even_part_of_mixed_polynomial(self):
        f = TestFunction.scalar(quad=3.0, linear=2.0)
        assert even_part(f)(V(1))[0] == 3.0  # (5 + 1) / 2
        assert odd_part(f)(V(1))[0] == 2.0  # (5 - 1) / 2

    def test_odd_function_has_zero_even_part(self):
        f = TestFunction.scalar(linear=2.0)
        for x in (0.1, 1.0, 7.0):
            assert even_part(f)(V(x))[0] == 0.0

    def test_even_function_is_its_own_even_part(self):
        f = TestFunction.scalar(quad=1.0, perturbations=(Perturbation(shape="cos", amplitude=1.0),))
        for x in (0.0, 0.5, 2.0):
            assert even_part(f)(V(x))[0] == f(V(x))[0]
            assert odd_part(f)(V(x))[0] == 0.0

    def test_even_part_agrees_with_source_at_origin(self):
        f = TestFunction.scalar(quad=1.0, linear=2.0, const=7.0)
        assert even_part(f)(V(0))[0] == 7.0


class TestPerturbationShapes:
    def test_rational_shape_bounded_and_stable_at_huge_arguments(self):
        p = Perturbation(shape="rational", amplitude=2.0)
        assert p.profile(V(1.0)) == 0.5  # q/(1+q^2) peaks at q=1
        assert abs(p.profile(V(1e200))) <= 1e-199  # evaluated as 1/q, no overflow
        for q in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert abs(p.profile(V(q))) <= 0.5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Perturbation(shape="tan")
        with pytest.raises(ValueError):
            Perturbation(shape="sin", amplitude=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("amplitude", lambda bad: bad),
            ("amplitude", lambda bad: (0.5, bad)),
            ("frequency", lambda bad: bad),
            ("frequency", lambda bad: (bad, 1.0)),
            ("frequency", lambda bad: -bad),
        ],
    )
    def test_non_finite_amplitude_or_frequency_is_refused(self, key, value, bad):
        # either would make the term NaN: inf * 0 at q = 0, or sin(inf)
        with pytest.raises(ValueError, match=f"^{key} must be finite$"):
            Perturbation(shape="sin", **{key: value(bad)})

    def test_frequency_vector_dimension_checked(self):
        p = Perturbation(shape="sin", amplitude=1.0, frequency=(1.0, 2.0))
        with pytest.raises(DimensionMismatchError):
            p.profile(V(1.0))


class TestMultiDimensional:
    def rand_function(self, rng, dim):
        coords = tuple(
            CoordinatePoly(
                quad=_sym(rng.normal(size=(dim, dim))),
                linear=rng.normal(size=dim),
                const=float(rng.normal()),
            )
            for _ in range(dim)
        )
        return TestFunction(coords=coords, dim_x=dim)

    def test_vector_valued_quadratic_family_solves_equation(self):
        rng = np.random.default_rng(42)
        f = self.rand_function(rng, 3)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            r = residual_main(f, x, y)
            scale = 1.0 + float(np.linalg.norm(f(2 * x + y)))
            assert euclidean_norm(r) <= 1e-9 * scale

    @pytest.mark.parametrize("residual", [residual_main, residual_quadratic, residual_additive])
    def test_residual_of_a_stack_is_one_array_equal_row_by_row(self, residual):
        rng = np.random.default_rng(11)
        perturbations = (
            Perturbation(shape="sin", amplitude=0.3, frequency=(1.0, -2.0, 0.5)),
            Perturbation(shape="rational", amplitude=(0.1, 0.2)),
        )
        coords = self.rand_function(rng, 3).coords[:2]  # R^3 -> R^2
        f = TestFunction(coords=coords, perturbations=perturbations, dim_x=3)
        xs, ys = rng.normal(size=(2, 6, 3))
        r = residual(f, xs, ys)
        assert type(r) is np.ndarray and r.shape == (6, 2)
        for i in range(6):
            assert np.array_equal(r[i], residual(f, xs[i], ys[i]))

    def test_pure_quadratic_maps_satisfy_the_parallelogram_law(self):
        rng = np.random.default_rng(7)
        coords = tuple(CoordinatePoly(quad=_sym(rng.normal(size=(3, 3)))) for _ in range(2))
        f = TestFunction(coords=coords, dim_x=3)
        xs, ys = rng.normal(size=(2, 10, 3))
        scale = 1.0 + float(np.abs(f(xs + ys)).max() + np.abs(f(xs - ys)).max())
        assert np.abs(residual_quadratic(f, xs, ys)).max() <= 1e-9 * scale

    def test_additive_defect_of_a_quadratic_form_is_twice_its_polarization(self):
        # f(x+y) - f(x) - f(y) = 2 x^T Q y for f(x) = x^T Q x, Q symmetric;
        # on the diagonal y = x that is 2 f(x)
        rng = np.random.default_rng(7)
        quad = _sym(rng.normal(size=(3, 3)))
        f = TestFunction(coords=(CoordinatePoly(quad=quad),), dim_x=3)
        for _ in range(10):
            x, y = rng.normal(size=(2, 3))
            want = 2 * x @ quad @ y
            assert residual_additive(f, x, y)[0] == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert residual_additive(f, x, x)[0] == pytest.approx(2 * f(x)[0], rel=1e-12)

    def test_linear_maps_are_additive(self):
        rng = np.random.default_rng(9)
        coords = tuple(CoordinatePoly(linear=rng.normal(size=3)) for _ in range(2))
        f = TestFunction(coords=coords, dim_x=3)
        xs, ys = rng.normal(size=(2, 10, 3))
        scale = 1.0 + float(np.abs(f(xs + ys)).max())
        assert np.abs(residual_additive(f, xs, ys)).max() <= 1e-12 * scale

    def test_remove_offset(self):
        rng = np.random.default_rng(3)
        f = self.rand_function(rng, 2)
        g, f0 = remove_offset(f)
        assert np.array_equal(f(np.zeros(2)), f0)
        assert np.all(g(np.zeros(2)) == 0.0)


def _sym(m):
    return (m + m.T) / 2


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(a=finite, b=finite, c=finite, x=finite)
@settings(max_examples=200)
def test_parity_parts_sum_to_function(a, b, c, x):
    f = TestFunction.scalar(quad=a, linear=b, const=c)
    fx = f(V(x))[0]
    total = even_part(f)(V(x))[0] + odd_part(f)(V(x))[0]
    scale = max(abs(fx), abs(f(V(-x))[0]), np.finfo(float).tiny)
    assert abs(total - fx) <= 4 * np.spacing(scale)


@given(a=finite, b=finite, x=finite)
@settings(max_examples=200)
def test_parity_symmetries_exact(a, b, x):
    f = TestFunction.scalar(
        quad=a, linear=b, perturbations=(Perturbation(shape="sin", amplitude=0.5),)
    )
    fe, fo = even_part(f), odd_part(f)
    assert fe(V(x))[0] == fe(V(-x))[0]
    assert fo(V(x))[0] == -fo(V(-x))[0]


@given(a=finite, b=finite, x=finite, y=finite)
@settings(max_examples=150)
def test_even_part_defect_bounded_by_averaged_defect(a, b, x, y):
    f = TestFunction.scalar(
        quad=a, linear=b, perturbations=(Perturbation(shape="rational", amplitude=1.0),)
    )
    lhs = euclidean_norm(residual_main(even_part(f), V(x), V(y)))
    avg = 0.5 * (
        euclidean_norm(residual_main(f, V(x), V(y)))
        + euclidean_norm(residual_main(f, V(-x), V(-y)))
    )
    assert lhs <= avg + 1e-9 * (1.0 + avg)
