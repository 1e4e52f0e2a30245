"""Rescaling schemes: iterates, limits, component extraction, uniqueness."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_extraction_oracle import cases as oracle_cases
from test_extraction_reference import AT_TOL, _decay_rate, reference_extract_limit

from fuzzystab import extraction
from fuzzystab.errors import ScaleError
from fuzzystab.extraction import (
    N_MAX,
    TOL,
    Scheme,
    extract_components,
    extract_limit,
    iterate,
    uniqueness_crosscheck,
)
from fuzzystab.funceq import (
    CoordinatePoly,
    Perturbation,
    TestFunction,
    remove_offset,
    residual_additive,
    residual_quadratic,
)
from fuzzystab.spaces import euclidean_norm

V = lambda *vals: np.array([float(v) for v in vals])

SQUARE = TestFunction.scalar(quad=1.0)
LINE = TestFunction.scalar(linear=1.0)
SQUARE_SIN = TestFunction.scalar(
    quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),)
)
# two inputs and two outputs, one perturbation each
PLANE_PAIR = TestFunction(
    coords=(
        CoordinatePoly(quad=np.array([[1.0, 0.5], [0.5, 2.0]]), linear=np.array([1.0, -1.0])),
        CoordinatePoly(quad=np.array([[0.0, 1.0], [1.0, 0.0]]), const=0.25),
    ),
    perturbations=(
        Perturbation(shape="cos", amplitude=(0.1, 0.2)),
        Perturbation(shape="sin", amplitude=0.05, frequency=(1.0, 0.5)),
    ),
    dim_x=2,
)


@pytest.mark.parametrize(
    "scheme, interval, label",
    [
        (Scheme.QUADRATIC_UP, (0.0, 4.0), "(0,4)"),
        (Scheme.QUADRATIC_DOWN, (4.0, math.inf), "(>4)"),
        (Scheme.ADDITIVE_UP, (0.0, 2.0), "(0,2)"),
        (Scheme.ADDITIVE_DOWN, (2.0, math.inf), "(>2)"),
    ],
)
def test_alpha_interval_and_label(scheme, interval, label):
    assert scheme.alpha_interval == interval
    assert scheme.interval_label == label
    lo, hi = interval
    assert not scheme.admits_alpha(lo) and not scheme.admits_alpha(hi)
    assert scheme.admits_alpha(lo + 0.5)


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

    def test_overflowing_argument_norm_raises_one_error_from_both_guards(self):
        # the norm of 1e200 overflows; extract_limit and iterate raise the same
        # ScaleError for it, with no overflow warning on the way
        errors = []
        for run in (extract_limit, lambda *args: iterate(*args, 0)):
            with pytest.raises(ScaleError) as err:
                run(Scheme.QUADRATIC_UP, SQUARE, V(1e200))
            errors.append((err.value.n, str(err.value)))
        assert errors == [(0, "scaled argument norm inf exceeds 1e+150 at n=0 for quadratic_up")] * 2

    def test_overflow_guard_norms_the_largest_index_unless_it_trips(self, monkeypatch):
        # the scaled norms grow with n, so the largest index decides; only a
        # tripped guard norms every row, for the first index that trips
        shapes = []
        norm = extraction.euclidean_norm

        def counted(v):
            shapes.append(np.shape(v))
            return norm(v)

        monkeypatch.setattr(extraction, "euclidean_norm", counted)
        iterate(Scheme.QUADRATIC_UP, SQUARE, V(1), np.arange(41))
        assert shapes == [(1,)]
        with pytest.raises(ScaleError) as err:
            iterate(Scheme.QUADRATIC_UP, SQUARE, V(1), np.array([500, 3, 510, 498]))
        assert (err.value.n, str(err.value)) == (
            500,
            "scaled argument norm 3.273e+150 exceeds 1e+150 at n=500 for quadratic_up",
        )

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_empty_index_array_gives_an_empty_stack(self, scheme):
        # no index scales no argument, so not even a point past the guard raises
        for x in (V(1), V(1e200)):
            got = iterate(scheme, SQUARE, x, np.array([], dtype=int))
            assert got.shape == (0, 1) and got.dtype == float

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            iterate(Scheme.QUADRATIC_UP, SQUARE, V(1), -1)


class TestExtractLimit:
    def test_perturbed_quadratic_converges_to_square(self):
        r = extract_limit(Scheme.QUADRATIC_UP, SQUARE_SIN, V(1))
        assert r.converged
        assert abs(r.limit_value[0] - 1.0) <= 1e-9
        assert 0.15 <= r.ratio_estimate <= 0.35

    def test_perturbed_linear_converges_under_additive_scheme(self):
        # The stop at step n leaves |limit - 2| = 0.1 |sin(2^n)| / 2^n <= 0.1 / 2^n,
        # with n >= 20 for tol 1e-9, hence a 1e-7 cap.
        f = TestFunction.scalar(linear=2.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),))
        r = extract_limit(Scheme.ADDITIVE_UP, f, V(1))
        assert r.converged
        assert r.n_used >= 20
        assert abs(r.limit_value[0] - 2.0) <= 0.1 / 2.0**r.n_used * 2
        assert abs(r.limit_value[0] - 2.0) <= 1e-7
        assert 0.35 <= r.ratio_estimate <= 0.65

    def test_exact_quadratic_converges_immediately_under_down_scheme(self):
        r = extract_limit(Scheme.QUADRATIC_DOWN, SQUARE, V(1))
        assert r.converged
        assert r.n_used == 1
        assert r.limit_value[0] == 1.0
        assert r.ratio_estimate == 0.0

    def test_stop_rule_is_relative_successive_difference(self):
        r = extract_limit(Scheme.QUADRATIC_UP, SQUARE_SIN, V(1))
        before, last = iterate(Scheme.QUADRATIC_UP, SQUARE_SIN, V(1), [r.n_used - 1, r.n_used])
        gap = np.linalg.norm(last - before)
        assert gap <= 1e-9 * (1.0 + np.linalg.norm(r.limit_value))

    def test_annihilation_of_additive_part_with_exact_half_ratio(self):
        r = extract_limit(Scheme.QUADRATIC_UP, LINE, V(1))
        assert r.converged
        assert abs(r.limit_value[0]) <= 1e-8
        assert r.ratio_estimate == 0.5

    def test_quadratic_part_diverges_under_additive_scheme(self):
        r = extract_limit(Scheme.ADDITIVE_UP, SQUARE, V(1))
        assert not r.converged
        assert r.ratio_estimate == 2.0

    def test_nonconvergence_is_a_result_not_an_error(self):
        r = extract_limit(Scheme.ADDITIVE_UP, SQUARE, V(1))
        assert not r.converged
        assert r.n_used == N_MAX

    def test_ratio_estimate_in_unit_interval_when_converged(self):
        for x in np.linspace(0.5, 3.0, 7):
            r = extract_limit(Scheme.QUADRATIC_UP, SQUARE_SIN, V(x))
            assert r.converged
            assert 0.0 <= r.ratio_estimate < 1.0

    def test_down_scheme_underflow_stops_with_current_value(self):
        # constant term blows up under the down-scheme, so the stop rule never
        # fires and the shrinking argument trips the denormal guard instead
        f = TestFunction.scalar(quad=1.0, const=1.0)
        r = extract_limit(Scheme.QUADRATIC_DOWN, f, V(1e-135))
        assert r.stopped_reason != ""
        assert not r.converged
        assert np.isfinite(r.limit_value).all()


    @pytest.mark.parametrize("x,n", [(1.2, 1), (1.9, 0)])
    def test_non_finite_iterate_stops_unconverged(self, x, n):
        # 1e308 x^2 is finite at 1.2 and overflows at 2.4 (n=1) and at 1.9 (n=0)
        f = TestFunction.scalar(quad=1e308)
        with np.errstate(over="ignore"):
            r = extract_limit(Scheme.QUADRATIC_UP, f, V(x))
        assert not r.converged
        assert r.n_used == n
        assert r.stopped_reason == f"non-finite iterate at n={n}"
        assert r.limit_value[0] == math.inf

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
            r = extract_limit(scheme, TestFunction.scalar(quad=1e200), V(1))
        assert not r.converged
        assert r.n_used == 1
        assert r.stopped_reason == "iterate norm overflows at n=1"
        assert r.limit_value[0] == limit
        assert r.ratio_estimate == 0.0

    def test_source_must_map_stacked_points_row_by_row(self):
        # a scalar-valued source would turn the stack of iterates into one vector
        with pytest.raises(ValueError, match="row by row"):
            extract_limit(Scheme.QUADRATIC_UP, lambda v: np.sum(v * v, axis=-1), V(1))

    # free points, the origin, two points sharing a guard, another guard, and
    # an up-scheme guard at n = 0 (2e150)
    DECIDED_POINTS = (0.7, 0.0, 1e140, -1e140, 1e139, 1e-135, -1e-135, 3e-133, 2e150)

    @staticmethod
    def guard(scheme, point):
        """The first n in 0..N_MAX at which the point's guard trips, N_MAX + 1 if
        none, each step tested alone."""
        steps = [np.array([n]) for n in range(N_MAX + 1)]
        trips = [extraction._first_trips(scheme, point, n) == 0 for n in steps]
        return trips.index(True) if any(trips) else N_MAX + 1

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_each_decision_holds_the_limit_before_its_guard(self, scheme):
        # a handed outcome is the sequential loop's on the point: its limit
        # is row n_used of the steps before the guard as one point's own
        # iterate call gives it, its n_used, converged, ratio_estimate and
        # stop reason are the loop's, and where the loop reaches the
        # overflow guard it is the loop's ScaleError
        points = np.array(self.DECIDED_POINTS)[:, None]
        with np.errstate(all="ignore"):
            outcomes = extraction._decide(scheme, SQUARE_SIN, points)
            assert len(outcomes) == len(points)
            for point, outcome in zip(points, outcomes):
                guard = self.guard(scheme, point)
                try:
                    *_, converged, ratio, n_used, reason = reference_extract_limit(
                        scheme, SQUARE_SIN, point
                    )
                except ScaleError as exc:
                    assert isinstance(outcome, ScaleError)
                    assert (outcome.n, str(outcome)) == (exc.n, str(exc))
                    assert outcome.n == guard
                    continue
                own = iterate(scheme, SQUARE_SIN, point, np.arange(min(guard, N_MAX + 1)))
                assert outcome.limit_value.tobytes() == own[n_used].tobytes()
                assert (outcome.n_used, outcome.converged) == (n_used, converged)
                assert outcome.ratio_estimate.hex() == ratio.hex()
                assert outcome.stopped_reason == reason

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_stack_decides_each_point_as_its_own_stack_does(self, scheme):
        points = np.array(self.DECIDED_POINTS)[:, None]
        with np.errstate(all="ignore"):
            stacked = extraction._decide(scheme, SQUARE_SIN, points)
            for point, outcome in zip(points, stacked):
                (alone,) = extraction._decide(scheme, SQUARE_SIN, point[None])
                if isinstance(outcome, ScaleError):
                    assert isinstance(alone, ScaleError)
                    assert (outcome.n, str(outcome)) == (alone.n, str(alone))
                    continue
                # every field but the limit, ratio_estimate by its bits
                got, want = (
                    (r.n_used, r.converged, r.ratio_estimate.hex(), r.stopped_reason)
                    for r in (outcome, alone)
                )
                assert got == want
                steps = np.arange(min(self.guard(scheme, point), N_MAX + 1))
                own = iterate(scheme, SQUARE_SIN, point, steps)[outcome.n_used]
                assert outcome.limit_value.tobytes() == alone.limit_value.tobytes() == own.tobytes()

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize(
        "f, x, n_used",
        [
            (SQUARE_SIN, V(1), None),
            (PLANE_PAIR, V(0.3, -0.7), None),
            # 1e308 x^2 is infinite at 1.9, so every scheme stops at n = 0
            (TestFunction.scalar(quad=1e308), V(1.9), 0),
        ],
    )
    def test_limit_is_the_iterate_n_used(self, scheme, f, x, n_used):
        with np.errstate(over="ignore", invalid="ignore"):
            r = extract_limit(scheme, f, x)
            want = iterate(scheme, f, x, r.n_used)
        if n_used is not None:
            assert r.n_used == n_used
        assert isinstance(r.limit_value, np.ndarray) and r.limit_value.dtype == float
        assert r.limit_value.shape == want.shape
        assert r.limit_value.tobytes() == want.tobytes()


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


UP_PAIR = (Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP)


def split(f, xs=()):
    """f(0), the (Q, A) components of f - f(0), and their results at ``xs``."""
    shifted, f0 = remove_offset(f)
    components, results = extract_components(shifted, UP_PAIR, xs)
    return f0, components, results


class TestExtractComponents:
    def test_polynomial_splits_exactly(self):
        f = TestFunction.scalar(quad=3.0, linear=2.0, const=5.0)
        f0, (q, a), results = split(f, (V(1), V(0.5)))
        assert f0[0] == 5.0
        assert abs(q(V(1))[0] - 3.0) <= 1e-9
        assert abs(a(V(1))[0] - 2.0) <= 1e-9
        assert [len(at_xs) for at_xs in results] == [2, 2]
        assert all(r.converged for at_xs in results for r in at_xs)

    def test_odd_function_has_zero_quadratic_component(self):
        f = TestFunction.scalar(linear=2.0)
        f0, (q, a), _ = split(f, (V(1),))
        assert q(V(1))[0] == 0.0
        assert a(V(1))[0] == 2.0
        assert f0[0] == 0.0

    def test_even_perturbation_recovered_within_tolerance(self):
        f = TestFunction.scalar(
            quad=1.0, perturbations=(Perturbation(shape="cos", amplitude=0.01),)
        )
        _, (q, a), _ = split(f, (V(1),))
        assert abs(q(V(1))[0] - 1.0) <= 1e-6
        assert abs(a(V(1))[0]) <= 1e-9

    def test_components_vanish_at_origin_exactly(self):
        f = TestFunction.scalar(quad=1.0, linear=1.0, const=2.0)
        _, (q, a), _ = split(f)
        assert q(V(0))[0] == 0.0
        assert a(V(0))[0] == 0.0

    def test_component_parity_eq_and_laws(self):
        f = TestFunction.scalar(
            quad=2.0,
            linear=-1.0,
            perturbations=(
                Perturbation(shape="sin", amplitude=0.01),
                Perturbation(shape="cos", amplitude=0.01),
            ),
        )
        _, (q, a), _ = split(f, (V(0.7),))
        for x in (0.4, 1.1, 2.0):
            assert abs(q(V(x))[0] - q(V(-x))[0]) <= 1e-9
            assert abs(a(V(x))[0] + a(V(-x))[0]) <= 1e-9
        for x, y in [(0.5, 0.9), (1.2, -0.4)]:
            assert euclidean_norm(residual_quadratic(q, V(x), V(y))) <= 1e-6
            assert euclidean_norm(residual_additive(a, V(x), V(y))) <= 1e-6

    def test_one_scheme_runs_on_f_itself(self):
        f = TestFunction.scalar(quad=3.0, linear=2.0)
        (q,), ((result,),) = extract_components(f, (Scheme.QUADRATIC_UP,), [V(1)])
        assert q.source is f
        assert result.converged and abs(result.limit_value[0] - 3.0) <= 1e-8

    def test_scheme_pairing_validated(self):
        for schemes in (
            (Scheme.ADDITIVE_UP, Scheme.ADDITIVE_UP),
            (Scheme.QUADRATIC_UP, Scheme.QUADRATIC_DOWN),
            (Scheme.ADDITIVE_UP, Scheme.QUADRATIC_UP),
            (),
            UP_PAIR + (Scheme.ADDITIVE_DOWN,),
        ):
            with pytest.raises(ValueError):
                extract_components(SQUARE, schemes, [V(1)])

    def test_scale_error_names_the_point(self):
        with pytest.raises(ScaleError) as err:
            extract_components(LINE, (Scheme.QUADRATIC_UP,), [V(1), V(1e149)])
        assert str(err.value).endswith("for quadratic_up at x=[1e+149]")
        assert err.value.scheme == "quadratic_up"


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    said = [
        line.split("# ")[-1].removeprefix("~ ")
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert said and capsys.readouterr().out.splitlines() == said


class TestUniquenessCrosscheck:
    def test_windows_agree_for_perturbed_quadratic(self):
        res = uniqueness_crosscheck(
            Scheme.QUADRATIC_UP, SQUARE_SIN, V(1), (10, 20), (21, 40), tol=1e-8
        )
        assert res
        assert res.distance <= 1e-8 * 2

    def test_exact_solution_any_windows(self):
        assert uniqueness_crosscheck(Scheme.QUADRATIC_UP, SQUARE, V(1), (2, 5), (10, 14))
        assert uniqueness_crosscheck(Scheme.QUADRATIC_UP, SQUARE, V(1), (4, 5), (0, 40))

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

    def test_repeated_index_counts_once(self):
        # x^2 + 0.5(cos x - 1) has not converged by n = 3 under quadratic_up;
        # a window (3, 3) would compare n = 3 with itself
        f = TestFunction.scalar(quad=1.0, perturbations=(Perturbation(shape="cos", amplitude=0.5),))
        with pytest.raises(ValueError, match=r"inclusive \(lo, hi\) pair"):
            uniqueness_crosscheck(Scheme.QUADRATIC_UP, f, V(1), (3, 3), (3, 3))
        res = uniqueness_crosscheck(Scheme.QUADRATIC_UP, f, V(1), (2, 3), (2, 3))
        assert not res
        note = "no convergence in window ending at n=3 (gap 4.273e-02)"
        assert res.note == f"{note}; {note}"

    @pytest.mark.parametrize(
        "window", [(1, 2, 30), (5,), (), (3, 3), (5, 2), range(2, 6), [2, 5]]
    )
    def test_only_a_two_tuple_is_a_range(self, window):
        # (1, 2, 30) once read as the range 1..2 and silently dropped the 30;
        # a list [1, 2, 30] once compared n = 2 with n = 30
        with pytest.raises(ValueError, match=r"inclusive \(lo, hi\) pair"):
            uniqueness_crosscheck(Scheme.QUADRATIC_UP, SQUARE, V(1), window, (10, 14))
        with pytest.raises(ValueError, match=r"inclusive \(lo, hi\) pair"):
            uniqueness_crosscheck(Scheme.QUADRATIC_UP, SQUARE, V(1), (10, 14), window)


def assert_window_follows_run(scheme, f, x):
    """The window (n_used - 1, n_used) decides as the run's own stop did."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = extract_limit(scheme, f, x)
    if r.n_used == 0:
        return
    window = (r.n_used - 1, r.n_used)
    res = uniqueness_crosscheck(scheme, f, x, window, window, tol=TOL)
    assert (res.limit_1 is not None) == r.converged, (r, res)
    if r.converged:
        assert res.limit_1.tobytes() == r.limit_value.tobytes()
    words = r.stopped_reason.rpartition(" at n=")[0]
    if words in ("non-finite iterate", "iterate norm overflows"):
        assert res.note.startswith(words), (r, res)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize(
    "f, x",
    [
        # non-finite iterates, as in test_non_finite_iterate_stops_unconverged
        (TestFunction.scalar(quad=1e308), V(1.2)),
        # overflowing norms, as in test_overflowing_norm_stops_unconverged
        (TestFunction.scalar(quad=1e200), V(1)),
        # under additive_up the difference at n = 1 equals its bound
        (TestFunction.scalar(const=2.0 * AT_TOL), V(0.5)),
    ],
)
def test_window_stops_by_the_extraction_rule(scheme, f, x):
    assert_window_follows_run(scheme, f, x)


@settings(max_examples=100, deadline=None)
@given(case=oracle_cases(), scheme=st.sampled_from(list(Scheme)))
def test_window_stops_by_the_extraction_rule_on_oracle_functions(case, scheme):
    f, *_, x = case
    assert_window_follows_run(scheme, f, x)
