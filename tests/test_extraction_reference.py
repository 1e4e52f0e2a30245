"""The stacked extraction against the sequential scheme loop.

``reference_extract_limit`` is the loop that ``extract_limit`` replaced: it
evaluates one iterate per step through ``reference_iterate`` and applies the
stop rule step by step.  ``extract_limit`` evaluates the iterates in blocks
of ``BLOCK_STEPS`` steps, one call of ``f`` per block, and finds the stop
with array tests.  It must reproduce the loop exactly: the limit and every
iterate by bytes, ``n_used``, ``converged``, ``stopped_reason``, the bits of
``ratio_estimate``, and the ``ScaleError`` (step and message) when the loop
reaches the overflow guard.  ``f`` must never be called at or beyond a
guard, nor on a block that starts after the loop's last step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzystab.errors import ScaleError
from fuzzystab.extraction import (
    BLOCK_STEPS,
    MAX_STEPS,
    OVERFLOW_LIMIT,
    UNDERFLOW_LIMIT,
    Scheme,
    _decay_rate,
    extract_limit,
    iterate,
    uniqueness_crosscheck,
)
from fuzzystab.funceq import (
    PERTURBATION_SHAPES,
    CoordinatePoly,
    Perturbation,
    TestFunction,
    even_part,
    odd_part,
    remove_offset,
)


def reference_iterate(scheme: Scheme, f, x, n: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if scheme.is_up:
        arg = np.ldexp(v, n)
        size = float(np.linalg.norm(arg))
        if size > OVERFLOW_LIMIT:
            raise ScaleError(
                f"scaled argument norm {size:.3e} exceeds {OVERFLOW_LIMIT:.0e} "
                f"at n={n} for {scheme.value}",
                scheme=scheme.value,
                n=n,
            )
        return np.ldexp(np.asarray(f(arg), dtype=float), -scheme.value_shift * n)
    arg = np.ldexp(v, -n)
    return np.ldexp(np.asarray(f(arg), dtype=float), scheme.value_shift * n)


def reference_extract_limit(scheme: Scheme, f, x, tol: float = 1e-9, n_max: int = 40):
    """Returns (limit, iterates, converged, ratio_estimate, n_used, reason)."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    x_norm = float(np.linalg.norm(v))
    current = reference_iterate(scheme, f, v, 0)
    trail = [(0, current)]
    if not np.isfinite(current).all():
        return current, tuple(trail), False, 0.0, 0, "non-finite iterate at n=0"
    diffs: list[float] = []
    converged = False
    reason = ""
    n_used = n_max
    for n in range(1, n_max + 1):
        if not scheme.is_up and x_norm != 0.0 and np.ldexp(x_norm, -n) < UNDERFLOW_LIMIT:
            n_used = n - 1
            reason = f"rescaled argument below {UNDERFLOW_LIMIT:.0e} at n={n}"
            break
        nxt = reference_iterate(scheme, f, v, n)
        diff = float(np.linalg.norm(nxt - current))
        trail.append((n, nxt))
        current = nxt
        n_used = n
        if not math.isfinite(diff) and not np.isfinite(nxt).all():
            reason = f"non-finite iterate at n={n}"
            break
        size = float(np.linalg.norm(current))
        if not (math.isfinite(diff) and math.isfinite(size)):
            reason = f"iterate norm overflows at n={n}"
            break
        diffs.append(diff)
        if diff <= tol * (1.0 + size):
            converged = True
            break
    ratio = _decay_rate([b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0])
    return current, tuple(trail), converged, ratio, n_used, reason


def _bits(value):
    """Exact identity: arrays by dtype, shape and bytes, floats by hex form."""
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex())
    return value


def _outcome(run):
    """Bits of a result, or the identity of the ScaleError it raised."""
    try:
        out = run()
    except ScaleError as exc:
        return ("ScaleError", str(exc), exc.n, exc.scheme)
    if hasattr(out, "limit_value"):
        out = (
            out.limit_value,
            tuple(enumerate(out.iterates)),
            out.converged,
            out.ratio_estimate,
            out.n_used,
            out.stopped_reason,
        )
    return _bits(out)


class _Recorder:
    """Passes calls through to ``f`` and keeps a copy of every argument."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.array(x, dtype=float))
        return self.f(x)


def _first_guard(scheme: Scheme, x, n_max: int) -> int:
    """First n <= n_max at which the sequential loop meets a guard, else n_max + 1."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        x_norm = float(np.linalg.norm(v))
    for n in range(n_max + 1):
        if scheme.is_up:
            with np.errstate(over="ignore"):
                if float(np.linalg.norm(np.ldexp(v, n))) > OVERFLOW_LIMIT:
                    return n
        elif n > 0 and x_norm != 0.0 and np.ldexp(x_norm, -n) < UNDERFLOW_LIMIT:
            return n
    return n_max + 1


def assert_matches_reference(scheme, f, x, tol, n_max):
    looped = _Recorder(f)
    with np.errstate(all="ignore"):
        want = _outcome(lambda: reference_extract_limit(scheme, looped, x, tol=tol, n_max=n_max))
    recorder = _Recorder(f)
    got = _outcome(lambda: extract_limit(scheme, recorder, x, tol=tol, n_max=n_max))
    assert got == want
    # The loop evaluates steps 0..evaluated-1.  The blocks are contiguous
    # from step 0, each cut at n_max and before the first guard, and a block
    # is evaluated iff the loop evaluates its first step.
    evaluated = len(looped.calls)
    guard = _first_guard(scheme, x, n_max)
    blocks = [
        (lo, min(lo + BLOCK_STEPS, n_max + 1, guard)) for lo in range(0, evaluated, BLOCK_STEPS)
    ]
    assert [len(args) for args in recorder.calls] == [hi - lo for lo, hi in blocks]
    if n_max < BLOCK_STEPS:
        assert len(recorder.calls) <= 1
    v = np.atleast_1d(np.asarray(x, dtype=float))
    for args, (lo, hi) in zip(recorder.calls, blocks):
        steps = np.arange(lo, hi)[:, None]
        expected = np.ldexp(v, steps if scheme.is_up else -steps)
        assert _bits(args) == _bits(expected)


# --- strategies ----------------------------------------------------------

_ENTRY = st.floats(-3.0, 3.0)


@st.composite
def _perturbations(draw, dim_x, dim_y):
    shape = draw(st.sampled_from(PERTURBATION_SHAPES))
    amplitude = draw(
        st.one_of(
            st.floats(0.0, 2.0),
            st.lists(st.floats(0.0, 2.0), min_size=dim_y, max_size=dim_y).map(tuple),
        )
    )
    frequency = draw(
        st.one_of(
            st.floats(-3.0, 3.0),
            st.lists(st.floats(-3.0, 3.0), min_size=dim_x, max_size=dim_x).map(tuple),
        )
    )
    return Perturbation(shape=shape, amplitude=amplitude, frequency=frequency)


@st.composite
def _test_functions(draw, dim_x):
    dim_y = draw(st.integers(1, 3))
    # 1e200 overflows the norm of finite iterates, 1e308 the iterates
    # themselves; without a quadratic term the up-schemes reach the overflow
    # guard more often
    scale = draw(st.sampled_from([0.0, 0.0, 1.0, 1.0, 1e200, 1e308]))
    coords = []
    for _ in range(dim_y):
        quad = draw(
            st.none()
            | st.lists(_ENTRY, min_size=dim_x * dim_x, max_size=dim_x * dim_x).map(
                lambda v: np.array(v).reshape(dim_x, dim_x)
            )
        )
        if quad is not None and scale:
            with np.errstate(over="ignore"):  # 3 * 1e308 is inf
                quad = scale * quad
        else:
            quad = None
        linear = draw(st.none() | st.lists(_ENTRY, min_size=dim_x, max_size=dim_x).map(np.array))
        const = draw(st.sampled_from([0.0, -0.0, 1.5]) | _ENTRY)
        coords.append(CoordinatePoly(quad=quad, linear=linear, const=const))
    perts = draw(st.lists(_perturbations(dim_x, dim_y), max_size=3))
    return TestFunction(coords=tuple(coords), perturbations=tuple(perts), dim_x=dim_x)


def _source(f, name):
    with np.errstate(all="ignore"):  # f(0) of an infinite coefficient is NaN
        return _SOURCES[name](f)


_SOURCES = {
    "f": lambda f: f,
    "remove_offset": lambda f: remove_offset(f)[0],
    "even_part": lambda f: even_part(remove_offset(f)[0]),
    "odd_part": lambda f: odd_part(remove_offset(f)[0]),
}


@st.composite
def _points(draw, dim):
    kind = draw(st.sampled_from(["zero", "unit", "unit", "tiny", "tiny", "huge", "huge"]))
    if kind == "zero":
        return np.zeros(dim)
    if kind == "unit":
        return np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim)))
    # a scaled point keeps its magnitude: no coordinate is near zero
    entry = st.tuples(st.floats(0.25, 4.0), st.sampled_from([1.0, -1.0])).map(
        lambda t: t[0] * t[1]
    )
    direction = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
    # about 1e-135 trips the underflow guard, 1e100 to 1e150 the overflow guard
    exponent = draw(st.floats(-140.0, -125.0) if kind == "tiny" else st.floats(100.0, 151.0))
    return direction * 10.0**exponent


@st.composite
def _cases(draw):
    dim = draw(st.integers(1, 3))
    f = draw(_test_functions(dim))
    return dict(
        scheme=draw(st.sampled_from(list(Scheme))),
        f=_source(f, draw(st.sampled_from(sorted(_SOURCES)))),
        x=draw(_points(dim)),
        tol=draw(st.sampled_from([1e-3, 1e-9, 1e-12, 1e-16])),
        n_max=draw(st.sampled_from([2, 5, 40, 60])),
    )


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_stacked_extraction_equals_sequential_loop(case):
    assert_matches_reference(**case)


_SQUARE_COS = TestFunction.scalar(
    quad=1.0, perturbations=(Perturbation(shape="cos", amplitude=0.01),)
)
_LINE_SIN = TestFunction.scalar(
    linear=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),)
)
_SPACE = TestFunction(
    coords=(
        CoordinatePoly(quad=np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]])),
        CoordinatePoly(linear=np.array([0.0, 2.0, -1.0]), const=1.0),
        CoordinatePoly(quad=np.eye(3), linear=np.array([1.0, -0.5, 0.25])),
    ),
    perturbations=(
        Perturbation(shape="sin", amplitude=0.01, frequency=(1.0, 0.5, -0.25)),
        Perturbation(shape="cos", amplitude=0.01),
    ),
    dim_x=3,
)
_PLANE = TestFunction(
    coords=(
        CoordinatePoly(quad=np.array([[1.0, 0.25], [0.25, 0.5]]), linear=np.array([1.0, -2.0])),
    ),
    perturbations=(
        Perturbation(shape="sin", amplitude=0.1),
        Perturbation(shape="rational", amplitude=0.1),
    ),
    dim_x=2,
)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize(
    "f,x",
    [
        (_SQUARE_COS, [0.0]),
        (_SQUARE_COS, [1e-135]),  # underflow guard of the down-schemes
        (_SQUARE_COS, [-1e-300]),
        (_SQUARE_COS, [1e100]),
        (_SQUARE_COS, [1e140]),  # overflow guard of the up-schemes
        (_SQUARE_COS, [1e150]),  # exactly at the overflow guard
        (_SQUARE_COS, [2e150]),  # beyond the overflow guard at n=0
        (TestFunction.scalar(quad=1e308), [1.2]),  # non-finite iterate
        (TestFunction.scalar(quad=1e308, const=1.0), [1e-135]),
        (TestFunction.scalar(quad=1e200), [1.0]),  # norm of a finite iterate overflows
        (TestFunction.scalar(linear=1e300, const=1e300), [1.0]),
        (_LINE_SIN, [1e140]),  # overflow guard at n=33, no stop before it
        (_LINE_SIN, [-3e-130]),
        (TestFunction.scalar(quad=1.0, const=1.0), [1e-130]),  # underflow guard at n=34
        (TestFunction.scalar(quad=5e153), [1.0]),  # additive_up: norm overflows at n=2
        # additive_up: v_0 = 2e154, v_1 = 0, so the difference overflows, not the norm
        (TestFunction.scalar(linear=-2e154, const=4e154), [1.0]),
        (_SPACE, [0.7, -1.3, 0.4]),
        (_SPACE, [1.9, 0.1, -0.6]),
        (_PLANE, [0.0, 0.0]),
        (_PLANE, [1e-135, -1e-136]),
        (_PLANE, [1e145, 1e140]),
        (even_part(_PLANE), [0.7, -1.3]),
        (odd_part(_PLANE), [0.7, -1.3]),
    ],
)
def test_edge_cases_equal_sequential_loop(scheme, f, x):
    for n_max in (2, 5, 40, 60):
        for tol in (1e-3, 1e-9, 1e-16):
            assert_matches_reference(scheme, f, np.array(x), tol, n_max)


def _scaled_norm(scheme: Scheme, x, n: int) -> float:
    """The norm the scheme's guard tests at step n."""
    with np.errstate(over="ignore"):
        if scheme.is_up:
            return float(np.linalg.norm(np.ldexp(x, n)))
        return float(np.ldexp(np.linalg.norm(x), -n))


def _straddle(scheme: Scheme, direction, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two points t * direction, t one float apart: the guard does not trip
    at step n for the first and trips there for the second."""
    d = np.asarray(direction, dtype=float)
    limit = OVERFLOW_LIMIT if scheme.is_up else UNDERFLOW_LIMIT

    def trips(t):
        size = _scaled_norm(scheme, t * d, n)
        return size > limit if scheme.is_up else size < limit

    # the guard trips on larger points up, on smaller ones down
    toward, away = (math.inf, -math.inf) if scheme.is_up else (0.0, math.inf)
    t = float(np.ldexp(limit / np.linalg.norm(d), -n if scheme.is_up else n))
    while trips(t):
        t = math.nextafter(t, away)
    while not trips(math.nextafter(t, toward)):
        t = math.nextafter(t, toward)
    return t * d, math.nextafter(t, toward) * d


_GUARD_N_MAX = (2, 40, 63, 64, 65, 200)


@pytest.mark.parametrize("n_max", _GUARD_N_MAX)
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize(
    "f,direction",
    [
        (_SQUARE_COS, [1.0]),  # quadratic schemes converge, additive ones run on
        (_LINE_SIN, [1.0]),  # quadratic schemes run on
        (_SQUARE_COS, [-1.0]),
        (_PLANE, [0.6, -0.8]),
    ],
)
def test_guard_boundary_at_n_max_equals_sequential_loop(f, direction, scheme, n_max):
    passing, tripping = _straddle(scheme, direction, n_max)
    assert _first_guard(scheme, passing, n_max) == n_max + 1
    assert _first_guard(scheme, tripping, n_max) == n_max
    for x in (passing, tripping):
        for tol in (1e-9, 1e-16):
            assert_matches_reference(scheme, f, x, tol, n_max)


@pytest.mark.parametrize("n_max", _GUARD_N_MAX)
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize(
    "f,x",
    [
        (_SQUARE_COS, [0.0]),
        (_LINE_SIN, [-0.0]),
        (_SQUARE_COS, [math.nan]),
        (_LINE_SIN, [math.inf]),
        (_SQUARE_COS, [-math.inf]),
        (_PLANE, [0.0, 0.0]),
        (_PLANE, [1.0, math.nan]),
        (_PLANE, [-math.inf, 1.0]),
        (_PLANE, [math.inf, math.nan]),
    ],
)
def test_zero_and_non_finite_points_equal_sequential_loop(f, x, scheme, n_max):
    for tol in (1e-9, 1e-16):
        assert_matches_reference(scheme, f, np.array(x), tol, n_max)


@pytest.mark.parametrize(
    "scheme,f,x",
    [
        (Scheme.QUADRATIC_UP, _SQUARE_COS, [1.5]),  # converges
        (Scheme.QUADRATIC_UP, _LINE_SIN, [1e140]),  # overflow guard at n=33
        (Scheme.ADDITIVE_UP, _SQUARE_COS, [5e-324]),  # overflow guard near n=1573
        (Scheme.QUADRATIC_DOWN, TestFunction.scalar(const=1.0), [1e300]),  # underflow guard
        # the norm of x overflows, so no guard applies: 4^n overflows at n=512
        (Scheme.QUADRATIC_DOWN, TestFunction.scalar(const=1.0), [1.8e308]),
        (Scheme.ADDITIVE_UP, TestFunction.scalar(const=1.0), [0.0]),  # no guard at x = 0
    ],
)
def test_largest_n_max_equals_sequential_loop(scheme, f, x):
    assert_matches_reference(scheme, f, np.array(x), 1e-9, MAX_STEPS)


def test_stop_rule_holds_at_equality():
    # v_0 = 1.5, v_1 = 1.0: the difference 0.5 equals 0.25 * (1 + 1.0) exactly
    f = TestFunction.scalar(linear=1.0, const=1.0)
    assert_matches_reference(Scheme.ADDITIVE_UP, f, np.array([0.5]), 0.25, 40)
    r = extract_limit(Scheme.ADDITIVE_UP, f, np.array([0.5]), tol=0.25)
    assert r.converged and r.n_used == 1


@settings(max_examples=150, deadline=None)
@given(_cases(), st.lists(st.integers(0, 200), min_size=1, max_size=6))
def test_stacked_iterates_equal_single_iterates(case, ns):
    scheme, f, x = case["scheme"], case["f"], case["x"]

    def one_by_one():
        return np.stack([reference_iterate(scheme, f, x, n) for n in ns])

    with np.errstate(all="ignore"):
        want = _outcome(one_by_one)
        got = _outcome(lambda: iterate(scheme, f, x, np.array(ns)))
        single = _outcome(lambda: iterate(scheme, f, x, ns[0]))
        single_want = _outcome(lambda: reference_iterate(scheme, f, x, ns[0]))
    assert got == want
    assert single == single_want


def test_uniqueness_windows_use_the_stacked_iterates():
    f = TestFunction.scalar(quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),))
    res = uniqueness_crosscheck(Scheme.QUADRATIC_UP, f, np.array([1.0]), (10, 20), (21, 40))
    assert _bits(res.limit_1) == _bits(reference_iterate(Scheme.QUADRATIC_UP, f, [1.0], 20))
    assert _bits(res.limit_2) == _bits(reference_iterate(Scheme.QUADRATIC_UP, f, [1.0], 40))
    with pytest.raises(ScaleError) as err:
        uniqueness_crosscheck(Scheme.QUADRATIC_UP, f, np.array([1e60]), (2, 5), (300, 310))
    with pytest.raises(ScaleError) as want:
        reference_iterate(Scheme.QUADRATIC_UP, f, [1e60], 309)
    assert (err.value.n, str(err.value)) == (309, str(want.value))
