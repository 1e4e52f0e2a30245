"""The stacked extraction against the sequential scheme loop.

``reference_extract_limit`` is the loop that ``extract_limit`` replaced: it
evaluates one iterate per step through ``reference_iterate`` and applies the
stop rule step by step.  ``extract_limit`` evaluates the iterates
n = 0..N_MAX in one call of ``f`` and finds the stop with array tests.  It
must reproduce the loop exactly: the limit and every iterate by bytes,
``n_used``, ``converged``, ``stopped_reason``, the bits of
``ratio_estimate``, and the ``ScaleError`` (step and message) when the loop
reaches the overflow guard.  ``f`` must never be called at or beyond a
guard.

``reference_extract_components`` is the per-point loop that
``extract_components`` replaced: one ``extract_limit`` call per point.
``extract_components`` evaluates a block of points in one call of ``f``
and must give the same results, and raise the same ``ScaleError`` naming
the same point.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzystab import extraction
from fuzzystab.errors import ScaleError
from fuzzystab.extraction import (
    N_MAX,
    OVERFLOW_LIMIT,
    TOL,
    UNDERFLOW_LIMIT,
    Scheme,
    _decay_rate,
    extract_components,
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


def reference_extract_limit(scheme: Scheme, f, x):
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
    n_used = N_MAX
    for n in range(1, N_MAX + 1):
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
        if diff <= TOL * (1.0 + size):
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


def _first_guard(scheme: Scheme, x) -> int:
    """First n <= N_MAX at which the sequential loop meets a guard, else N_MAX + 1."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        x_norm = float(np.linalg.norm(v))
    for n in range(N_MAX + 1):
        if scheme.is_up:
            with np.errstate(over="ignore"):
                if float(np.linalg.norm(np.ldexp(v, n))) > OVERFLOW_LIMIT:
                    return n
        elif n > 0 and x_norm != 0.0 and np.ldexp(x_norm, -n) < UNDERFLOW_LIMIT:
            return n
    return N_MAX + 1


def assert_matches_reference(scheme, f, x):
    looped = _Recorder(f)
    with np.errstate(all="ignore"):
        want = _outcome(lambda: reference_extract_limit(scheme, looped, x))
    recorder = _Recorder(f)
    got = _outcome(lambda: extract_limit(scheme, recorder, x))
    assert got == want
    # One call on steps 0 up to N_MAX, cut before the first guard; none if
    # the loop evaluates no step, which is when the guard trips at n = 0.
    guard = _first_guard(scheme, x)
    calls = [min(N_MAX + 1, guard)] if looped.calls else []
    assert [len(args) for args in recorder.calls] == calls
    v = np.atleast_1d(np.asarray(x, dtype=float))
    for args in recorder.calls:
        steps = np.arange(len(args))[:, None]
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
        (_SQUARE_COS, [5e-141]),  # below the underflow guard already: it trips at n=1
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
    assert_matches_reference(scheme, f, np.array(x))


def reference_extract_components(f, schemes, xs):
    """The per-point loop: the results of each scheme at each of xs, in order."""
    sources = (even_part(f), odd_part(f)) if len(schemes) == 2 else (f,)
    results = []
    for scheme, source in zip(schemes, sources):
        results.append([])
        for x in xs:
            try:
                results[-1].append(extract_limit(scheme, source, x))
            except ScaleError as exc:
                message = f"{exc} at x={np.asarray(x, float).tolist()}"
                raise ScaleError(message, scheme=exc.scheme, n=exc.n) from exc
    return results


def _results_outcome(run):
    """Bits of every field of every result, or the identity of the ScaleError."""
    try:
        results = run()
    except ScaleError as exc:
        return ("ScaleError", str(exc), exc.n, exc.scheme)
    return [
        [_bits(tuple(getattr(r, field.name) for field in fields(r))) for r in at_xs]
        for at_xs in results
    ]


#: Even part x^2 + cos, odd part x + sin: every scheme stops on its part
#: before the guard at 1e140 or 1e-135.
_MIXED = TestFunction.scalar(
    quad=1.0,
    linear=0.5,
    perturbations=(
        Perturbation(shape="cos", amplitude=0.01),
        Perturbation(shape="sin", amplitude=0.1),
    ),
)

_SCHEME_LISTS = [(s,) for s in Scheme] + [
    (Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP),
    (Scheme.QUADRATIC_DOWN, Scheme.ADDITIVE_DOWN),
    (Scheme.QUADRATIC_UP, Scheme.ADDITIVE_DOWN),
]


def _component_outcome(run):
    """The bytes of a component's values, or the identity of the ScaleError."""
    try:
        values = run()
    except ScaleError as exc:
        return ("ScaleError", str(exc), exc.n, exc.scheme)
    return _bits(values)


def reference_component_values(component, xs):
    """The per-point reference of a component at each of xs, stacked: +0.0
    at the origin, else the limit of extract_limit alone."""
    rows = []
    for x in xs:
        if not x.any():
            rows.append(np.zeros(1))
            continue
        try:
            rows.append(extract_limit(component.scheme, component.source, x).limit_value)
        except ScaleError as exc:
            message = f"{exc} at x={np.asarray(x, float).tolist()}"
            raise ScaleError(message, scheme=exc.scheme, n=exc.n) from exc
    return np.array(rows).reshape(len(xs), 1)


def _mixed_points(schemes, order):
    """Seven points: guard-free ones (0 among them), the guarded 1e-135 and
    1e140, and NaN, whose f is non-finite; "guarded_first" fills the first
    block of 3 with points whose guard trips under the first scheme."""
    if order == "mixed":
        return [0.7, 0.0, 1e-135, math.nan, 1e140, -2.5, 1e-3]
    guarded = 1e140 if schemes[0].is_up else 1e-135
    return [guarded, 2 * guarded, -guarded, 0.7, guarded, 0.0, math.nan]


@pytest.mark.parametrize("order", ["mixed", "guarded_first"])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7])
@pytest.mark.parametrize("schemes", _SCHEME_LISTS, ids=lambda s: "+".join(x.value for x in s))
def test_blocked_extraction_equals_per_point_loop(monkeypatch, schemes, count, order):
    monkeypatch.setattr(extraction, "BLOCK_POINTS", 3)
    xs = [np.array([x]) for x in _mixed_points(schemes, order)[:count]]
    f = _MIXED if len(schemes) == 2 else (even_part if schemes[0].is_quadratic else odd_part)(_MIXED)
    want = _results_outcome(lambda: reference_extract_components(f, schemes, xs))
    recorder = _Recorder(f)
    got = _results_outcome(
        lambda: extract_components(recorder if len(schemes) == 1 else f, schemes, xs)[1]
    )
    assert got == want
    assert len(want) == len(schemes) and all(len(at_xs) == count for at_xs in want)
    # each component, called once on the stack of the points, gives the
    # per-point values row by row: +0.0 at the origin, NaN where f is not
    # finite, else the limit
    stack = np.array(xs).reshape(count, 1)
    for component in extract_components(f, schemes, [])[0]:
        got = _component_outcome(lambda: component(stack))
        assert got == _component_outcome(lambda: reference_component_values(component, xs))
        if got[0] != "ScaleError":
            values = np.frombuffer(got[2]).reshape(count, 1)
            assert values[stack == 0].tobytes() == bytes(8 * np.count_nonzero(stack == 0))
            assert np.isnan(values[np.isnan(stack)]).all()
    if len(schemes) == 1:
        # one call per block on the steps 0..N_MAX of its guard-free points,
        # none for a block without one; a guarded point calls f on its own
        free = [_first_guard(schemes[0], x) > N_MAX for x in xs]
        blocks = [sum(free[i : i + 3]) for i in range(0, count, 3)]
        stacked = [args.shape for args in recorder.calls if args.ndim == 3]
        assert stacked == [(p, N_MAX + 1, 1) for p in blocks if p]
        assert len(recorder.calls) == len(stacked) + sum(
            0 < _first_guard(schemes[0], x) <= N_MAX for x in xs
        )


@pytest.mark.parametrize("block", [1, 2, 3, 199])
def test_blocked_extraction_names_the_overflowing_point(monkeypatch, block):
    # quadratic_up of a line stops at 0.7 and never before the guard at
    # 1e140, so the loop raises at the second point; the third is not decided
    monkeypatch.setattr(extraction, "BLOCK_POINTS", block)
    xs = [np.array([0.7]), np.array([1e140]), np.array([0.5])]
    with pytest.raises(ScaleError) as want:
        reference_extract_components(_LINE_SIN, (Scheme.QUADRATIC_UP,), xs)
    with pytest.raises(ScaleError) as got:
        extract_components(_LINE_SIN, (Scheme.QUADRATIC_UP,), xs)
    assert str(want.value).endswith(" at n=34 for quadratic_up at x=[1e+140]")
    assert (str(got.value), got.value.n, got.value.scheme) == (
        str(want.value),
        want.value.n,
        want.value.scheme,
    )
    # the component on the stack of the points raises the same error
    (component,), _ = extract_components(_LINE_SIN, (Scheme.QUADRATIC_UP,), [])
    assert _component_outcome(lambda: component(np.array(xs))) == _component_outcome(
        lambda: reference_component_values(component, xs)
    ) == ("ScaleError", str(want.value), want.value.n, want.value.scheme)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_component_at_origin_points_extracts_nothing(monkeypatch, scheme):
    calls = []
    monkeypatch.setattr(
        extraction, "extract_limit", lambda *args: calls.append(args[2]) or extract_limit(*args)
    )
    (component,), _ = extract_components(_PLANE, (scheme,), [])
    stack = np.zeros((4, 2))
    values = component(stack)
    assert (values.shape, values.tobytes(), calls) == ((4, 1), bytes(8 * 4), [])
    # one nonzero point among them is the only one extracted
    stack[2] = (0.7, -1.3)
    limit = extract_limit(scheme, _PLANE, stack[2]).limit_value
    assert component(stack).tobytes() == bytes(8 * 2) + limit.tobytes() + bytes(8)
    assert [x.tolist() for x in calls] == [[0.7, -1.3]]


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


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
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
def test_guard_boundary_at_each_step_equals_sequential_loop(f, direction, scheme, n):
    # the one call is cut before step n for the tripping point and runs to
    # step n for the passing one; n = N_MAX is the straddle at the step cap
    passing, tripping = _straddle(scheme, direction, n)
    assert _first_guard(scheme, passing) == n + 1
    assert _first_guard(scheme, tripping) == n
    for x in (passing, tripping):
        assert_matches_reference(scheme, f, x)


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
def test_zero_and_non_finite_points_equal_sequential_loop(f, x, scheme):
    assert_matches_reference(scheme, f, np.array(x))


#: d == TOL * (1 + d): for f = 2d under additive_up at x = 0.5, v_0 = 2d and
#: v_1 = d, so the difference d equals its bound exactly.
AT_TOL = 1.0000000010000002e-09


def test_stop_rule_holds_at_equality():
    # the stop at equality converges at n = 1; one ulp more stops at n = 2
    assert AT_TOL == TOL * (1.0 + AT_TOL)
    for d, n_used in ((AT_TOL, 1), (math.nextafter(AT_TOL, 1.0), 2)):
        f = TestFunction.scalar(const=2.0 * d)
        assert_matches_reference(Scheme.ADDITIVE_UP, f, np.array([0.5]))
        r = extract_limit(Scheme.ADDITIVE_UP, f, np.array([0.5]))
        assert r.converged and r.n_used == n_used


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
