"""The stacked extraction against the sequential scheme loop.

``reference_extract_limit`` is the loop that ``extract_limit`` replaced: it
evaluates one iterate per step through ``reference_iterate`` and applies the
stop rule step by step.  ``extract_limit`` evaluates the iterates
n = 0..N_MAX in one call of ``f`` and finds the stop, ``n_used``,
``converged`` and ``ratio_estimate`` with array tests.  It
must reproduce the loop exactly: the limit by bytes, as the loop's last
iterate, ``n_used``, ``converged``, ``stopped_reason``, the bits of
``ratio_estimate``, and the ``ScaleError`` (step and message) when the loop
reaches the overflow guard.  ``f`` must never be called at or beyond a
guard.

``reference_extract_components`` is the per-point loop that
``extract_components`` replaced: one ``extract_limit`` call per point,
each deciding its point alone, as a one-point stack.
``extract_components`` decides a block of points at once: the points that
share a guard share one call of ``f`` on the steps before it within the
block's step window, their runs are decided as arrays, and each point is
handed its finished result.  The first block's window is every step
n = 0..N_MAX, and each later block's n = 0..max(n_used) of the block
before it; the runs that the window cuts before their guard share one
more call on every step before it.  It must give the same results, every
field bit for bit, and raise the same ``ScaleError`` naming the same point
(the first that fails, in order), also where a point's iterates turn NaN
or inf, where finite iterates have an overflowing norm, at the origin,
and where a run stops after the window of the block before it.
``_window_calls`` derives the calls of ``f`` that the window rule makes
from the loop's runs.

``_log_average`` is the rule of ``ratio_estimate`` before its closed form
(d_k / d_0)^(1/k): the ratio must equal it within the rounding bound that
``assert_near_log_average`` derives.
"""

import functools
import math
import operator
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzystab import extraction
from fuzzystab.errors import ScaleError
from fuzzystab.extraction import (
    N_MAX,
    OVERFLOW_LIMIT,
    TOL,
    UNDERFLOW_LIMIT,
    ExtractedComponent,
    Scheme,
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
        if float(np.linalg.norm(arg)) > OVERFLOW_LIMIT:
            size = math.hypot(*arg.tolist())  # finite for a finite argument, unlike the squares
            raise ScaleError(
                f"scaled argument norm {size:.3e} exceeds {OVERFLOW_LIMIT:.0e} "
                f"at n={n} for {scheme.value}",
                scheme=scheme.value,
                n=n,
            )
        return np.ldexp(np.asarray(f(arg), dtype=float), -scheme.value_shift * n)
    arg = np.ldexp(v, -n)
    return np.ldexp(np.asarray(f(arg), dtype=float), scheme.value_shift * n)


def _decay_rate(diffs: list[float]) -> float:
    """Geometric mean of the first k consecutive ratios of the recorded
    differences, all but the last when there are two or more: (d_k / d_0)^(1/k),
    0.0 for k = 0."""
    k = len(diffs) - 1 - (len(diffs) >= 3)
    return (diffs[k] / diffs[0]) ** (1.0 / k) if k > 0 else 0.0


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
    ratio = _decay_rate(diffs)
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
        out = (out.limit_value, out.converged, out.ratio_estimate, out.n_used, out.stopped_reason)
    elif isinstance(out, tuple):  # the loop's, whose limit is its last iterate
        _, trail, *diagnostics = out
        out = (trail[-1][1], *diagnostics)
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
    # The rows of each call are compared whatever its leading point axis.
    guard = _first_guard(scheme, x)
    calls = [min(N_MAX + 1, guard)] if looped.calls else []
    v = np.atleast_1d(np.asarray(x, dtype=float))
    rows = [args.reshape(-1, len(v)) for args in recorder.calls]
    assert [len(args) for args in rows] == calls
    for args in rows:
        steps = np.arange(len(args))[:, None]
        expected = np.ldexp(v, steps if scheme.is_up else -steps)
        assert _bits(args) == _bits(expected)


def _window_calls(scheme: Scheme, f, xs, block: int) -> list[tuple[int, ...]]:
    """The shapes of the calls of ``f`` that ``ExtractedComponent.extract``
    makes on the stack ``xs`` in blocks of ``block`` points, by the window
    rule, from the sequential loop's runs.

    Each block makes one call per distinct guard, the least first, on the
    steps before it within the window of its points that share it, then one
    more on every step before the guard of those whose runs the window cut:
    a run that the loop does not stop inside the window, converged or for a
    stated kind.  A guard at n = 0 makes none.  The first block's window is
    n = 0..N_MAX, each later one's n = 0..max(n_used) of the block before
    it, and no block follows one whose loop raises.
    """
    calls, window = [], N_MAX + 1
    for i in range(0, len(xs), block):
        points = xs[i : i + block]
        runs = []  # (n_used, stopped) of each point's loop, None if it raises
        for x in points:
            try:
                with np.errstate(all="ignore"):
                    _, _, converged, _, n_used, reason = reference_extract_limit(scheme, f, x)
            except ScaleError:
                runs.append(None)
            else:
                stopped = converged or reason.startswith(("non-finite", "iterate norm"))
                runs.append((n_used, stopped))
        guards = [_first_guard(scheme, x) for x in points]
        for g in sorted(set(guards) - {0}):
            group = [run for run, guard in zip(runs, guards) if guard == g]
            calls.append((len(group), min(g, window), len(points[0])))
            late = [run for run in group if run is None or not (run[1] and run[0] < window)]
            if window < g and late:
                calls.append((len(late), g, len(points[0])))
        if None in runs:
            break
        window = 1 + max(n_used for n_used, _ in runs)
    return calls


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


#: Points at and near the guards, non-finite and overflowing iterates, and
#: points of several dimensions, each run by every scheme.
_EDGE_CASES = pytest.mark.parametrize(
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


@pytest.mark.parametrize("scheme", list(Scheme))
@_EDGE_CASES
def test_edge_cases_equal_sequential_loop(scheme, f, x):
    assert_matches_reference(scheme, f, np.array(x))


def _log_average(diffs: list[float]) -> float:
    """The rule of ratio_estimate before its closed form: the log-average of
    the consecutive ratios of the recorded differences, the last ratio
    dropped when there are two or more, the ratio itself when all kept ones
    are equal, and 0.0 when none is kept or one is <= 0."""
    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
    if not ratios:
        return 0.0
    trimmed = ratios[:-1] if len(ratios) >= 2 else ratios
    least = min(trimmed)
    if least == max(trimmed):
        return trimmed[0]
    if least <= 0.0:
        return 0.0
    # the builtin sum compensates its additions from Python 3.12 on
    return math.exp(functools.reduce(operator.add, map(math.log, trimmed), 0.0) / len(trimmed))


def assert_near_log_average(ratio: float, diffs: list[float]) -> None:
    """``ratio``, the closed form (d_k / d_0)^(1/k) of the recorded
    differences ``diffs``, equals their :func:`_log_average` but for
    rounding.

    Both estimate exp(mu), mu = log(d_k / d_0) / k, which the k exact ratios
    d_{i+1} / d_i telescope to.  With u = 2^-53, every ratio, quotient and
    product rounding to within u, log, exp and pow to within one ulp (2u
    relative), and L the sum of |log r_i| over the k kept ratios r_i:

    - the log-average rounds each ratio, which moves its log by u, so the
      mean by u; it rounds each log by 2u |log r_i|, their sum in order by
      gamma_{k-1} L, gamma_m = m u / (1 - m u), and the division by k by
      u L / k.  Its log is within u + (3u + gamma_{k-1}) L / k of mu, and
      exp adds 2u;
    - the closed form rounds d_k / d_0, which moves its log by u / k, and
      1 / k, which moves it by u |mu| <= u L / k; pow adds 2u.

    The two logs differ by at most B = (5 + 1/k) u + (4u + gamma_{k-1}) L / k,
    and the ratio of the two by expm1(B) <= 2B: twice B also covers the
    neglected terms, of order (k u)^2 (1 + L).  A run with no kept ratio, or
    a kept ratio of 0, gives 0.0 both ways.
    """
    old = _log_average(diffs)
    k = len(diffs) - 1 - (len(diffs) >= 3)
    if old == 0.0 or k <= 0:
        assert ratio == old == 0.0
        return
    spread = sum(abs(math.log(b / a)) for a, b in zip(diffs, diffs[1 : k + 1]))
    u = 2.0**-53
    gamma = (k - 1) * u / (1 - (k - 1) * u)
    bound = 2 * ((5 + 1 / k) * u + (4 * u + gamma) * spread / k)
    assert abs(ratio / old - 1.0) <= bound, (ratio, old, bound)


def _recorded_diffs(trail, reason: str) -> list[float]:
    """The differences that the sequential loop records along its trail:
    every one but that of a step with a non-finite iterate or norm."""
    diffs = [float(np.linalg.norm(b - a)) for (_, a), (_, b) in zip(trail, trail[1:])]
    return diffs[: len(diffs) - reason.startswith(("non-finite", "iterate norm"))]


def assert_ratio_near_log_average(scheme, f, x):
    with np.errstate(all="ignore"):
        try:
            _, trail, *_, reason = reference_extract_limit(scheme, f, x)
        except ScaleError:
            return
        diffs = _recorded_diffs(trail, reason)
    assert_near_log_average(extract_limit(scheme, f, x).ratio_estimate, diffs)


@pytest.mark.parametrize("scheme", list(Scheme))
@_EDGE_CASES
def test_edge_case_ratios_are_the_log_average(scheme, f, x):
    assert_ratio_near_log_average(scheme, f, np.array(x))


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_ratios_are_the_log_average(case):
    assert_ratio_near_log_average(**case)


@st.composite
def _geometric_rows(draw):
    """A stack ``(P, K, 1)`` of iterate rows whose successive differences
    grow or shrink by a drawn factor at each step."""
    count, steps = draw(st.integers(1, 4)), draw(st.integers(1, N_MAX + 1))
    rows = []
    for _ in range(count):
        value, step = draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 10.0))
        row = [value]
        for _ in range(steps - 1):
            value += draw(st.sampled_from([step, -step]))
            step *= draw(st.floats(0.05, 2.0))
            row.append(value)
        rows.append(row)
    return np.array(rows)[..., None]


@settings(max_examples=200, deadline=None)
@given(_geometric_rows())
def test_settled_ratios_are_the_log_average(rows):
    # finite rows record the differences up to n_used
    _, n_used, _, kinds, ratios = extraction._settle(rows)
    for row, n, kind, ratio in zip(rows, n_used, kinds, ratios):
        assert kind == ""
        diffs = [float(np.linalg.norm(b - a)) for a, b in zip(row, row[1:])]
        assert_near_log_average(ratio, diffs[:n])


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
        calls = _window_calls(schemes[0], f, xs, 3)
        assert [args.shape for args in recorder.calls] == calls


#: x^2 - y^2 at 1e308: 0 at (1, 1), where the quadratic form is 1e308 - 1e308,
#: and inf - inf, so NaN, at (2, 2).
_NAN_AT_TWO = TestFunction(coords=(CoordinatePoly(quad=1e308 * np.diag([1.0, -1.0])),), dim_x=2)


#: x + 1 + sin: quadratic_up and the down-schemes run on to their guards.
_LINE_ONE = TestFunction.scalar(
    linear=1.0, const=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),)
)

#: One block whose up-scheme guards are none, 34, none, 34, none, 37, none,
#: 0, none, and whose down-scheme guards are none, 17, none, 17, none, 25,
#: none, none, none.
_GROUPED = np.array([0.7, 1e140, 1e-135, -1e140, -1e-135, 1e139, 3e-133, 2e150, -2.5])[:, None]


@st.composite
def _blocks(draw):
    """One block of points under one scheme and source."""
    dim = draw(st.integers(1, 3))
    f = draw(_test_functions(dim))
    return dict(
        scheme=draw(st.sampled_from(list(Scheme))),
        f=_source(f, draw(st.sampled_from(sorted(_SOURCES)))),
        xs=np.array(draw(st.lists(_points(dim), min_size=1, max_size=8))),
    )


# a NaN at n = 1 after a finite iterate, and an inf at n = 1 after a finite
# iterate whose norm overflows, beside points at the origin
@example(dict(scheme=Scheme.QUADRATIC_UP, f=_NAN_AT_TWO, xs=np.array([[1.0, 1.0], [0.0, 0.0]])))
@example(dict(scheme=Scheme.ADDITIVE_UP, f=_NAN_AT_TWO, xs=np.array([[0.7, -0.2], [1.0, 1.0]])))
@example(
    dict(
        scheme=Scheme.QUADRATIC_UP,
        f=TestFunction.scalar(quad=1e308),
        xs=np.array([[1.0], [0.0], [1.9], [1e-3], [0.7]]),
    )
)
# finite iterates whose norm overflows, beside the origin and a guarded point
@example(
    dict(
        scheme=Scheme.QUADRATIC_DOWN,
        f=TestFunction.scalar(quad=1e200, perturbations=(Perturbation(shape="cos", amplitude=0.01),)),
        xs=np.array([[0.7], [1.0], [0.0], [-2.5], [1e-135]]),
    )
)
# one block mixing guard groups: free points, two points that share a guard
# under each direction, a point with another guard, and 2e150, whose
# up-scheme guard trips at n = 0; quadratic_up runs on to the guard at
# 1e140, so its error names that point and not the later 2e150
@example(dict(scheme=Scheme.QUADRATIC_UP, f=_LINE_ONE, xs=_GROUPED))
@example(dict(scheme=Scheme.ADDITIVE_UP, f=_LINE_ONE, xs=_GROUPED))
@example(dict(scheme=Scheme.QUADRATIC_DOWN, f=_LINE_ONE, xs=_GROUPED))
@example(dict(scheme=Scheme.ADDITIVE_DOWN, f=_LINE_ONE, xs=_GROUPED))
@settings(max_examples=300, deadline=None)
@given(_blocks())
def test_block_hand_off_equals_standalone_extraction(case):
    # inside one block, each point handed its share of the block's decision
    # gives the result of extract_limit deciding the point alone, field by
    # field and bit for bit; that in turn is the sequential loop's, reason
    # texts included
    scheme, f, xs = case["scheme"], case["f"], case["xs"]
    assert len(xs) <= extraction.BLOCK_POINTS
    want = _results_outcome(lambda: reference_extract_components(f, (scheme,), xs))
    got = _results_outcome(lambda: [ExtractedComponent(scheme, f).extract(xs)])
    assert got == want
    for x in xs:
        assert_matches_reference(scheme, f, x)


@settings(max_examples=200, deadline=None)
@given(_blocks(), st.integers(1, 3))
@example(dict(scheme=Scheme.QUADRATIC_UP, f=_LINE_ONE, xs=_GROUPED), 2)
@example(dict(scheme=Scheme.QUADRATIC_DOWN, f=_LINE_ONE, xs=_GROUPED), 2)
@example(dict(scheme=Scheme.ADDITIVE_DOWN, f=_LINE_ONE, xs=_GROUPED), 3)
def test_blocks_in_windows_equal_standalone_extraction(case, block):
    # in blocks of 1 to 3 points, each later block evaluated in the step
    # window of the block before it, every point gets the result of
    # extract_limit deciding it alone, bit for bit, or the same ScaleError
    # naming the same point, and f is called as the window rule says
    scheme, f, xs = case["scheme"], case["f"], case["xs"]
    recorder = _Recorder(f)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "BLOCK_POINTS", block)
        got = _results_outcome(lambda: [ExtractedComponent(scheme, recorder).extract(xs)])
    assert got == _results_outcome(lambda: reference_extract_components(f, (scheme,), xs))
    assert [args.shape for args in recorder.calls] == _window_calls(scheme, f, xs, block)


@pytest.mark.parametrize(
    "scheme, f, xs, calls, named",
    [
        # the first block evaluates every step; 1e-3 and -1e-3 stop at
        # n = 1, so the second block evaluates n = 0..1 and re-runs 0.7,
        # which stops at n = 12; the third evaluates n = 0..12 and re-runs
        # 1e3, which stops at n = 23
        pytest.param(
            Scheme.ADDITIVE_DOWN,
            _LINE_SIN,
            [1e-3, -1e-3, 0.7, 1e-3, 1e3],
            [(2, N_MAX + 1, 1), (2, 2, 1), (1, N_MAX + 1, 1), (1, 13, 1), (1, N_MAX + 1, 1)],
            None,
            id="stops_after_the_window",
        ),
        # 0.7 runs to N_MAX unconverged, so the second block evaluates every
        # step; -1e-135 and 1e-135 run to their underflow guard at 17, so
        # the third evaluates n = 0..16 and re-runs 1e-133 to its guard at
        # 24 and 0.7 to N_MAX
        pytest.param(
            Scheme.QUADRATIC_DOWN,
            _LINE_ONE,
            [0.7, 1e-133, 1e-135, -1e-135, 1e-133, 0.7],
            [(1, 24, 1), (1, N_MAX + 1, 1), (2, 17, 1)]
            + [(1, 17, 1), (1, 24, 1), (1, 17, 1), (1, N_MAX + 1, 1)],
            None,
            id="after_unconverged_and_guarded_runs",
        ),
        # 1e3 runs to n = 40, so the overflow guard of 1e140 at 34 trips
        # inside the second block's window
        pytest.param(
            Scheme.QUADRATIC_UP,
            _LINE_SIN,
            [1e3, 0.7, 1e140, 0.5],
            [(2, N_MAX + 1, 1), (1, 34, 1), (1, N_MAX + 1, 1)],
            "1e+140",
            id="overflow_inside_the_window",
        ),
        # 1e-3 stops at n = 20, so the second block evaluates n = 0..20 and
        # re-runs 1e139 to its overflow guard at 37, and 0.7
        pytest.param(
            Scheme.QUADRATIC_UP,
            _LINE_SIN,
            [1e-3, -1e-3, 0.7, 1e139],
            [(2, N_MAX + 1, 1), (1, 21, 1), (1, 37, 1), (1, 21, 1), (1, N_MAX + 1, 1)],
            "1e+139",
            id="overflow_after_the_window",
        ),
    ],
)
def test_runs_past_the_window_are_evaluated_again(monkeypatch, scheme, f, xs, calls, named):
    monkeypatch.setattr(extraction, "BLOCK_POINTS", 2)
    xs = [np.array([x]) for x in xs]
    want = _results_outcome(lambda: reference_extract_components(f, (scheme,), xs))
    recorder = _Recorder(f)
    got = _results_outcome(lambda: extract_components(recorder, (scheme,), xs)[1])
    assert got == want
    assert (want[0] == "ScaleError") == (named is not None)
    if named is not None:
        assert want[1].endswith(f" for {scheme.value} at x=[{named}]")
    assert [args.shape for args in recorder.calls] == calls == _window_calls(scheme, f, xs, 2)


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
