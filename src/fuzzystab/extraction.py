"""Direct-method iteration schemes and component extraction.

Each scheme rescales evaluations of f geometrically and converges, under a
suitable control hypothesis, to the quadratic or additive component of f:

    quadratic_up     f(2^n x) / 4^n
    quadratic_down   4^n f(x / 2^n)
    additive_up      f(2^n x) / 2^n
    additive_down    2^n f(x / 2^n)

All argument and value scalings are by powers of two and therefore exact in
floating point; exact quadratic (additive) solutions are bitwise fixed
points of their schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ScaleError
from .funceq import TestFunction, VectorFunction, even_part, odd_part, stacked_values
from .spaces import euclidean_norm

__all__ = [
    "Scheme",
    "ExtractionResult",
    "ExtractedComponent",
    "UniquenessResult",
    "iterate",
    "extract_limit",
    "extract_components",
    "uniqueness_crosscheck",
]

#: Up-schemes refuse arguments beyond this norm; quadratic images square it.
OVERFLOW_LIMIT = 1e150

#: Down-schemes stop once the rescaled argument drops below this norm.
UNDERFLOW_LIMIT = 1e-140

#: Stop tolerance: a run stops at the first ||v_n - v_{n-1}|| <= TOL * (1 + ||v_n||).
TOL = 1e-9

#: Last step of a run: one call of f evaluates n = 0..N_MAX.
N_MAX = 40

#: Points of a block in ``ExtractedComponent.extract``.  The first block
#: evaluates every step 0..N_MAX in one call of f, and no call evaluates
#: more rows: 199 points x 41 steps = 8159.
BLOCK_POINTS = 8192 // (N_MAX + 1)


class Scheme(Enum):
    QUADRATIC_UP = "quadratic_up"
    QUADRATIC_DOWN = "quadratic_down"
    ADDITIVE_UP = "additive_up"
    ADDITIVE_DOWN = "additive_down"

    # Each member computes these once: the envelope reads its rate and
    # direction at every (x, a) cell.
    @cached_property
    def is_up(self) -> bool:
        return self in (Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP)

    @cached_property
    def is_quadratic(self) -> bool:
        return self in (Scheme.QUADRATIC_UP, Scheme.QUADRATIC_DOWN)

    @cached_property
    def value_shift(self) -> int:
        """log2 of the per-step value rescaling (2 for quadratic, 1 for additive)."""
        return 2 if self.is_quadratic else 1

    @cached_property
    def rate(self) -> float:
        """The per-step value rescaling 2^value_shift: 4 or 2."""
        return float(2**self.value_shift)

    @property
    def alpha_interval(self) -> tuple[float, float]:
        """Admissible scaling factors for the paired control function:
        below the rate for an up-scheme, above it for a down-scheme."""
        return (0.0, self.rate) if self.is_up else (self.rate, math.inf)

    def admits_alpha(self, alpha: float) -> bool:
        lo, hi = self.alpha_interval
        return lo < alpha < hi

    @property
    def interval_label(self) -> str:
        return f"(0,{self.rate:g})" if self.is_up else f"(>{self.rate:g})"


def _overflow_error(scheme: Scheme, x: np.ndarray, n: int) -> ScaleError:
    """The error for the up-scheme argument 2^n x, which trips the overflow guard."""
    with np.errstate(over="ignore"):
        size = float(euclidean_norm(np.ldexp(np.atleast_1d(x), n)))
    return ScaleError(
        f"scaled argument norm {size:.3e} exceeds {OVERFLOW_LIMIT:.0e} "
        f"at n={n} for {scheme.value}",
        scheme=scheme.value,
        n=n,
    )


def _first_trips(scheme: Scheme, v: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Index in the 1-D ``steps`` of the first step at which the scheme's
    guard trips, ``len(steps)`` if none, for one point ``(dim_x,)``, shape
    ``()``, or point by point for a stack ``(P, dim_x)``, ``(P,)``.  The norm
    of 2^n v exceeds OVERFLOW_LIMIT (up), or that of a nonzero v / 2^n drops
    below UNDERFLOW_LIMIT at n >= 1, as v itself is always evaluated (down).
    Both are monotone in n, so each point's largest step alone tells whether
    any trips, and the steps are searched only for the points where one does."""

    def trips(v, n):
        if scheme.is_up:
            return euclidean_norm(np.ldexp(v, np.expand_dims(n, -1))) > OVERFLOW_LIMIT
        x_norm = euclidean_norm(v)
        # The power of two scales exactly, as ldexp does, also on a Python float.
        return (n > 0) & (x_norm != 0.0) & (x_norm * 2.0**-n < UNDERFLOW_LIMIT)

    first = np.full(np.shape(v)[:-1], len(steps))
    tripped = np.asarray(trips(v, steps.max(initial=0))) & bool(len(steps))
    if tripped.any():
        first[tripped] = np.argmax(trips(v[tripped], steps[:, None]), axis=0)
    return first


def iterate(scheme: Scheme, f: VectorFunction, x: np.ndarray, n) -> np.ndarray:
    """Scheme iterate(s) at x for one index n or a 1-D array of indices.

    ``x`` is one point ``(dim_x,)`` or a stack of points ``(P, dim_x)``.  One
    index gives the n-th iterate, ``(dim_y,)`` or ``(P, dim_y)``.  An array
    of indices gives one iterate per index, stacked in that order,
    ``(len(n), dim_y)`` or ``(P, len(n), dim_y)``, from one call of ``f`` on the stacked
    arguments; ``f`` must map points ``(..., dim_x)`` to ``(..., dim_y)``
    row by row, as ``TestFunction`` does.

    Raises :class:`ScaleError` at the first index whose up-scheme argument
    exceeds the overflow guard, for the first point that has one, before
    ``f`` is called.  Scalings use exact powers of two.
    """
    ns = np.asarray(n)
    if ns.size and ns.min() < 0:
        raise ValueError("iteration index must be >= 0")
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if scheme.is_up:
        # an empty index array scales no argument
        with np.errstate(over="ignore"):
            first = np.ravel(_first_trips(scheme, v, ns.reshape(-1)))
        if (first < ns.size).any():
            p = int(np.argmax(first < ns.size))
            raise _overflow_error(scheme, v.reshape(-1, v.shape[-1])[p], int(ns.flat[first[p]]))
    return _evaluate(scheme, f, v, ns)


def _evaluate(scheme: Scheme, f: VectorFunction, v: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """:func:`iterate` at the float points ``v`` and the indices ``ns``
    without the guard, which the caller has cut ``ns`` before."""
    steps = ns[:, None] if ns.ndim else ns
    # A point's steps stack along the axis before its coordinates.
    points = v[..., None, :] if ns.ndim else v
    shift = -scheme.value_shift if scheme.is_up else scheme.value_shift
    args = np.ldexp(points, steps if scheme.is_up else -steps)
    return np.ldexp(stacked_values(f, args), shift * steps)


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Limit of one scheme run with its convergence diagnostics; the run's
    trail n = 0..n_used is ``iterate(scheme, f, x, np.arange(n_used + 1))``."""

    limit_value: np.ndarray  # the iterate n = n_used
    converged: bool
    ratio_estimate: float
    n_used: int
    stopped_reason: str = ""


def _step_norms(rows: np.ndarray) -> np.ndarray:
    """Norms of the K - 1 successive differences of the K iterate rows ``(...,
    K, dim_y)``, then of the rows themselves: ``(..., 2K - 1)``.

    One stacked :func:`euclidean_norm` call norms each vector alone, so every
    norm keeps its bits.  Differences past a stop may overflow or be
    inf - inf; the caller's ``errstate`` decides whether that warns.
    """
    return euclidean_norm(np.concatenate((rows[..., 1:, :] - rows[..., :-1, :], rows), axis=-2))


def _first_stop(diffs: np.ndarray, sizes: np.ndarray, tol: float) -> np.ndarray | np.integer:
    """Index of the first difference that stops each run, over the last axis,
    and that axis' length if none; ``sizes`` are the norms of the iterate
    each difference leads to.

    The run goes on while a difference is finite and above its bound.  An
    overflowing norm makes the bound infinite, so it stops the run too, and
    the caller tells that stop from convergence.
    """
    goes_on = (tol * (1.0 + sizes) < diffs) & (diffs < math.inf)
    return np.logical_and.accumulate(goes_on, axis=-1).sum(axis=-1)


#: Why a run stops unconverged before its guard, by code ("" if it does not).
_STOP_KINDS = np.array(["", "iterate norm overflows", "non-finite iterate"])


def _settle(rows: np.ndarray, tol: float = TOL) -> tuple[np.ndarray, list, list, list, list]:
    """The runs of the points whose iterate rows are ``rows`` ``(P, K,
    dim_y)``: their limits, each point's iterate n = ``n_used``, as one array
    ``(P, dim_y)``, then their ``n_used``, ``converged``, kind and
    ``ratio_estimate`` as lists, decided as arrays from the rows'
    :func:`_step_norms` and :func:`_first_stop` with the stop tolerance
    ``tol``.

    A ratio near 1/4 (1/2) marks clean geometric decay of a quadratic
    (additive) defect, one >= 1 divergence.
    """
    norms = _step_norms(rows)
    at, k = np.arange(len(rows)), rows.shape[1] - 1
    diffs = norms[:, :k]
    stops = _first_stop(diffs, norms[:, k + 1 :], tol)
    # The difference norms[j] and the size norms[k + 1 + j] belong to
    # n = j + 1; a run that goes on to n = k has no stop of its own, and a
    # non-finite first iterate stops its run at n = 0 (its stop is 0).
    n_used = np.minimum(stops + np.isfinite(rows[:, 0]).all(axis=-1), k)
    ends = norms[at, np.stack((stops, np.minimum(stops + k + 1, 2 * k)))]
    converged = (stops < k) & np.isfinite(ends).all(axis=0)
    # Every iterate before a stop is finite, so the last reported one tells
    # a non-finite iterate from an overflowing norm.
    limits = rows[at, n_used]
    kinds = np.where(np.isfinite(limits).all(axis=-1), (stops < k) & ~converged, 2)
    # The recorded differences d_i are those that went on and a converged
    # stop's own.  ratio_estimate is the geometric mean of the first j of
    # their consecutive ratios, all but the last when there are two or more,
    # so (d_j / d_0)^(1/j), or 0.0 for j = 0: one Python power per point.
    # d_j is norms[:, j], also indexable where a run has one row and no d_0.
    recorded = stops + converged
    kept = np.maximum(recorded - 1, 0) - (recorded >= 3)
    live = np.flatnonzero(kept)
    ratio = np.zeros(len(rows))
    spans = (norms[live, kept[live]] / norms[live, 0]).tolist()
    ratio[live] = [q ** (1.0 / j) for q, j in zip(spans, kept[live].tolist())]
    return limits, n_used.tolist(), converged.tolist(), _STOP_KINDS[kinds].tolist(), ratio.tolist()


def _decide(
    scheme: Scheme, f: VectorFunction, points: np.ndarray, window: int = N_MAX + 1
) -> list[ExtractionResult | ScaleError]:
    """The finished result of each point of the stack ``points``, in order,
    or the :class:`ScaleError` its :func:`extract_limit` raises.

    :func:`_first_trips` finds each point's guard.  The points that share
    a guard share one evaluation of their first ``window`` steps before it,
    so one call of ``f``, and :func:`_settle` decides their runs as arrays,
    once; the points whose run reaches the window's end before the guard unconverged,
    and with no stop of its own, share one more evaluation, of every step
    before the guard.  As :func:`_settle` decides each point from its own
    rows, a run that stops inside the window stops as it would on all its
    steps.  A point whose guard trips at n = 0 is not evaluated.  A run
    that reaches its guard unconverged stops there, worded once per guard,
    and an up-scheme one gets the overflow error in place of a result.  The
    results hold the limits only, so the evaluated rows are freed on return.
    """
    outcomes = [None] * len(points)
    # Rows past a point's stop may overflow or hold inf - inf; they are
    # never reported.
    with np.errstate(all="ignore"):
        guards = _first_trips(scheme, points, np.arange(N_MAX + 1))
        for guard in sorted(set(guards.tolist())):
            at = np.flatnonzero(guards == guard).tolist()
            if guard:
                rows = _evaluate(scheme, f, points[at], np.arange(min(guard, window)))
                settled = list(zip(*_settle(rows)))
                # the runs that the window cut before their guard: neither
                # converged (s[2]) nor stopped by a kind (s[3])
                late = [j for j, s in enumerate(settled) if window < guard and not (s[2] or s[3])]
                if late:
                    rows = _evaluate(scheme, f, points[[at[j] for j in late]], np.arange(guard))
                    for j, s in zip(late, zip(*_settle(rows))):
                        settled[j] = s
            else:
                settled = repeat((None, 0, False, "", 0.0))
            # The reason of a run that reaches its guard unconverged, None
            # for the overflow error
            underflow = f"rescaled argument below {UNDERFLOW_LIMIT:.0e} at n={guard}"
            at_guard = "" if guard > N_MAX else None if scheme.is_up else underflow
            for i, (limit, n_used, converged, kind, ratio) in zip(at, settled):
                reason = f"{kind} at n={n_used}" if kind else "" if converged else at_guard
                outcomes[i] = (
                    ExtractionResult(limit, converged, ratio, n_used, reason)
                    if reason is not None
                    else _overflow_error(scheme, points[i], guard)
                )
    return outcomes


def extract_limit(
    scheme: Scheme,
    f: VectorFunction,
    x: np.ndarray,
    decided: ExtractionResult | ScaleError | None = None,
) -> ExtractionResult:
    """The scheme's limit at the point ``x``, with the diagnostics of its run.

    The run stops at the first n with ||v_n - v_{n-1}|| <= TOL * (1 +
    ||v_n||), at a non-finite iterate or an overflowing norm (unconverged),
    or at N_MAX or the down-scheme underflow guard (unconverged); the stop
    rule and ``ratio_estimate`` are those of :func:`_settle`.  Raises
    :class:`ScaleError` if the up-scheme overflow guard trips before the run
    stops.  The steps n = 0..N_MAX are evaluated in one call of ``f``, so
    ``f`` must map points ``(..., dim_x)`` to ``(..., dim_y)`` row by row.

    ``decided`` is the point's outcome from its stack's :func:`_decide`,
    returned or raised as it is; if it is None, the one-point stack ``x`` is
    decided.
    """
    if decided is None:
        (decided,) = _decide(scheme, f, np.asarray(x, dtype=float).reshape(1, -1))
    if isinstance(decided, ScaleError):
        raise decided
    return decided


@dataclass(frozen=True, eq=False)
class ExtractedComponent:
    """Scheme limit of ``source`` as a queryable function."""

    scheme: Scheme
    source: VectorFunction

    def extract(self, points: np.ndarray) -> list[ExtractionResult]:
        """:func:`extract_limit` at each point of the stack ``(P, dim_x)``,
        bit for bit, in order.  The points go to :func:`_decide` in blocks
        of ``BLOCK_POINTS``, each block decided, and its rows freed, before
        the next is evaluated; each point's :func:`extract_limit` call is
        handed its outcome from the block, and a :class:`ScaleError` names
        the point it came from.  The first block evaluates every step
        n = 0..N_MAX, and each later one the step window 0..max(n_used) of
        the block before it, which its runs that stop later re-evaluate."""
        scheme, source, results = self.scheme, self.source, []
        window = N_MAX + 1
        for i in range(0, len(points), BLOCK_POINTS):
            block = points[i : i + BLOCK_POINTS]
            for x, decided in zip(block, _decide(scheme, source, block, window)):
                try:
                    results.append(extract_limit(scheme, source, x, decided))
                except ScaleError as exc:
                    message = f"{exc} at x={x.tolist()}"
                    raise ScaleError(message, scheme=exc.scheme, n=exc.n) from exc
            window = 1 + max(result.n_used for result in results[i:])
        return results

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The limits at a stack ``(P, dim_x)``, ``(P, dim_y)``, or at one point
        ``(dim_x,)`` or scalar, ``(dim_y,)``, from one :meth:`extract` call;
        points at the origin are exact zeros and are not extracted."""
        v = np.asarray(x, dtype=float)
        stack = v.reshape(-1, v.shape[-1] if v.ndim else 1)
        live = stack.any(axis=1)
        limits = [result.limit_value for result in self.extract(stack[live])]
        if limits:
            out = np.zeros((len(stack), len(limits[0])))
            out[live] = limits
        else:  # only the shape of the values is read
            out = np.zeros(np.shape(self.source(stack)))
        return out.reshape(v.shape[:-1] + out.shape[-1:])


def extract_components(
    f: TestFunction,
    schemes: Sequence[Scheme],
    xs: Sequence[np.ndarray],
) -> tuple[tuple[ExtractedComponent, ...], tuple[tuple[ExtractionResult, ...], ...]]:
    """Components of the offset-free f, one per scheme, and their extraction
    at every sample point.

    One scheme runs on f itself.  A quadratic and an additive scheme, in
    that order, run on the even and the odd part of f, whose sum is f.
    Returns the components in the order of ``schemes`` and, for each, its
    :class:`ExtractionResult` at each of ``xs`` from one
    :meth:`ExtractedComponent.extract` call on their stack; a run that
    fails to converge is flagged in its result, not raised.
    """
    if len(schemes) == 2 and schemes[0].is_quadratic and not schemes[1].is_quadratic:
        sources = (even_part(f), odd_part(f))
    elif len(schemes) == 1:
        sources = (f,)
    else:
        raise ValueError("expected one scheme, or a quadratic and an additive scheme")
    components = tuple(map(ExtractedComponent, schemes, sources))
    stack = np.asarray(xs, dtype=float)
    if stack.ndim == 1:  # scalar points, or none
        stack = stack[:, None]
    return components, tuple(tuple(component.extract(stack)) for component in components)


@dataclass(frozen=True, eq=False)
class UniquenessResult:
    """Agreement of two window-restricted scheme limits."""

    agree: bool
    limit_1: np.ndarray | None
    limit_2: np.ndarray | None
    distance: float
    note: str = ""

    def __bool__(self) -> bool:
        return self.agree


def uniqueness_crosscheck(
    scheme: Scheme,
    f: VectorFunction,
    x: np.ndarray,
    window1: tuple[int, int],
    window2: tuple[int, int],
    tol: float = 1e-8,
) -> UniquenessResult:
    """Numerical surrogate for uniqueness of the scheme limit.

    A window is an inclusive (lo, hi) pair with lo < hi; anything else
    raises ``ValueError``.  Its estimate is iterate hi, accepted only if the
    difference from iterate hi - 1 stops the run by the rule and with the
    notes of :func:`extract_limit`.  The result is true iff both estimates
    exist and agree within tol.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))

    def window_limit(window) -> tuple[np.ndarray | None, str]:
        if not (isinstance(window, tuple) and len(window) == 2 and window[0] < window[1]):
            raise ValueError(f"a window is an inclusive (lo, hi) pair with lo < hi, got {window!r}")
        hi = window[1]
        # Non-finite iterate values and overflows go in the note, not in warnings.
        with np.errstate(all="ignore"):
            pair = iterate(scheme, f, v, [hi - 1, hi])
            (limit,), _, (converged,), (kind,), _ = _settle(pair[None], tol)
        where = f"in window ending at n={hi}"
        if converged:
            return limit, ""
        if kind:
            return None, f"{kind} {where}"
        gap = float(euclidean_norm(pair[1] - pair[0]))
        return None, f"no convergence {where} (gap {gap:.3e})"

    lim1, note1 = window_limit(window1)
    lim2, note2 = window_limit(window2)
    if lim1 is None or lim2 is None:
        note = "; ".join(s for s in (note1, note2) if s)
        return UniquenessResult(False, limit_1=lim1, limit_2=lim2, distance=math.nan, note=note)
    with np.errstate(over="ignore"):
        size1, size2, dist = euclidean_norm(np.stack((lim1, lim2, lim1 - lim2))).tolist()
    scale = 1.0 + max(size1, size2)
    return UniquenessResult(agree=dist <= tol * scale, limit_1=lim1, limit_2=lim2, distance=dist)
