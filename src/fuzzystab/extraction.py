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
from typing import Sequence

import numpy as np

from .errors import ScaleError
from .funceq import TestFunction, VectorFunction, even_part, odd_part
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

#: Sample points whose steps 0..N_MAX one call of f evaluates in
#: ``ExtractedComponent.extract``: 8192 rows.
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


def _overflow_error(scheme: Scheme, v: np.ndarray, n: int) -> ScaleError:
    """The error for the up-scheme argument 2^n v, which trips the overflow guard."""
    with np.errstate(over="ignore"):
        size = float(euclidean_norm(np.ldexp(v, n)))
    return ScaleError(
        f"scaled argument norm {size:.3e} exceeds {OVERFLOW_LIMIT:.0e} "
        f"at n={n} for {scheme.value}",
        scheme=scheme.value,
        n=n,
    )


def _trips(scheme: Scheme, v: np.ndarray, n) -> bool | np.ndarray:
    """Whether the scheme's guard trips at step ``n`` for one point ``(dim_x,)``
    or, point by point, a stack ``(P, dim_x)``; steps ``(k, 1)`` give one
    answer per step at one point.  The norm of 2^n v exceeds OVERFLOW_LIMIT
    (up), or that of a nonzero v / 2^n drops below UNDERFLOW_LIMIT at n >= 1,
    as v itself is always evaluated (down).  Both are monotone in n."""
    if scheme.is_up:
        return euclidean_norm(np.ldexp(v, n)) > OVERFLOW_LIMIT
    x_norm = euclidean_norm(v)
    # The power of two scales exactly, as ldexp does, also on a Python float.
    return (n > 0) & (x_norm != 0.0) & (x_norm * 2.0**-n < UNDERFLOW_LIMIT)


def iterate(scheme: Scheme, f: VectorFunction, x: np.ndarray, n) -> np.ndarray:
    """Scheme iterate(s) at x for one index n or a 1-D array of indices.

    ``x`` is one point ``(dim_x,)`` or a stack of points ``(P, dim_x)``.  One
    index gives the n-th iterate, ``(dim_y,)`` or ``(P, dim_y)``.  An array
    of indices gives the iterates stacked in that order, ``(len(n), dim_y)``
    or ``(P, len(n), dim_y)``, from one call of ``f`` on the stacked
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
    steps = ns[:, None] if ns.ndim else ns
    # A point's steps stack along the axis before its coordinates.
    points = v[..., None, :] if ns.ndim else v
    if scheme.is_up:
        args = np.ldexp(points, steps)
        # The guard is monotone, so each point's largest index alone tells
        # whether any trips, and the rows are searched only when one does;
        # an empty index array scales no argument.
        with np.errstate(over="ignore"):
            over = np.ravel(_trips(scheme, v, ns.max(initial=0))) & bool(ns.size)
            if over.any():
                point = v.reshape(-1, v.shape[-1])[over.argmax()]
                k = int(np.argmax(_trips(scheme, point, steps)))
                raise _overflow_error(scheme, point, int(ns.flat[k]))
        shift = -scheme.value_shift
    else:
        args = np.ldexp(points, -steps)
        shift = scheme.value_shift
    val = np.asarray(f(args), dtype=float)
    if (ns.ndim or v.ndim > 1) and val.shape[:-1] != args.shape[:-1]:
        raise ValueError(
            f"f maps points of shape {args.shape} to shape {val.shape}; "
            "it must map (..., dim_x) to (..., dim_y) row by row"
        )
    return np.ldexp(val, shift * steps)


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Limit of one scheme run with per-iterate diagnostics."""

    limit_value: np.ndarray  # the last row of iterates
    iterates: np.ndarray  # (n_used + 1, dim_y); row n is the n-th iterate
    converged: bool
    ratio_estimate: float
    n_used: int
    stopped_reason: str = ""


def _decay_rate(ratios: list[float]) -> float:
    """Log-average of the consecutive difference ratios, final one dropped."""
    if not ratios:
        return 0.0
    trimmed = ratios[:-1] if len(ratios) >= 2 else ratios
    # A ratio of finite differences over a positive one is never NaN, so
    # the least ratio tells whether any is <= 0.
    least = min(trimmed)
    if least == max(trimmed):
        return trimmed[0]
    if least <= 0.0:
        return 0.0
    return math.exp(sum(map(math.log, trimmed)) / len(trimmed))


def _first_guard(scheme: Scheme, v: np.ndarray) -> int | None:
    """The first n in 0..N_MAX at which the scheme's guard trips at the point
    ``v``, or None; the steps are searched only when one trips."""
    if not _trips(scheme, v, N_MAX):
        return None
    return int(np.argmax(_trips(scheme, v, np.arange(N_MAX + 1)[:, None])))


def _first_stop(diffs: list[float], sizes: list[float], tol: float) -> int:
    """Index of the first difference that stops the run, len(diffs) if none.

    The run goes on while a difference is finite and above its bound.  An
    overflowing norm makes the bound infinite, so it stops the run too, and
    the caller tells that stop from convergence.
    """
    for j, (diff, size) in enumerate(zip(diffs, sizes)):
        if not tol * (1.0 + size) < diff < math.inf:
            return j
    return len(diffs)


def _stop_kind(diff: float, size: float, rows: np.ndarray) -> str:
    """Why a stop of :func:`_first_stop` is not convergence, "" if it is; ``diff``
    is taken between the ``rows`` and ``size`` is the norm of the last row."""
    if not np.isfinite(rows).all():
        return "non-finite iterate"
    if not (math.isfinite(diff) and math.isfinite(size)):
        return "iterate norm overflows"
    return ""


def extract_limit(
    scheme: Scheme, f: VectorFunction, x: np.ndarray, rows: np.ndarray | None = None
) -> ExtractionResult:
    """Run the scheme until the relative successive difference drops below TOL.

    Stops at the first n with ||v_n - v_{n-1}|| <= TOL * (1 + ||v_n||), or at
    N_MAX with ``converged=False``.  A non-finite iterate stops the run at its
    n with ``converged=False`` and is the reported limit; so does a finite
    iterate whose norm, or whose difference from the previous iterate,
    overflows.  ``ratio_estimate``
    is the per-step decay rate of the successive differences: the
    log-average of their consecutive ratios over the recorded history,
    excluding the final stop-selected step (its difference is
    threshold-picked, which biases it small).  A value
    near 1/4 (1/2) marks clean geometric decay of the quadratic (additive)
    defect, a value >= 1 marks divergence.

    The iterates n = 0..N_MAX come from one :func:`iterate` call, so ``f``
    must map points ``(..., dim_x)`` to ``(..., dim_y)`` row by row.  The
    call is cut before the first step that trips the overflow (up-schemes)
    or underflow (down-schemes) guard, and is not made when the overflow
    guard trips at n = 0.  The result equals the step-by-step loop bit for
    bit, and :class:`ScaleError` is raised only if no stop comes before the
    overflow guard.

    ``rows``, if given, are the iterates n = 0..N_MAX of a point whose guard
    the caller found not to trip by N_MAX: then neither ``f`` is called nor
    the guard decided again, and any other count of rows is a ``ValueError``.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    # Rows past the stop may overflow or hold inf - inf; they are never
    # reported, and the rows up to the stop are screened by the tests below.
    with np.errstate(all="ignore"):
        guard = None if rows is not None else _first_guard(scheme, v)
        if guard == 0:
            raise _overflow_error(scheme, v, guard)
        steps = N_MAX + 1 if guard is None else guard
        if rows is None:
            rows = iterate(scheme, f, v, np.arange(steps))
        elif len(rows) != steps:
            raise ValueError(f"expected the iterates at n = 0..{steps - 1}, got {len(rows)} rows")
        k = steps - 1
        # Each row is normed alone, so stacking keeps every row's bits.
        norms = euclidean_norm(np.concatenate((rows[1:] - rows[:-1], rows))).tolist()
    # diffs[j] and sizes[j] belong to n = j + 1.
    diffs, sizes = norms[:k], norms[k + 1 :]
    j = _first_stop(diffs, sizes, TOL)
    recorded = diffs[:j]  # the successive differences up to the stop
    converged = False
    reason = ""
    # The first iterate has no difference, so only a non-finite entry stops
    # the run there (and then j is 0); a finite norm screens that test.
    if not math.isfinite(norms[k]) and (kind := _stop_kind(0.0, 0.0, rows[:1])):
        n_used, reason = 0, f"{kind} at n=0"
    elif j < k:
        n_used = j + 1
        reason = _stop_kind(diffs[j], sizes[j], rows[j : j + 2])
        if reason:
            reason = f"{reason} at n={n_used}"
        else:
            # only a converged stop records its difference
            converged = True
            recorded.append(diffs[j])
    elif guard is None:
        n_used = N_MAX
    elif scheme.is_up:
        raise _overflow_error(scheme, v, guard)
    else:
        n_used = guard - 1
        reason = f"rescaled argument below {UNDERFLOW_LIMIT:.0e} at n={guard}"

    ratio_estimate = _decay_rate([b / a for a, b in zip(recorded, recorded[1:]) if a > 0.0])
    # The result owns a copy of the reported rows, so the evaluated ones are
    # freed on return.
    trail = rows[: n_used + 1].copy()
    return ExtractionResult(
        limit_value=trail[-1],
        iterates=trail,
        converged=converged,
        ratio_estimate=ratio_estimate,
        n_used=n_used,
        stopped_reason=reason,
    )


def _extract_block(scheme: Scheme, f: VectorFunction, points: np.ndarray) -> list[ExtractionResult]:
    """:func:`extract_limit` at each point of the stack ``points``, in order.

    Each point's guard is decided once, at N_MAX.  The steps 0..N_MAX of the
    points whose guard does not trip come from one :func:`iterate` call, and
    so one call of ``f``; the other points evaluate their own.  The evaluated
    rows are freed on return.
    """
    # Rows past a point's stop may overflow or hold inf - inf; they are
    # screened by the extract_limit call that receives them.
    with np.errstate(all="ignore"):
        free = ~_trips(scheme, points, N_MAX)
        rows = iter(iterate(scheme, f, points[free], np.arange(N_MAX + 1)) if free.any() else ())
    results = []
    for x, own in zip(points, free):
        try:
            results.append(extract_limit(scheme, f, x, next(rows) if own else None))
        except ScaleError as exc:
            raise ScaleError(f"{exc} at x={x.tolist()}", scheme=exc.scheme, n=exc.n) from exc
    return results


@dataclass(frozen=True, eq=False)
class ExtractedComponent:
    """Scheme limit of ``source`` as a queryable function."""

    scheme: Scheme
    source: VectorFunction

    def extract(self, points: np.ndarray) -> list[ExtractionResult]:
        """:func:`extract_limit` at each point of the stack ``(P, dim_x)``,
        bit for bit, in order.  The points go to :func:`_extract_block` in
        blocks of ``BLOCK_POINTS``, each block decided before the next is
        evaluated; a :class:`ScaleError` names the point it came from."""
        scheme, source, size = self.scheme, self.source, BLOCK_POINTS
        blocks = (points[i : i + size] for i in range(0, len(points), size))
        return [result for block in blocks for result in _extract_block(scheme, source, block)]

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
        # Non-finite iterates and overflows go in the note, not in warnings.
        with np.errstate(all="ignore"):
            pair = iterate(scheme, f, v, [hi - 1, hi])
            gap, size = euclidean_norm(np.stack((pair[1] - pair[0], pair[1]))).tolist()
        where = f"in window ending at n={hi}"
        if _first_stop([gap], [size], tol):
            return None, f"no convergence {where} (gap {gap:.3e})"
        kind = _stop_kind(gap, size, pair)
        return (None, f"{kind} {where}") if kind else (pair[1], "")

    lim1, note1 = window_limit(window1)
    lim2, note2 = window_limit(window2)
    if lim1 is None or lim2 is None:
        note = "; ".join(s for s in (note1, note2) if s)
        return UniquenessResult(False, limit_1=lim1, limit_2=lim2, distance=math.nan, note=note)
    with np.errstate(over="ignore"):
        size1, size2, dist = euclidean_norm(np.stack((lim1, lim2, lim1 - lim2))).tolist()
    scale = 1.0 + max(size1, size2)
    return UniquenessResult(agree=dist <= tol * scale, limit_1=lim1, limit_2=lim2, distance=dist)
