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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ScaleError
from .funceq import VectorFunction, even_part, odd_part, remove_offset
from .spaces import _euclidean_rows

__all__ = [
    "Scheme",
    "ExtractionResult",
    "ExtractionConfig",
    "ExtractedComponent",
    "ComponentPair",
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

#: Largest n_max: one extraction evaluates up to n_max + 1 iterates at once.
#: Every argument of nonzero finite norm trips its scheme's guard before
#: n = 1600 (2^1573 * 5e-324 > 1e150 and 2^-1490 * 1.8e308 < 1e-140).
MAX_STEPS = 2000


class Scheme(Enum):
    QUADRATIC_UP = "quadratic_up"
    QUADRATIC_DOWN = "quadratic_down"
    ADDITIVE_UP = "additive_up"
    ADDITIVE_DOWN = "additive_down"

    @property
    def is_up(self) -> bool:
        return self in (Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP)

    @property
    def is_quadratic(self) -> bool:
        return self in (Scheme.QUADRATIC_UP, Scheme.QUADRATIC_DOWN)

    @property
    def value_shift(self) -> int:
        """log2 of the per-step value rescaling (2 for quadratic, 1 for additive)."""
        return 2 if self.is_quadratic else 1

    @property
    def alpha_interval(self) -> tuple[float, float]:
        """Admissible scaling factors for the paired control function."""
        if self is Scheme.QUADRATIC_UP:
            return (0.0, 4.0)
        if self is Scheme.QUADRATIC_DOWN:
            return (4.0, np.inf)
        if self is Scheme.ADDITIVE_UP:
            return (0.0, 2.0)
        return (2.0, np.inf)

    def admits_alpha(self, alpha: float) -> bool:
        lo, hi = self.alpha_interval
        return lo < alpha < hi

    @property
    def interval_label(self) -> str:
        lo, hi = self.alpha_interval
        return f"({lo:g},{hi:g})" if np.isfinite(hi) else f"(>{lo:g})"


def _overflow_error(scheme: Scheme, size: float, n: int) -> ScaleError:
    return ScaleError(
        f"scaled argument norm {size:.3e} exceeds {OVERFLOW_LIMIT:.0e} "
        f"at n={n} for {scheme.value}",
        scheme=scheme.value,
        n=n,
    )


def iterate(scheme: Scheme, f: VectorFunction, x: np.ndarray, n) -> np.ndarray:
    """Scheme iterate(s) at x for one index n or a 1-D array of indices.

    One index gives the n-th iterate.  An array of indices gives the
    iterates stacked in that order, shape ``(len(n), dim_y)``, from one call
    of ``f`` on the stacked arguments; ``f`` must map points
    ``(..., dim_x)`` to ``(..., dim_y)`` row by row, as ``TestFunction``
    does.

    Raises :class:`ScaleError` at the first index whose up-scheme argument
    exceeds the overflow guard, before ``f`` is called.  Scalings use exact
    powers of two.
    """
    ns = np.asarray(n)
    if np.any(ns < 0):
        raise ValueError("iteration index must be >= 0")
    v = np.atleast_1d(np.asarray(x, dtype=float))
    steps = ns[:, None] if ns.ndim else ns
    if scheme.is_up:
        args = np.ldexp(v, steps)
        with np.errstate(over="ignore"):
            sizes = _euclidean_rows(args)
        over = np.flatnonzero(sizes > OVERFLOW_LIMIT)
        if over.size:
            k = over[0]
            raise _overflow_error(scheme, float(sizes.flat[k]), int(ns.flat[k]))
        shift = -scheme.value_shift
    else:
        args = np.ldexp(v, -steps)
        shift = scheme.value_shift
    val = np.asarray(f(args), dtype=float)
    if ns.ndim and (val.ndim != 2 or len(val) != len(ns)):
        raise ValueError(
            f"f maps {len(ns)} stacked points to shape {val.shape}; "
            "it must map (..., dim_x) to (..., dim_y) row by row"
        )
    return np.ldexp(val, shift * steps)


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Limit of one scheme run with per-iterate diagnostics."""

    limit_value: np.ndarray
    iterates: tuple[tuple[int, np.ndarray], ...]
    converged: bool
    ratio_estimate: float
    n_used: int
    stopped_reason: str = ""


def _decay_rate(ratios: list[float]) -> float:
    """Log-average of the consecutive difference ratios, final one dropped."""
    if not ratios:
        return 0.0
    trimmed = ratios[:-1] if len(ratios) >= 2 else ratios
    if min(trimmed) == max(trimmed):
        return trimmed[0]
    if any(q <= 0.0 for q in trimmed):
        return 0.0
    return float(math.exp(sum(math.log(q) for q in trimmed) / len(trimmed)))


def extract_limit(
    scheme: Scheme,
    f: VectorFunction,
    x: np.ndarray,
    tol: float = 1e-9,
    n_max: int = 40,
) -> ExtractionResult:
    """Run the scheme until the relative successive difference drops below tol.

    Stops at the first n with ||v_n - v_{n-1}|| <= tol * (1 + ||v_n||), or at
    n_max with ``converged=False``.  A non-finite iterate stops the run at its
    n with ``converged=False`` and is the reported limit; so does a finite
    iterate whose norm, or whose difference from the previous iterate,
    overflows.  ``ratio_estimate``
    is the per-step decay rate of the successive differences: the
    log-average of their consecutive ratios over the recorded history,
    excluding the final stop-selected step (its difference is
    threshold-picked, which biases it small).  A value
    near 1/4 (1/2) marks clean geometric decay of the quadratic (additive)
    defect, a value >= 1 marks divergence.

    The iterates for n = 0 .. n_max, cut short before the first step that
    trips the overflow (up-schemes) or underflow (down-schemes) guard, come
    from one :func:`iterate` call, so ``f`` must map points ``(..., dim_x)``
    to ``(..., dim_y)`` row by row.  The result equals the step-by-step
    loop bit for bit, and :class:`ScaleError` is raised only if no stop
    comes before the overflow guard.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > MAX_STEPS:
        raise ValueError(f"n_max must be <= {MAX_STEPS}")
    v = np.atleast_1d(np.asarray(x, dtype=float))
    steps = np.arange(n_max + 1)

    # Rows past the stop may overflow or hold inf - inf; they are never
    # reported, and the rows up to the stop are screened by the tests below.
    with np.errstate(all="ignore"):
        # The first n whose guard trips; f is never evaluated there or beyond.
        if scheme.is_up:
            arg_sizes = _euclidean_rows(np.ldexp(v, steps[:, None]))
            tripped = arg_sizes > OVERFLOW_LIMIT
        else:
            x_norm = float(_euclidean_rows(v))
            tripped = (steps > 0) & (x_norm != 0.0) & (np.ldexp(x_norm, -steps) < UNDERFLOW_LIMIT)
        guard = int(np.argmax(tripped)) if tripped.any() else n_max + 1
        if guard == 0:
            raise _overflow_error(scheme, float(arg_sizes[0]), 0)

        iters = iterate(scheme, f, v, steps[:guard])
        diffs = _euclidean_rows(iters[1:] - iters[:-1])
        sizes = _euclidean_rows(iters[1:])
        # diffs[k] and sizes[k] belong to n = k + 1.  An overflowing norm
        # makes the bound infinite, so it stops the run too, and the tests
        # below tell that stop from convergence.
        stops = ~np.isfinite(diffs) | (diffs <= tol * (1.0 + sizes))

    converged = False
    reason = ""
    n_used = len(diffs)  # the last evaluated step
    recorded = diffs
    hits = np.flatnonzero(stops)
    if not np.isfinite(iters[0]).all():
        n_used, recorded, reason = 0, diffs[:0], "non-finite iterate at n=0"
    elif hits.size:
        n_used = int(hits[0]) + 1
        diff, size = diffs[n_used - 1], sizes[n_used - 1]
        # The previous iterate is finite, so a non-finite iterate makes the
        # difference non-finite: the scalar test screens the array test.
        if not np.isfinite(diff) and not np.isfinite(iters[n_used]).all():
            reason = f"non-finite iterate at n={n_used}"
        elif not (np.isfinite(diff) and np.isfinite(size)):
            reason = f"iterate norm overflows at n={n_used}"
        else:
            converged = True
        # The difference at a non-finite or overflowing stop is not recorded.
        recorded = diffs[: n_used if converged else n_used - 1]
    elif guard <= n_max:
        if scheme.is_up:
            raise _overflow_error(scheme, float(arg_sizes[guard]), guard)
        reason = f"rescaled argument below {UNDERFLOW_LIMIT:.0e} at n={guard}"

    recorded = recorded.tolist()
    ratio_estimate = _decay_rate([b / a for a, b in zip(recorded, recorded[1:]) if a > 0.0])
    # Each reported iterate owns its row, so the stack is freed on return.
    trail = tuple((n, iters[n].copy()) for n in range(n_used + 1))
    return ExtractionResult(
        limit_value=trail[-1][1],
        iterates=trail,
        converged=converged,
        ratio_estimate=ratio_estimate,
        n_used=n_used,
        stopped_reason=reason,
    )


@dataclass(frozen=True)
class ExtractionConfig:
    """Scheme pairing and stop parameters for component extraction."""

    quadratic_scheme: Scheme = Scheme.QUADRATIC_UP
    additive_scheme: Scheme = Scheme.ADDITIVE_UP
    tol: float = 1e-9
    n_max: int = 40
    sample_xs: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.quadratic_scheme.is_quadratic:
            raise ValueError("quadratic_scheme must be a quadratic variant")
        if self.additive_scheme.is_quadratic:
            raise ValueError("additive_scheme must be an additive variant")


@dataclass(frozen=True, eq=False)
class ExtractedComponent:
    """Scheme limit as a queryable function; vanishes exactly at the origin."""

    scheme: Scheme
    source: VectorFunction
    tol: float
    n_max: int

    def extraction_at(self, x: np.ndarray) -> ExtractionResult:
        return extract_limit(self.scheme, self.source, x, tol=self.tol, n_max=self.n_max)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        v = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.any(v):
            probe = np.asarray(self.source(v), dtype=float)
            return np.zeros_like(probe)
        return self.extraction_at(v).limit_value


@dataclass(frozen=True, eq=False)
class ComponentPair:
    """Quadratic and additive components of f with the removed offset f(0)."""

    quadratic: ExtractedComponent
    additive: ExtractedComponent
    f0: np.ndarray
    quadratic_diagnostics: tuple[tuple[np.ndarray, ExtractionResult], ...]
    additive_diagnostics: tuple[tuple[np.ndarray, ExtractionResult], ...]

    @property
    def quadratic_converged(self) -> bool:
        return all(r.converged for _, r in self.quadratic_diagnostics)

    @property
    def additive_converged(self) -> bool:
        return all(r.converged for _, r in self.additive_diagnostics)


def extract_components(f: VectorFunction, cfg: ExtractionConfig) -> ComponentPair:
    """Split f - f(0) into even/odd parts and extract their scheme limits.

    The quadratic scheme runs on the even part, the additive scheme on the
    odd part.  Diagnostics are recorded at ``cfg.sample_xs``; a component
    whose extraction fails to converge at any sample is flagged, not raised.
    """
    shifted, f0 = remove_offset(f)
    fe = even_part(shifted)
    fo = odd_part(shifted)
    q = ExtractedComponent(scheme=cfg.quadratic_scheme, source=fe, tol=cfg.tol, n_max=cfg.n_max)
    a = ExtractedComponent(scheme=cfg.additive_scheme, source=fo, tol=cfg.tol, n_max=cfg.n_max)
    q_diag = tuple((np.asarray(x, dtype=float), q.extraction_at(x)) for x in cfg.sample_xs)
    a_diag = tuple((np.asarray(x, dtype=float), a.extraction_at(x)) for x in cfg.sample_xs)
    return ComponentPair(
        quadratic=q,
        additive=a,
        f0=f0,
        quadratic_diagnostics=q_diag,
        additive_diagnostics=a_diag,
    )


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


def _window_indices(window) -> list[int]:
    ns = sorted(window) if not isinstance(window, tuple) else list(range(window[0], window[1] + 1))
    if len(ns) < 2:
        raise ValueError("window must contain at least two indices")
    return ns


def uniqueness_crosscheck(
    scheme: Scheme,
    f: VectorFunction,
    x: np.ndarray,
    window1,
    window2,
    tol: float = 1e-8,
) -> UniquenessResult:
    """Numerical surrogate for uniqueness of the scheme limit.

    Each window yields a limit estimate (its last iterate, accepted only if
    the final in-window successive difference is below tol); the result is
    true iff both estimates exist and agree within tol.  A window whose last
    two iterates are not all finite, or whose gap or norm overflows, gives
    no estimate and says so in the note.  Windows are given as ranges or
    inclusive (lo, hi) tuples.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))

    def window_limit(window) -> tuple[np.ndarray | None, str]:
        ns = _window_indices(window)
        # Non-finite iterates and overflowing norms are reported in the note,
        # as extract_limit reports them, not warned about.
        with np.errstate(all="ignore"):
            prev, last = iterate(scheme, f, v, ns[-2:])
            gap = float(np.linalg.norm(last - prev))
            size = float(np.linalg.norm(last))
        if not (np.isfinite(prev).all() and np.isfinite(last).all()):
            return None, f"non-finite iterate in window ending at n={ns[-1]}"
        if not (math.isfinite(gap) and math.isfinite(size)):
            return None, f"iterate norm overflows in window ending at n={ns[-1]}"
        if gap > tol * (1.0 + size):
            return None, f"no convergence in window ending at n={ns[-1]} (gap {gap:.3e})"
        return last, ""

    lim1, note1 = window_limit(window1)
    lim2, note2 = window_limit(window2)
    if lim1 is None or lim2 is None:
        return UniquenessResult(
            agree=False,
            limit_1=lim1,
            limit_2=lim2,
            distance=float("nan"),
            note="; ".join(s for s in (note1, note2) if s),
        )
    with np.errstate(over="ignore"):
        scale = 1.0 + max(float(np.linalg.norm(lim1)), float(np.linalg.norm(lim2)))
        dist = float(np.linalg.norm(lim1 - lim2))
    return UniquenessResult(agree=dist <= tol * scale, limit_1=lim1, limit_2=lim2, distance=dist)
