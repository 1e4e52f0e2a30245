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


def iterate(scheme: Scheme, f: VectorFunction, x: np.ndarray, n: int) -> np.ndarray:
    """n-th scheme iterate at x.

    Raises :class:`ScaleError` if an up-scheme argument exceeds the overflow
    guard.  Scalings use exact powers of two.
    """
    if n < 0:
        raise ValueError("iteration index must be >= 0")
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
        val = np.asarray(f(arg), dtype=float)
        return np.ldexp(val, -scheme.value_shift * n)
    arg = np.ldexp(v, -n)
    val = np.asarray(f(arg), dtype=float)
    return np.ldexp(val, scheme.value_shift * n)


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
    n with ``converged=False`` and is the reported limit.  ``ratio_estimate``
    is the per-step decay rate of the successive differences: the
    log-average of their consecutive ratios over the recorded history,
    excluding the final stop-selected step (its difference is
    threshold-picked, which biases it small).  A value
    near 1/4 (1/2) marks clean geometric decay of the quadratic (additive)
    defect, a value >= 1 marks divergence.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    v = np.atleast_1d(np.asarray(x, dtype=float))
    x_norm = float(np.linalg.norm(v))

    current = iterate(scheme, f, v, 0)
    trail: list[tuple[int, np.ndarray]] = [(0, current)]
    if not np.isfinite(current).all():
        return ExtractionResult(
            limit_value=current,
            iterates=tuple(trail),
            converged=False,
            ratio_estimate=0.0,
            n_used=0,
            stopped_reason="non-finite iterate at n=0",
        )
    diffs: list[float] = []
    converged = False
    reason = ""
    n_used = n_max

    for n in range(1, n_max + 1):
        if not scheme.is_up and x_norm != 0.0 and np.ldexp(x_norm, -n) < UNDERFLOW_LIMIT:
            n_used = n - 1
            reason = f"rescaled argument below {UNDERFLOW_LIMIT:.0e} at n={n}"
            break
        nxt = iterate(scheme, f, v, n)
        diff = float(np.linalg.norm(nxt - current))
        trail.append((n, nxt))
        current = nxt
        n_used = n
        # The previous iterate is finite, so a non-finite iterate makes the
        # difference non-finite: the scalar test screens the array test.
        if not math.isfinite(diff) and not np.isfinite(nxt).all():
            reason = f"non-finite iterate at n={n}"
            break
        diffs.append(diff)
        if diff <= tol * (1.0 + float(np.linalg.norm(current))):
            converged = True
            break

    ratio_estimate = _decay_rate([b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0])
    return ExtractionResult(
        limit_value=current,
        iterates=tuple(trail),
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
    true iff both estimates exist and agree within tol.  Windows are given
    as ranges or inclusive (lo, hi) tuples.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))

    def window_limit(window) -> tuple[np.ndarray | None, str]:
        ns = _window_indices(window)
        prev = iterate(scheme, f, v, ns[-2])
        last = iterate(scheme, f, v, ns[-1])
        gap = float(np.linalg.norm(last - prev))
        if gap > tol * (1.0 + float(np.linalg.norm(last))):
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
    scale = 1.0 + max(float(np.linalg.norm(lim1)), float(np.linalg.norm(lim2)))
    dist = float(np.linalg.norm(lim1 - lim2))
    return UniquenessResult(agree=dist <= tol * scale, limit_1=lim1, limit_2=lim2, distance=dist)
