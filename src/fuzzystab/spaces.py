"""Fuzzy norms on finite-dimensional real coordinate spaces.

A fuzzy norm grades the statement "x is no larger than a" with a membership
value N(x, a) in [0, 1].  The canonical construction from a crisp norm is

    N(x, a) = a / (a + ||x||)   for a > 0,     N(x, a) = 0   for a <= 0.

This module provides crisp norms, the induced construction and
finite-sample checking of the six defining axioms.  Universal quantifiers
over the threshold a are discretized to a log-spaced grid; the induced norm
is monotone in a, so a log grid covers behavior across scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "CrispNorm",
    "SpaceConfig",
    "FuzzyNorm",
    "AxiomCheck",
    "crisp_norm",
    "euclidean_norm",
    "log_a_grid",
    "check_axioms",
    "default_axiom_samples",
]

#: Membership comparisons treat differences below this as rounding noise.
MEMBERSHIP_SLACK = 1e-12

#: Tolerance of the N5 probe: memberships at a large threshold exceed 1 - FUZZY_TOLERANCE.
FUZZY_TOLERANCE = 0.01

#: Largest membership change the N6 probe allows for a threshold change of 1e-7.
CONTINUITY_JUMP = 1e-3

#: Cells of the N4 pair matrix that one ``memberships`` call evaluates.
PAIR_BLOCK_CELLS = 8192

#: A crisp norm: vectors ``(..., d)`` to norms ``(...)``, one vector to a Python float.
CrispNorm = Callable[[np.ndarray], float | np.ndarray]


def euclidean_norm(x: np.ndarray) -> float | np.ndarray:
    """Euclidean norms of vectors ``x`` of shape ``(..., d)``, shape ``(...)``;
    a Python float for one vector.

    Each norm rounds as np.linalg.norm does, sqrt(v.dot(v)): one vector
    through math.sqrt, without np.linalg.norm's dispatch, and a stack through
    a stacked matmul, where np.linalg.norm(v, axis=-1), sum(v*v) and einsum
    round differently in the last bit.
    """
    v = np.ascontiguousarray(x, dtype=float)  # at least 1-D
    if v.ndim == 1:
        return math.sqrt(v.dot(v))
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def crisp_norm(kind: str, weights: Sequence[float] | None = None) -> CrispNorm:
    """Build a crisp norm of the given kind.

    ``weighted`` is the weighted Euclidean norm sqrt(sum w_i x_i^2), the only
    kind that takes weights: strictly positive ones matching the vector dimension.

    The norm maps vectors of shape ``(..., d)`` to their norms of shape
    ``(...)``, as f maps stacked points, and one vector to a Python float.
    """
    if weights is not None and kind in ("euclidean", "max"):
        raise ValueError(f"{kind} norm takes no weights (only weighted does)")
    if kind == "euclidean":
        return euclidean_norm
    if kind == "max":
        def norm(x: np.ndarray) -> float | np.ndarray:
            r = np.max(np.abs(np.atleast_1d(np.asarray(x, dtype=float))), axis=-1, initial=0.0)
            return float(r) if r.ndim == 0 else r

        return norm
    if kind == "weighted":
        if weights is None:
            raise ValueError("weighted norm requires weights")
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or np.any(w <= 0):
            raise ValueError("weights must be a non-empty vector of positive reals")

        def norm(x: np.ndarray) -> float | np.ndarray:
            v = np.atleast_1d(np.asarray(x, dtype=float))
            if v.shape[-1] != w.size:
                raise DimensionMismatchError(
                    f"vector has dimension {v.shape[-1]}, weights have dimension {w.size}"
                )
            r = np.sqrt(np.sum(w * v * v, axis=-1))
            return float(r) if r.ndim == 0 else r

        return norm
    raise ValueError(f"unknown crisp norm kind {kind!r}")


@dataclass(frozen=True)
class SpaceConfig:
    """Finite-dimensional domain/codomain pair with one crisp norm on both."""

    dim_x: int
    dim_y: int
    crisp_norm_kind: str = "euclidean"
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("space dimensions must be >= 1")
        crisp_norm(self.crisp_norm_kind, self.weights)  # checks the kind and the weights
        if self.weights is not None and not len(self.weights) == self.dim_x == self.dim_y:
            raise ValueError("weights length must equal dim_x and dim_y")

    def norm(self) -> CrispNorm:
        """The crisp norm of the domain and of the codomain."""
        return crisp_norm(self.crisp_norm_kind, self.weights)


def stack_norms(norm: CrispNorm, x: np.ndarray) -> float | np.ndarray:
    """Norms ``norm(x)`` of the vectors ``x`` of shape ``(..., d)``, shape ``(...)``;
    ``ValueError`` if the norm does not map them one by one (one number for a stack).
    The one norm of the report and of every check but the extraction stop rule:
    an inf norm of finite entries is taken again of the vector scaled by 2^-e, e
    the exponent of its largest entry, and scaled back by 2^e; overflow warns as in ``norm``.
    """
    r = norm(x)
    if np.shape(r) != np.shape(x)[:-1]:
        raise ValueError(
            f"norm maps vectors of shape {np.shape(x)} to shape {np.shape(r)}; "
            "it must map (..., d) to (...)"
        )
    if np.isposinf(r).any():
        v = np.asarray(x, dtype=float)
        redo = np.isposinf(r) & np.isfinite(v).all(axis=-1)
        _, e = np.frexp(np.max(np.abs(v[redo]), axis=-1, initial=0.0))
        r = np.array(r, dtype=float)  # 0-d for one vector
        r[redo] = np.ldexp(norm(np.ldexp(v[redo], -e[:, None])), e)
        return float(r) if r.ndim == 0 else r
    return r


@dataclass(frozen=True)
class FuzzyNorm:
    """Evaluator (vector, threshold) -> membership in [0, 1]: either the
    membership a/(a + ||x||) induced by a ``crisp`` norm, or a custom
    ``evaluator``.

    ``induced`` instances are exact by construction; custom evaluators are
    taken as-is and can be audited with :func:`check_axioms`.
    """

    evaluator: Callable[[np.ndarray, float], float] | None = None
    crisp: CrispNorm | None = None

    def __post_init__(self) -> None:
        if (self.evaluator is None) == (self.crisp is None):
            raise ValueError("a fuzzy norm takes exactly one of evaluator and crisp")

    @classmethod
    def induced(cls, norm: CrispNorm = euclidean_norm) -> "FuzzyNorm":
        return cls(crisp=norm)

    def __call__(self, x: np.ndarray, a: float) -> float:
        v = np.atleast_1d(np.asarray(x, dtype=float))
        a = float(a)
        if self.crisp is None:
            return float(self.evaluator(v, a))
        if a <= 0.0:
            return 0.0
        r = float(self.crisp(v))
        if r == math.inf:  # maybe squares of finite entries that overflow
            r = float(stack_norms(self.crisp, v))
        if a == math.inf and math.isfinite(r):
            return 1.0  # a / (a + r) is inf / inf; its limit is 1
        return a / (a + r)

    def memberships(self, x: np.ndarray, a: np.ndarray | float) -> np.ndarray:
        """Memberships of vectors ``x`` of shape ``(..., d)`` at thresholds ``a``
        broadcastable to ``(...)``, each equal to ``self(x_i, a_i)``.

        An induced norm is one array expression; a custom evaluator is
        called once per cell.
        """
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        if self.crisp is not None:
            r = stack_norms(self.crisp, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                m = np.where(a <= 0.0, 0.0, a / (a + r))
            at_inf = a == math.inf
            if at_inf.any():  # a / (a + r) is inf / inf there; its limit is 1
                m = np.where(at_inf & np.isfinite(r), 1.0, m)
            return m
        shape = np.broadcast_shapes(x.shape[:-1], a.shape)
        xb = np.broadcast_to(x, shape + x.shape[-1:])
        ab = np.broadcast_to(a, shape)
        out = np.empty(shape)
        for i in np.ndindex(shape):
            out[i] = self(xb[i], ab[i])
        return out


def log_a_grid(lo: float = 1e-3, hi: float = 1e3, points: int = 25) -> tuple[float, ...]:
    """Log-spaced threshold grid used to discretize "for all a > 0"."""
    # written so that a NaN bound fails: it would make every membership NaN
    if not 0 < lo < hi < math.inf or points < 1:
        raise ValueError("grid needs 0 < lo < hi < inf and points >= 1")
    return tuple(float(v) for v in np.geomspace(lo, hi, points))


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom at the sampled points."""

    axiom: str
    passed: bool
    violations: int
    worst_slack: float
    status: str = "checked"  # "checked" or "sampled"
    note: str = ""


class _Tally:
    """Violation count and worst slack of one axiom, accumulated array by array.

    ``worst`` starts at 0.0 and follows Python ``min``, so a ``-0.0`` never
    replaces it.  Each non-finite membership is a violation and makes the
    worst slack ``-inf``; a comparison counts only where its value is finite.
    """

    def __init__(self) -> None:
        self.bad = 0
        self.worst = 0.0

    def evaluated(self, m: np.ndarray) -> np.ndarray:
        nonfinite = m.size - int(np.count_nonzero(np.isfinite(m)))
        if nonfinite:
            self.bad += nonfinite
            self.worst = -math.inf
        return m

    def slack(self, values: np.ndarray, violated: np.ndarray) -> None:
        finite = np.isfinite(values)
        if not finite.all():
            values, violated = values[finite], violated[finite]
        self.bad += int(np.count_nonzero(violated))
        if values.size:
            self.worst = min(self.worst, float(values.min()))

    def check(self, axiom: str, note: str = "") -> AxiomCheck:
        return AxiomCheck(axiom, self.bad == 0, self.bad, self.worst, note=note)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are counted, not warned
def check_axioms(
    norm: FuzzyNorm,
    sample_points: Sequence[tuple[np.ndarray, float]],
    scalar_samples: Sequence[float],
) -> tuple[AxiomCheck, ...]:
    """Audit the six axioms of a fuzzy norm at sample points: one check per
    axiom, N1 to N6 in order.

    The first five axioms are decidable at the samples and reported as
    ``checked``; continuity in the threshold argument is only probed by
    finite differences and reported as ``sampled``.  Degenerate samples
    (e.g. no positive thresholds) produce a note, not a failure.  A
    non-finite membership is a violation of the axiom that evaluated it.
    Memberships that differ by at most ``MEMBERSHIP_SLACK`` count as equal.  N2
    also probes each nonzero vector at its own norm (membership 1/2 if induced),
    and N5 asks its membership at the largest threshold times 1 + that norm to
    exceed 1 - ``FUZZY_TOLERANCE``; a custom evaluator is normed as Euclidean.
    """
    if not sample_points:
        raise ValueError("sample_points must be non-empty")
    raw_x, raw_a = zip(*sample_points)
    vectors = np.array(raw_x, dtype=float).reshape(len(raw_x), -1)
    thresholds = np.array(raw_a, dtype=float)
    # Python's sort: numpy's float unique takes 15 ms and 1.5 MB on its first call
    pos_a = np.array(sorted(set(thresholds[thresholds > 0].tolist())))
    # The distinct vectors, byte for byte, in the order they first occur.
    keys = vectors.view(np.dtype((np.void, vectors.itemsize * vectors.shape[1])))
    xs = vectors[np.bincount(np.unique(keys, return_index=True)[1], minlength=len(keys)) > 0]
    # Memberships of every distinct vector at every positive threshold, and its norm.
    grid = norm.memberships(xs[:, None, :], pos_a)
    xs_norms = stack_norms(norm.crisp or euclidean_norm, xs)
    checks: list[AxiomCheck] = []

    # N1: membership vanishes at non-positive thresholds.
    t = _Tally()
    nonpositive = np.stack(
        [np.zeros_like(thresholds), np.full_like(thresholds, -1.0), -np.abs(thresholds)], axis=1
    )
    m = t.evaluated(norm.memberships(vectors[:, None, :], nonpositive))
    t.slack(-m, m > MEMBERSHIP_SLACK)
    checks.append(t.check("N1"))

    # N2: membership 1 at the origin for every positive threshold, and below 1
    # for every nonzero vector at a sampled threshold or its positive finite norm.
    t = _Tally()
    m = t.evaluated(norm.memberships(np.zeros(xs.shape[1]), pos_a))
    t.slack(m - 1.0, m < 1.0 - MEMBERSHIP_SLACK)
    nonzero = np.any(xs, axis=1)
    m_min = t.evaluated(grid[nonzero]).min(axis=1, initial=1.0)
    r = xs_norms[nonzero]
    probed = (r > 0.0) & (r < math.inf)
    at_own = t.evaluated(norm.memberships(xs[nonzero][probed], r[probed]))
    m_min[probed] = np.minimum(m_min[probed], at_own)
    never_below_one = m_min >= 1.0 - MEMBERSHIP_SLACK
    t.slack(np.where(never_below_one, (1.0 - m_min) - MEMBERSHIP_SLACK, 0.0), never_below_one)
    checks.append(t.check("N2", "" if pos_a.size else "degenerate: no positive thresholds sampled"))

    # N3: scaling the vector rescales the threshold, N(cx, b) = N(x, b/|c|).
    t = _Tally()
    c = np.array(scalar_samples, dtype=float)
    c = c[np.abs(c) > 1e-15, None, None]
    scaled = t.evaluated(norm.memberships((c * xs)[:, :, None, :], pos_a))
    rescaled = t.evaluated(norm.memberships(xs[:, None, :], pos_a / np.abs(c)))
    diff = np.abs(scaled - rescaled)
    t.slack(-diff, diff > MEMBERSHIP_SLACK)
    checks.append(t.check("N3", "" if c.size else "degenerate: no usable nonzero scalars"))

    # N4: triangle-min inequality over every sampled pair, in bounded blocks of
    # whole rows of the pair matrix (PAIR_BLOCK_CELLS cells, or one long row).
    t = _Tally()
    positive = thresholds > 0
    px, pa = vectors[positive], thresholds[positive]
    own = t.evaluated(norm.memberships(px, pa))
    step = max(1, PAIR_BLOCK_CELLS // max(1, pa.size))
    for i in range(0, pa.size, step):
        rows = slice(i, i + step)
        m = t.evaluated(norm.memberships(px[rows, None, :] + px, pa[rows, None] + pa))
        margin = m - np.minimum(own[rows, None], own)
        t.slack(margin, margin < -MEMBERSHIP_SLACK)
    checks.append(t.check("N4"))

    # N5: monotone in the threshold, approaching 1 for large thresholds.
    t = _Tally()
    t.evaluated(grid)
    t.slack(grid[:, 1:] - grid[:, :-1], grid[:, 1:] < grid[:, :-1] - MEMBERSHIP_SLACK)
    if pos_a.size:
        big = pos_a[-1] * (1.0 + xs_norms)
        margin = t.evaluated(norm.memberships(xs, big)) - (1.0 - FUZZY_TOLERANCE)
        t.slack(margin, margin < 0.0)
    checks.append(t.check("N5"))

    # N6: continuity in the threshold is probed, never proven, from points.
    t = _Tally()
    t.evaluated(grid)
    jump = 0.0
    for h in (1 - 1e-7, 1 + 1e-7):
        near = t.evaluated(norm.memberships(xs[:, None, :], pos_a * h))
        # np.max, unlike Python max, carries a NaN jump through to fail the probe.
        jump = float(np.max(np.abs(near - grid), initial=jump))
    checks.append(
        AxiomCheck(
            "N6",
            t.bad == 0 and jump <= CONTINUITY_JUMP,
            t.bad,
            -jump if t.bad == 0 else -math.inf,
            status="sampled",
            note="sampled, not proven",
        )
    )
    return tuple(checks)


def default_axiom_samples(
    dim: int,
    count: int = 200,
    radius: float = 2.0,
    seed: int = 0,
    a_grid: Sequence[float] | None = None,
) -> tuple[list[tuple[np.ndarray, float]], list[float]]:
    """Seeded sample grid for :func:`check_axioms`: ball points paired with
    log-spaced thresholds, plus a small scalar set for the scaling axiom."""
    rng = np.random.default_rng(seed)
    grid = tuple(a_grid) if a_grid is not None else log_a_grid()
    points: list[tuple[np.ndarray, float]] = [(np.zeros(dim), float(grid[len(grid) // 2]))]
    while len(points) < count:
        factor, direction = _ball_draw(rng, dim, radius)
        a = float(grid[int(rng.integers(len(grid)))])
        points.append((factor * direction, a))
    scalars = [-2.0, -0.5, 0.5, 1.0, 2.0, 3.0]
    return points, scalars


def _ball_draw(rng: np.random.Generator, dim: int, radius: float) -> tuple[float, np.ndarray]:
    """One uniform draw from the closed ball of the given radius, as a
    direction and the factor that scales it: a direction, then, unless it
    is 0, a radius.  A zero direction gives the origin, and one whose factor
    overflows is made a unit vector, scaled by the drawn radius alone."""
    direction = rng.standard_normal(dim)
    length = math.sqrt(direction.dot(direction))
    if length == 0.0:
        return 0.0, np.zeros(dim)
    drawn = radius * rng.random() ** (1.0 / dim)
    factor = drawn / length
    return (factor, direction) if math.isfinite(factor) else (drawn, direction / length)


def sample_ball(rng: np.random.Generator, dim: int, radius: float, count: int) -> np.ndarray:
    """``count`` uniform draws from the closed ball of the given radius, as a
    ``(count, dim)`` stack: :func:`_ball_draw` one at a time, so the
    generator calls are made per draw, and one multiply scales them all.
    Every draw is finite, at any finite radius."""
    draws = [_ball_draw(rng, dim, radius) for _ in range(count)]
    factors = np.array([factor for factor, _ in draws]).reshape(count, 1)
    return factors * np.array([direction for _, direction in draws]).reshape(count, dim)
