"""Fuzzy norms on finite-dimensional real coordinate spaces.

A fuzzy norm grades the statement "x is no larger than a" with a membership
value N(x, a) in [0, 1].  The canonical construction from a crisp norm is

    N(x, a) = a / (a + ||x||)   for a > 0,     N(x, a) = 0   for a <= 0.

This module provides crisp norms, the induced construction, finite-sample
checking of the six defining axioms, and fuzzy convergence / Cauchy
predicates for sequences.  Universal quantifiers over the threshold a are
discretized to a log-spaced grid; the induced norm is monotone in a, so a
log grid covers behavior across scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "CRISP_NORM_KINDS",
    "SpaceConfig",
    "FuzzyNorm",
    "AxiomCheck",
    "AxiomReport",
    "SequenceProbe",
    "crisp_norm",
    "euclidean_norm",
    "induced_fuzzy_norm",
    "log_a_grid",
    "check_axioms",
    "default_axiom_samples",
    "fuzzy_limit",
    "fuzzy_cauchy",
]

CRISP_NORM_KINDS = ("euclidean", "max", "weighted")

#: Membership comparisons treat differences below this as rounding noise.
MEMBERSHIP_SLACK = 1e-12

#: Default tolerance for the fuzzy limit / Cauchy predicates.
FUZZY_TOLERANCE = 0.01

#: Cells of the N4 pair matrix that one ``memberships`` call evaluates.
PAIR_BLOCK_CELLS = 8192


def euclidean_norm(x: np.ndarray) -> float:
    # np.linalg.norm(x) is sqrt(x.dot(x)) of the raveled x; math.sqrt rounds
    # the same, without np.linalg.norm's dispatch.
    v = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


def _euclidean_rows(v: np.ndarray) -> np.ndarray:
    # np.linalg.norm(x) is sqrt(x.dot(x)); a stacked matmul takes the same dot
    # product per row, where np.linalg.norm(v, axis=-1), sum(v*v) and einsum
    # round differently in the last bit.
    v = np.ascontiguousarray(v, dtype=float)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


euclidean_norm.rows = _euclidean_rows


def crisp_norm(kind: str, weights: Sequence[float] | None = None) -> Callable[[np.ndarray], float]:
    """Build a crisp norm evaluator of the given kind.

    ``weighted`` is the weighted Euclidean norm sqrt(sum w_i x_i^2), the only
    kind that takes weights: strictly positive ones matching the vector dimension.

    The evaluator maps one vector to a float.  Its ``rows`` attribute maps
    vectors of shape ``(..., d)`` to their norms of shape ``(...)``, equal
    bit for bit to the one-vector form.
    """
    if weights is not None and kind in ("euclidean", "max"):
        raise ValueError(f"{kind} norm takes no weights (only weighted does)")
    if kind == "euclidean":
        return euclidean_norm
    if kind == "max":
        def _max(x: np.ndarray) -> float:
            v = np.atleast_1d(np.asarray(x, dtype=float))
            return float(np.max(np.abs(v))) if v.size else 0.0

        def _max_rows(v: np.ndarray) -> np.ndarray:
            return np.max(np.abs(v), axis=-1)

        _max.rows = _max_rows
        return _max
    if kind == "weighted":
        if weights is None:
            raise ValueError("weighted norm requires weights")
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or np.any(w <= 0):
            raise ValueError("weights must be a non-empty vector of positive reals")

        def _check_dim(size: int) -> None:
            if size != w.size:
                raise DimensionMismatchError(
                    f"vector has dimension {size}, weights have dimension {w.size}"
                )

        def _weighted(x: np.ndarray) -> float:
            v = np.atleast_1d(np.asarray(x, dtype=float))
            _check_dim(v.size)
            return float(np.sqrt(np.sum(w * v * v)))

        def _weighted_rows(v: np.ndarray) -> np.ndarray:
            _check_dim(v.shape[-1])
            return np.sqrt(np.sum(w * v * v, axis=-1))

        _weighted.rows = _weighted_rows
        return _weighted
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

    def norm(self) -> Callable[[np.ndarray], float]:
        """The crisp norm of the domain and of the codomain."""
        return crisp_norm(self.crisp_norm_kind, self.weights)


def induced_fuzzy_norm(
    crisp_norm_kind: str,
    x: np.ndarray,
    a: float,
    weights: Sequence[float] | None = None,
) -> float:
    """Membership a/(a + ||x||) for a > 0, else 0, under the named crisp norm."""
    return FuzzyNorm.induced(crisp_norm(crisp_norm_kind, weights))(x, a)


@dataclass(frozen=True)
class FuzzyNorm:
    """Evaluator (vector, threshold) -> membership in [0, 1].

    ``induced`` instances are exact by construction; ``custom`` evaluators are
    taken as-is and can be audited with :func:`check_axioms`.
    """

    evaluator: Callable[[np.ndarray, float], float]
    #: Row form of the crisp norm behind an induced instance, if it has one.
    _rows: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def induced(cls, norm: Callable[[np.ndarray], float] = euclidean_norm) -> "FuzzyNorm":
        def _eval(x: np.ndarray, a: float) -> float:
            if a <= 0.0:
                return 0.0
            r = norm(x)
            if a == math.inf and math.isfinite(r):
                return 1.0  # a / (a + r) is inf / inf; its limit is 1
            return a / (a + r)
        return cls(evaluator=_eval, _rows=getattr(norm, "rows", None))

    def __call__(self, x: np.ndarray, a: float) -> float:
        v = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.evaluator(v, float(a)))

    def memberships(self, x: np.ndarray, a: np.ndarray | float) -> np.ndarray:
        """Memberships of vectors ``x`` of shape ``(..., d)`` at thresholds ``a``
        broadcastable to ``(...)``, each equal to ``self(x_i, a_i)``.

        An induced norm whose crisp norm has a row form is one array
        expression; any other evaluator is called once per cell.
        """
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        if self._rows is not None:
            r = self._rows(x)
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

    def least_membership(self, x: np.ndarray, a: float) -> float:
        """Least of ``self(x_i, a)`` over the vectors ``x`` of shape ``(k, d)``,
        NaN if any of them is NaN.

        An induced membership a/(a + r) does not increase with the crisp norm
        r, so an induced norm whose crisp norm has a row form is called once,
        at the row of largest norm (the first NaN norm, if any): its
        membership is the least bit for bit, and NaN exactly when one of
        them is.  Any other evaluator is called once per row.
        """
        if self._rows is not None:
            return self(x[int(self._rows(x).argmax())], a)
        memberships = [self(v, a) for v in x]
        return math.nan if any(map(math.isnan, memberships)) else min(memberships)


def log_a_grid(lo: float = 1e-3, hi: float = 1e3, points: int = 25) -> tuple[float, ...]:
    """Log-spaced threshold grid used to discretize "for all a > 0"."""
    if lo <= 0 or hi <= lo or points < 1:
        raise ValueError("grid needs 0 < lo < hi and points >= 1")
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


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.status == "checked")

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks if c.status == "checked")

    def __getitem__(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)


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
    *,
    slack: float = MEMBERSHIP_SLACK,
    tolerance: float = FUZZY_TOLERANCE,
    continuity_jump: float = 1e-3,
) -> AxiomReport:
    """Audit the six axioms of a fuzzy norm at sample points.

    The first five axioms are decidable at the samples and reported as
    ``checked``; continuity in the threshold argument is only probed by
    finite differences and reported as ``sampled``.  Degenerate samples
    (e.g. no positive thresholds) produce a note, not a failure.  A
    non-finite membership is a violation of the axiom that evaluated it.
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
    # Memberships of every distinct vector at every positive threshold.
    grid = norm.memberships(xs[:, None, :], pos_a)
    checks: list[AxiomCheck] = []

    # N1: membership vanishes at non-positive thresholds.
    t = _Tally()
    nonpositive = np.stack(
        [np.zeros_like(thresholds), np.full_like(thresholds, -1.0), -np.abs(thresholds)], axis=1
    )
    m = t.evaluated(norm.memberships(vectors[:, None, :], nonpositive))
    t.slack(-m, m > slack)
    checks.append(t.check("N1"))

    # N2: membership 1 at the origin for every positive threshold, and
    # below 1 somewhere for every nonzero sample vector.
    t = _Tally()
    m = t.evaluated(norm.memberships(np.zeros(xs.shape[1]), pos_a))
    t.slack(m - 1.0, m < 1.0 - slack)
    nonzero = np.any(xs, axis=1)
    if pos_a.size:
        m_min = t.evaluated(grid[nonzero]).min(axis=1)
    else:
        m_min = np.ones(np.count_nonzero(nonzero))
    never_below_one = m_min >= 1.0 - slack
    t.slack(np.where(never_below_one, (1.0 - m_min) - slack, 0.0), never_below_one)
    checks.append(t.check("N2", "" if pos_a.size else "degenerate: no positive thresholds sampled"))

    # N3: scaling the vector rescales the threshold, N(cx, b) = N(x, b/|c|).
    t = _Tally()
    c = np.array(scalar_samples, dtype=float)
    c = c[np.abs(c) > 1e-15, None, None]
    scaled = t.evaluated(norm.memberships((c * xs)[:, :, None, :], pos_a))
    rescaled = t.evaluated(norm.memberships(xs[:, None, :], pos_a / np.abs(c)))
    diff = np.abs(scaled - rescaled)
    t.slack(-diff, diff > slack)
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
        t.slack(margin, margin < -slack)
    checks.append(t.check("N4"))

    # N5: monotone in the threshold, approaching 1 for large thresholds.
    t = _Tally()
    t.evaluated(grid)
    t.slack(grid[:, 1:] - grid[:, :-1], grid[:, 1:] < grid[:, :-1] - slack)
    if pos_a.size:
        big = pos_a[-1] * (1.0 + _euclidean_rows(xs))
        margin = t.evaluated(norm.memberships(xs, big)) - (1.0 - tolerance)
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
            t.bad == 0 and jump <= continuity_jump,
            t.bad,
            -jump if t.bad == 0 else -math.inf,
            status="sampled",
            note="sampled, not proven",
        )
    )
    return AxiomReport(checks=tuple(checks))


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
        x = sample_ball(rng, dim, radius)
        a = float(grid[int(rng.integers(len(grid)))])
        points.append((x, a))
    scalars = [-2.0, -0.5, 0.5, 1.0, 2.0, 3.0]
    return points, scalars


def sample_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Uniform draw from the closed ball of the given radius."""
    direction = rng.normal(size=dim)
    length = math.sqrt(direction.dot(direction))
    if length == 0.0:
        return np.zeros(dim)
    r = radius * float(rng.uniform()) ** (1.0 / dim)
    return (r / length) * direction


@dataclass(frozen=True)
class SequenceProbe:
    """A sequence together with the fuzzy norm and grid used to test it."""

    terms: Callable[[int], np.ndarray]
    norm: FuzzyNorm
    a_grid: tuple[float, ...] = field(default_factory=log_a_grid)
    tolerance: float = FUZZY_TOLERANCE

    def __post_init__(self) -> None:
        if not self.a_grid:
            raise ValueError("a_grid must be non-empty")
        if not all(a > 0 for a in self.a_grid):  # a NaN is not > 0 either
            raise ValueError("a_grid must be strictly positive")
        if any(hi <= lo for lo, hi in zip(self.a_grid, self.a_grid[1:])):
            raise ValueError("a_grid must be strictly increasing")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")


def fuzzy_limit(probe: SequenceProbe, candidate: np.ndarray, n_window: Iterable[int]) -> bool:
    """True iff every window term is within fuzzy tolerance of the candidate.

    Checks N(x_n - candidate, a) > 1 - tolerance for every n in the window
    and every threshold on the probe grid, so a NaN membership fails it.
    """
    window = list(n_window)
    if not window:
        raise ValueError("n_window must be non-empty")
    c = np.atleast_1d(np.asarray(candidate, dtype=float))
    for n in window:
        term = np.atleast_1d(np.asarray(probe.terms(n), dtype=float))
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
            diff = term - c
        for a in probe.a_grid:
            if not probe.norm(diff, a) > 1.0 - probe.tolerance:
                return False
    return True


def fuzzy_cauchy(probe: SequenceProbe, p_max: int, n0: int, n_max: int | None = None) -> bool:
    """True iff tail increments stay within fuzzy tolerance.

    Checks N(x_{n+p} - x_n, a) > 1 - tolerance for n0 <= n <= n_max and
    1 <= p <= p_max over the probe grid, so a NaN membership fails it.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if n_max is None:
        n_max = n0 + 32
    for n in range(n0, n_max + 1):
        base = np.atleast_1d(np.asarray(probe.terms(n), dtype=float))
        for p in range(1, p_max + 1):
            term = np.atleast_1d(np.asarray(probe.terms(n + p), dtype=float))
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
                diff = term - base
            for a in probe.a_grid:
                if not probe.norm(diff, a) > 1.0 - probe.tolerance:
                    return False
    return True
