"""Control functions, envelope bounds, and stability verification.

A control function phi(x, y) >= 0 caps the equation defect; its declared
scaling factor alpha decides which rescaling scheme converges.  Every family
is homogeneous of degree ``phi.degree``, so the scaling and vanishing
hypotheses are decided exactly from that degree, alpha and the scheme's
rate.  A control holds its own norms: the fuzzy norm N' on its values and,
for the power and product families, the crisp norm of its domain; every
check reads them from phi.  Each scheme has one record in
``SCHEME_BOUNDS``: its certificate, envelope pairs and threshold divisor.
Its envelope at level a is the least membership of phi at its pairs at the
threshold a (rate - alpha) / divisor, sign reversed for a down-scheme; a
bound with several schemes splits a evenly between them.
Verification compares the membership of the recovered-component error
against the envelope on an (x, a) grid of arrays and counts slack violations.
Every set of argument pairs is one ``(2, pairs, d)`` array built from a
table of multipliers of x, and the defect premise takes one such array
and returns one ``Margin``.

Four readings of the bound definitions are fixed here and disclosed through
``REPAIR_DESCRIPTIONS``: the additive envelope's one-argument entry is the
pair (x/2, x/2), the scale-down bounds use positive threshold factors, the
combined y-set takes its unspecified scale factor as 1, and the combined
bound compares Q(x) + A(x) - f(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .extraction import Scheme
from .funceq import VectorFunction, residual_main
from .spaces import MEMBERSHIP_SLACK, CrispNorm, FuzzyNorm, euclidean_norm, sample_ball, stack_norms

__all__ = [
    "ConstantControl",
    "PowerControl",
    "ProductControl",
    "ControlFunction",
    "SchemeBound",
    "SCHEME_BOUNDS",
    "TheoremSpec",
    "THEOREMS",
    "REPAIR_DESCRIPTIONS",
    "BALL_PAIRS",
    "Margin",
    "StabilityReport",
    "eval_control",
    "scaling_alpha_check",
    "vanishing_check",
    "envelope",
    "premise_pairs",
    "measure_residual_sup",
    "defect_premise_margin",
    "verify_stability",
]

#: Multipliers ``num``, ``den`` and the mask of the nonzero ``num``; see :func:`_pair_table`.
PairTable = tuple[np.ndarray, np.ndarray, np.ndarray]


class Margin(NamedTuple):
    """Result of the defect premise check: the smallest lhs - rhs membership
    margin over (pairs x thresholds) and its witness (x, y, a), ``None``
    for no pairs."""

    worst: float
    witness: tuple[np.ndarray, np.ndarray, float] | None

    @property
    def holds(self) -> bool:
        """The premise verdict: no margin falls below -``MEMBERSHIP_SLACK``."""
        return self.worst >= -MEMBERSHIP_SLACK


def _safe_power(base: float, exponent: float) -> float:
    if base == 0.0:
        if exponent < 0.0:
            raise DomainError("0 raised to a negative power in control evaluation")
        return 0.0 if exponent > 0.0 else 1.0
    try:
        return float(base ** exponent)
    except OverflowError:  # Python's float ** raises where numpy gives inf
        return math.inf


@dataclass(frozen=True)
class ConstantControl:
    """phi(x, y) = delta; scale invariant (degree 0).  ``nprime`` is the
    fuzzy norm N' on phi's values."""

    delta: float
    alpha: float = 1.0
    nprime: FuzzyNorm = FuzzyNorm.induced()

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def degree(self) -> float:
        return 0.0

    def rows(self, uw: np.ndarray) -> np.ndarray:
        """phi at the pairs (uw[0, i], uw[1, i]) of the stacked ``(2, k, d)``
        array, shape ``(k,)``."""
        return np.full(uw.shape[1], self.delta)


@dataclass(frozen=True)
class PowerControl:
    """phi(x, y) = theta * (||x||^p + ||y||^p) under the domain norm
    ``norm``; homogeneous of degree p.  ``nprime`` is N' on phi's values."""

    theta: float
    p: float
    alpha: float
    norm: CrispNorm = euclidean_norm
    nprime: FuzzyNorm = FuzzyNorm.induced()

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def degree(self) -> float:
        return self.p

    def rows(self, uw: np.ndarray) -> np.ndarray:
        """phi at the pairs (uw[0, i], uw[1, i]) of the stacked ``(2, k, d)``
        array, shape ``(k,)``, under the control's domain norm."""
        theta, p = self.theta, self.p
        ru, rw = stack_norms(self.norm, uw).tolist()
        return np.array(
            [theta * (_safe_power(r, p) + _safe_power(s, p)) for r, s in zip(ru, rw)], dtype=float
        )


@dataclass(frozen=True)
class ProductControl:
    """phi(x, y) = theta * ||x||^p1 * ||y||^p2 under the domain norm ``norm``;
    homogeneous of degree p1 + p2.  ``nprime`` is N' on phi's values."""

    theta: float
    p1: float
    p2: float
    alpha: float
    norm: CrispNorm = euclidean_norm
    nprime: FuzzyNorm = FuzzyNorm.induced()

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def degree(self) -> float:
        return self.p1 + self.p2

    def rows(self, uw: np.ndarray) -> np.ndarray:
        """phi at the pairs (uw[0, i], uw[1, i]) of the stacked ``(2, k, d)``
        array, shape ``(k,)``, under the control's domain norm."""
        theta, p1, p2 = self.theta, self.p1, self.p2
        ru, rw = stack_norms(self.norm, uw).tolist()
        return np.array(
            [theta * _safe_power(r, p1) * _safe_power(s, p2) for r, s in zip(ru, rw)], dtype=float
        )


ControlFunction = ConstantControl | PowerControl | ProductControl


def eval_control(phi: ControlFunction, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate phi at (x, y), two vectors of one dimension: ``phi.rows`` on
    the one pair."""
    return float(phi.rows(np.asarray([x, y], dtype=float).reshape(2, 1, -1))[0])


def _first_worst(margin: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Smallest margin and its cell, as a row-major loop of ``if margin <
    worst`` from ``worst = inf`` finds them (the first of equal minima, a
    ``-0.0`` after a ``0.0`` included).  A non-finite margin is a violation:
    then the result is ``-inf`` at the first non-finite cell.  ``(inf, None)``
    for no cells.
    """
    if margin.size == 0:
        return math.inf, None
    nonfinite = ~np.isfinite(margin)
    if nonfinite.any():
        return -math.inf, np.unravel_index(np.argmax(nonfinite), margin.shape)
    cell = np.unravel_index(np.argmin(margin), margin.shape)
    return float(margin[cell]), cell


def _pair_table(*pairs: tuple[tuple[float, float], tuple[float, float]]) -> PairTable:
    """Designated pairs ``((u_num, u_den), (w_num, w_den))`` relative to x as
    arrays ``num`` and ``den`` of shape ``(2, 1, pairs, 1)``, so that
    ``(num * x) / den`` stacks the u (index 0) and the w (index 1) of every
    pair, and the mask of the nonzero ``num``: a zero entry is the zero
    vector, never ``0 * x``, which is NaN at an infinite x."""
    num, den = np.array(pairs, dtype=float).transpose(2, 1, 0)[:, :, None, :, None]
    return num, den, num != 0.0


def _y_table(*ys: tuple[float, float]) -> PairTable:
    """The pairs (x, y) for each y ``(num, den)`` of a y-set relative to x."""
    return _pair_table(*(((1, 1), y) for y in ys))


@np.errstate(over="ignore")  # a pair past the largest double is inf, never a warning
def _pairs_at(table: PairTable, points: np.ndarray) -> np.ndarray:
    """The pairs of ``table`` at each of the ``(n, d)`` points, x-major, as
    one ``(2, n * pairs, d)`` array."""
    num, den, nonzero = table
    (n, d), k = points.shape, num.shape[2]
    uw = np.multiply(num, points[:, None], out=np.zeros((2, n, k, d)), where=nonzero)
    uw /= den
    return uw.reshape(2, n * k, d)


class SchemeBound(NamedTuple):
    """One scheme's envelope constants besides its rate and direction."""

    pairs: PairTable
    threshold_divisor: float
    #: Rows (weight, u, w) whose sum of weight * D(u, w) is the one-step
    #: difference of the scheme's part; their pairs are ``pairs``.
    certificate: tuple


def _scheme_bound(divisor: float, *certificate) -> SchemeBound:
    return SchemeBound(_pair_table(*(row[1:] for row in certificate)), divisor, certificate)


# Certificates of f(2x) - 4 f(x) for even f and f(2x) - 2 f(x) for odd f,
# f(0) = 0; the pair (x/3, 0) carries no weight, as D(u, 0) vanishes.  Each
# entry is rounded as (num * x) / den; 1.5 * x is one rounding, not 3 * x / 2.
_QUADRATIC_BOUND = _scheme_bound(
    6.0,
    (-2, (1, 3), (1, 3)),
    (1, (1, 3), (1, 1)),
    (1, (1, 3), (4, 3)),
    (1, (1, 3), (-2, 3)),
    (0, (1, 3), (0, 1)),
)
# The one-argument entry of the additive envelope is read as (x/2, x/2).
_ADDITIVE_BOUND = _scheme_bound(
    4.0,
    (-0.5, (1, 1), (1, 1)),
    (-0.5, (1, 2), (1, 2)),
    (0.5, (1, 2), (2, 1)),
    (0.5, (1, 2), (1.5, 1)),
)
SCHEME_BOUNDS: dict[Scheme, SchemeBound] = {
    s: _QUADRATIC_BOUND if s.is_quadratic else _ADDITIVE_BOUND for s in Scheme
}

_QUADRATIC_Y_SET = _y_table((0, 1), (1, 3), (4, 3), (-2, 3), (1, 1))
_ADDITIVE_Y_SET = _y_table((1, 1), (1, 2), (1.5, 1), (2, 1))
# Scale factor on this set taken as 1 (it is left unspecified upstream).
_COMBINED_Y_SET = _y_table((0, 1), (1, 1), (1, 2), (4, 3), (-2, 3), (1, 3), (1.5, 1), (2, 1))


def envelope(schemes: Sequence[Scheme], phi: ControlFunction, x: np.ndarray, a: float) -> float:
    """Envelope membership at (x, a) of the bound of ``schemes``, NaN if any
    of its memberships is NaN; inherits monotonicity in a.

    One scheme's envelope is the min of N'(phi(u, w), t) over its pairs at
    t = a (rate - alpha) / divisor, or a (alpha - rate) / divisor for a
    down-scheme, and 0 for t <= 0.  Several schemes split a evenly: 0 for
    a <= 0, else the least of their envelopes at a / len(schemes).

    phi is evaluated at all pairs in one call of its row form, and the
    minimum is ``np.min`` of one :meth:`FuzzyNorm.memberships` call, NaN if
    one is.  A constant control is delta at every pair: N'(delta, t).
    """
    if len(schemes) > 1:
        if a <= 0.0:
            return 0.0
        memberships = []  # a comprehension would give every call closure cells to build
        for s in schemes:
            memberships.append(envelope((s,), phi, x, a / len(schemes)))
        # Python's min keeps a NaN only when it comes first; any NaN membership
        # makes the envelope NaN, which verification counts as a violation.
        return math.nan if any(map(math.isnan, memberships)) else min(memberships)
    (scheme,) = schemes
    table, divisor, _ = SCHEME_BOUNDS[scheme]
    rate = scheme.rate
    t = a * ((rate - phi.alpha) if scheme.is_up else (phi.alpha - rate)) / divisor
    if t <= 0.0:
        return 0.0
    if isinstance(phi, ConstantControl):
        return phi.nprime(np.array([phi.delta]), t)
    uw = _pairs_at(table, np.asarray(x, dtype=float).reshape(1, -1))
    return float(np.min(phi.nprime.memberships(phi.rows(uw)[:, None], t)))


def _growth(phi: ControlFunction) -> float | None:
    """2^degree, the factor phi(2x, 2y) / phi(x, y) of a control homogeneous
    of degree ``phi.degree``; ``None`` for phi = 0 (delta or theta 0), which
    fits every factor, and NaN for a non-finite delta or theta, which fits
    none."""
    scale = phi.delta if isinstance(phi, ConstantControl) else phi.theta
    if scale == 0.0:
        return None
    return _safe_power(2.0, phi.degree) if math.isfinite(scale) else math.nan


def scaling_alpha_check(phi: ControlFunction, scheme: Scheme) -> float:
    """Margin of the scaling hypothesis: phi(2x, 2y) <= alpha phi(x, y) for an
    up-scheme, margin alpha - 2^degree, and alpha phi(x, y) <= phi(2x, 2y)
    for a down-scheme, margin 2^degree - alpha.  It holds iff the margin is
    >= 0, compared in floating point with no slack.  phi = 0 holds it at
    every alpha, margin 0.0; a non-finite delta or theta fails it, margin
    ``-inf``.  An alpha outside the scheme's admissible interval raises
    ``ValueError``.
    """
    if not scheme.admits_alpha(phi.alpha):
        raise ValueError(f"alpha out of range {scheme.interval_label} for {scheme.value}")
    growth = _growth(phi)
    if growth is None:
        return 0.0
    margin = phi.alpha - growth if scheme.is_up else growth - phi.alpha
    return -math.inf if math.isnan(margin) else margin


def vanishing_check(phi: ControlFunction, scheme: Scheme) -> bool:
    """Whether the rescaled control membership tends to 1 at every (x, y) and
    t > 0: N'(phi(2^n x, 2^n y), rate^n t) for an up-scheme, N'(rate^n
    phi(x / 2^n, y / 2^n), t) for a down-scheme.  By homogeneity and N3 that
    is N'(phi(x, y), (rate / 2^degree)^n t) or N'(phi(x, y), (2^degree /
    rate)^n t), so by N5 the limit holds iff phi = 0 or 2^degree < rate (up)
    or > rate (down).  A non-finite delta or theta fails it: NaN compares
    false either way.
    """
    growth = _growth(phi)
    return growth is None or (growth < scheme.rate if scheme.is_up else growth > scheme.rate)


@dataclass(frozen=True)
class TheoremSpec:
    """One verifiable stability statement: schemes, readings, premise pairs."""

    schemes: tuple[Scheme, ...]
    repairs: tuple[str, ...]
    #: The premise pairs (x, y) relative to x, as a pair table.
    y_set: PairTable


REPAIR_DESCRIPTIONS: dict[str, str] = {
    "additive_envelope_pair": (
        "additive envelope: the one-argument entry is evaluated as the pair (x/2, x/2)"
    ),
    "down_sign_factor": (
        "scale-down bounds use the positive threshold factors (alpha-4)/6 and (alpha-2)/4"
    ),
    "combined_beta_one": (
        "combined premise y-set: the unspecified scale factor beta is taken as 1"
    ),
    "combined_lhs_sign": (
        "combined bound compares Q(x) + A(x) - f(x) (sum of the per-component errors)"
    ),
}

THEOREMS: dict[str, TheoremSpec] = {
    "quadratic_up": TheoremSpec(
        schemes=(Scheme.QUADRATIC_UP,),
        repairs=(),
        y_set=_QUADRATIC_Y_SET,
    ),
    "quadratic_down": TheoremSpec(
        schemes=(Scheme.QUADRATIC_DOWN,),
        repairs=("down_sign_factor",),
        y_set=_QUADRATIC_Y_SET,
    ),
    "additive_up": TheoremSpec(
        schemes=(Scheme.ADDITIVE_UP,),
        repairs=("additive_envelope_pair",),
        y_set=_ADDITIVE_Y_SET,
    ),
    "additive_down": TheoremSpec(
        schemes=(Scheme.ADDITIVE_DOWN,),
        repairs=("additive_envelope_pair", "down_sign_factor"),
        y_set=_ADDITIVE_Y_SET,
    ),
    "combined": TheoremSpec(
        schemes=(Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP),
        repairs=("additive_envelope_pair", "combined_beta_one", "combined_lhs_sign"),
        y_set=_COMBINED_Y_SET,
    ),
}


#: Seeded random pairs from the ball at the end of every premise array.
BALL_PAIRS = 32


def premise_pairs(
    theorem: TheoremSpec,
    xs: Sequence[np.ndarray] | np.ndarray,
    rng: np.random.Generator,
    radius: float = 2.0,
) -> np.ndarray:
    """Argument pairs on which the hypotheses are checked, as one
    ``(2, k, d)`` array: the theorem's y-set at every sample x, x-major,
    then ``BALL_PAIRS`` seeded pairs from the ball."""
    points = np.asarray(xs, dtype=float)
    points = points[:, None] if points.ndim == 1 else points  # scalars are 1-vectors
    dim = points.shape[1]
    drawn = sample_ball(rng, dim, radius, 2 * BALL_PAIRS)
    ball = drawn.reshape(BALL_PAIRS, 2, dim).transpose(1, 0, 2)
    return np.concatenate([_pairs_at(theorem.y_set, points), ball], axis=1)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite defect fails, never warns
def measure_residual_sup(
    f: VectorFunction,
    pairs: np.ndarray,
    norm: CrispNorm = euclidean_norm,
) -> float:
    """Largest equation-defect norm over the ``(2, k, d)`` array of argument
    pairs; NaN if any is NaN, 0 for no pairs."""
    norms = stack_norms(norm, residual_main(f, *pairs))
    return float(np.max(norms)) if norms.size else 0.0


@np.errstate(over="ignore", invalid="ignore")  # a non-finite defect fails, never warns
def defect_premise_margin(
    f: VectorFunction,
    phi: ControlFunction,
    N: FuzzyNorm,
    pairs: np.ndarray,
    a_values: Sequence[float],
) -> Margin:
    """Margin of N(defect(x,y), a) over N'(phi(x,y), a) on the
    ``(2, k, d)`` array of pairs.

    A margin below the membership slack means the control does not actually
    dominate the equation defect on the sampled pairs.  A non-finite margin
    is a violation: the worst margin is then ``-inf``; so is every cell of
    a pair whose phi is not finite, which controls nothing.  The witness is
    the pair and threshold of the :func:`_first_worst` cell.
    """
    a = np.asarray(a_values, dtype=float)
    lhs = N.memberships(residual_main(f, *pairs)[:, None, :], a)
    phis = np.asarray(phi.rows(pairs), dtype=float)
    margin = lhs - phi.nprime.memberships(phis[:, None, None], a)
    margin[~np.isfinite(phis)] = -math.inf
    worst, cell = _first_worst(margin)
    if cell is None:
        return Margin(worst, None)
    x, y = pairs[:, cell[0]]
    return Margin(worst, (x, y, float(a[cell[1]])))


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Verification record of one stability bound: ``lhs`` and ``rhs`` are
    ``(points, thresholds)`` grids, row i at sample point ``x_index`` i and
    column j at ``a_values[j]``; a bound not asserted has no points."""

    theorem_id: str
    a_values: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    worst_slack: float
    violations: int
    hypothesis_ok: bool
    note: str = ""
    repairs: tuple[str, ...] = ()

    @property
    def slack(self) -> np.ndarray:
        """lhs - rhs at each cell."""
        return _slack(self.lhs, self.rhs)


# inf - inf is NaN, a violation, and a difference past the largest double is
# -inf or inf: neither warns
_slack = np.errstate(over="ignore", invalid="ignore")(np.subtract)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite error fails, never warns
def verify_stability(
    f: VectorFunction,
    components: Sequence[Callable[[np.ndarray], np.ndarray]],
    phi: ControlFunction,
    theorem_id: str,
    xs: Sequence[np.ndarray],
    a_values: Sequence[float],
    N: FuzzyNorm,
    *,
    premise_margin: Margin,
) -> StabilityReport:
    """Verify one stability bound on an (x, a) grid.

    The defect hypothesis N(defect(x, y), a) >= N'(phi(x, y), a) is checked
    first: ``premise_margin`` is its ``defect_premise_margin`` result on the
    caller's premise pairs.  Unless it :attr:`~Margin.holds`, the bound is
    not asserted and the report carries an explanatory note and empty
    grids.  Otherwise the grids hold lhs = N(component error, a) and rhs =
    the :func:`envelope` of the theorem's schemes at a for each point and
    threshold; a slack below -``MEMBERSHIP_SLACK`` or not finite is a
    violation (a non-finite one makes the worst slack ``-inf``).

    ``components`` holds the components of the theorem's schemes, in their
    order: (Q, A) for the combined bound.  ``f`` and each component are
    called once, on the ``(n, dim_x)`` stack of the points, so each must
    map points ``(..., dim_x)`` to ``(..., dim_y)`` row by row, as
    :class:`ExtractedComponent` and the defect checks do; ``N`` is evaluated
    once, on the ``(n, 1, dim_y)`` errors against the threshold grid.
    """
    theorem = THEOREMS[theorem_id]
    a_grid = np.asarray(a_values, dtype=float)
    lhs = rhs = np.empty((0, a_grid.size))
    worst_premise, witness = premise_margin
    if not premise_margin.holds:
        note = (
            "hypothesis not satisfied: defect membership falls below the control "
            f"membership by {-worst_premise:.3e} at a={witness[2]:g} (bound not asserted)"
        )
        return StabilityReport(
            theorem_id, a_grid, lhs, rhs, math.nan, 0, False, note, theorem.repairs
        )

    if len(xs):  # f and the components take a stack of one point or more
        points = np.asarray(xs, dtype=float)
        points = points[:, None] if points.ndim == 1 else points  # scalars are 1-vectors
        sums = np.sum([np.asarray(c(points), dtype=float) for c in components], axis=0)
        errs = sums - np.asarray(f(points), dtype=float)
        lhs = N.memberships(errs[:, None, :], a_grid)
        rhs = np.array(
            [[envelope(theorem.schemes, phi, x, a) for a in a_grid.tolist()] for x in points]
        )
    slacks = _slack(lhs, rhs)
    worst, _ = _first_worst(slacks) if slacks.size else (0.0, None)
    violations = int(np.count_nonzero(~np.isfinite(slacks) | (slacks < -MEMBERSHIP_SLACK)))
    return StabilityReport(
        theorem_id, a_grid, lhs, rhs, worst, violations, True, repairs=theorem.repairs
    )
