"""Control functions, envelope bounds, and stability verification.

A control function phi(x, y) >= 0 caps the equation defect; its declared
scaling factor alpha decides which rescaling scheme converges.  Each scheme
has an envelope: the minimum of finitely many memberships of phi evaluated
at designated argument pairs.  Verification compares the membership of the
recovered-component error against the envelope on an (x, a) grid and counts
slack violations.

Two layout quirks of the bound definitions are normalized here and surfaced
through ``REPAIR_DESCRIPTIONS`` so reports can disclose them: the additive
envelope's one-argument entry is evaluated as the pair (x/2, x/2), and the
combined bound compares Q(x) + A(x) - f(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .extraction import Scheme
from .funceq import VectorFunction, residual_main
from .spaces import MEMBERSHIP_SLACK, FuzzyNorm, euclidean_norm, log_a_grid, sample_ball

__all__ = [
    "ConstantControl",
    "PowerControl",
    "ProductControl",
    "ControlFunction",
    "EnvelopeId",
    "TheoremSpec",
    "THEOREMS",
    "REPAIR_DESCRIPTIONS",
    "ScalingCheck",
    "StabilityRow",
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

Norm = Callable[[np.ndarray], float]
#: Worst defect-premise margin and its witness (x, y, a); ``None`` for no pairs.
PremiseMargin = tuple[float, tuple[np.ndarray, np.ndarray, float] | None]


def _safe_power(base: float, exponent: float) -> float:
    if base == 0.0:
        if exponent < 0.0:
            raise DomainError("0 raised to a negative power in control evaluation")
        return 0.0 if exponent > 0.0 else 1.0
    try:
        return float(base ** exponent)
    except OverflowError:  # Python's float ** raises where numpy gives inf
        return math.inf


def _norm_rows(norm: Norm, v: np.ndarray) -> np.ndarray:
    """Norms of the vectors ``v`` of shape ``(..., d)``, shape ``(...)``: the
    norm's row form, or one call per vector."""
    rows = getattr(norm, "rows", None)
    if rows is not None:
        return rows(v)
    flat = [norm(r) for r in v.reshape(-1, v.shape[-1])]
    return np.array(flat, dtype=float).reshape(v.shape[:-1])


@dataclass(frozen=True)
class ConstantControl:
    """phi(x, y) = delta; scale invariant (degree 0)."""

    delta: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def degree(self) -> float:
        return 0.0

    def rows(self, uw: np.ndarray, norm: Norm = euclidean_norm) -> np.ndarray:
        """phi at the pairs (uw[0, i], uw[1, i]) of the stacked ``(2, k, d)``
        array, shape ``(k,)``."""
        return np.full(uw.shape[1], self.delta)


@dataclass(frozen=True)
class PowerControl:
    """phi(x, y) = theta * (||x||^p + ||y||^p); homogeneous of degree p."""

    theta: float
    p: float
    alpha: float

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def degree(self) -> float:
        return self.p

    def rows(self, uw: np.ndarray, norm: Norm = euclidean_norm) -> np.ndarray:
        """phi at the pairs (uw[0, i], uw[1, i]) of the stacked ``(2, k, d)``
        array, shape ``(k,)``."""
        theta, p = self.theta, self.p
        ru, rw = _norm_rows(norm, uw).tolist()
        return np.array(
            [theta * (_safe_power(r, p) + _safe_power(s, p)) for r, s in zip(ru, rw)], dtype=float
        )


@dataclass(frozen=True)
class ProductControl:
    """phi(x, y) = theta * ||x||^p1 * ||y||^p2; homogeneous of degree p1 + p2."""

    theta: float
    p1: float
    p2: float
    alpha: float

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def degree(self) -> float:
        return self.p1 + self.p2

    def rows(self, uw: np.ndarray, norm: Norm = euclidean_norm) -> np.ndarray:
        """phi at the pairs (uw[0, i], uw[1, i]) of the stacked ``(2, k, d)``
        array, shape ``(k,)``."""
        theta, p1, p2 = self.theta, self.p1, self.p2
        ru, rw = _norm_rows(norm, uw).tolist()
        return np.array(
            [theta * _safe_power(r, p1) * _safe_power(s, p2) for r, s in zip(ru, rw)], dtype=float
        )


ControlFunction = ConstantControl | PowerControl | ProductControl


def eval_control(
    phi: ControlFunction, x: np.ndarray, y: np.ndarray, norm: Norm = euclidean_norm
) -> float:
    """Evaluate phi at (x, y), two vectors of one dimension, under the given
    crisp norm on the domain: the row form of phi on the one pair."""
    return float(phi.rows(np.asarray([x, y], dtype=float).reshape(2, 1, -1), norm)[0])


def _thresholds(a_grid: Sequence[float] | None) -> np.ndarray:
    return np.asarray(tuple(a_grid) if a_grid is not None else log_a_grid(), dtype=float)


def _stack_pairs(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The pairs stacked to ``(2, pairs, dim)``: the x of each at index 0,
    the y at index 1."""
    return np.array(
        [[np.atleast_1d(np.asarray(v, dtype=float)) for v in side] for side in zip(*pairs)]
    )


def _control_memberships(
    nprime: FuzzyNorm, values: Sequence[float] | np.ndarray, a: np.ndarray
) -> np.ndarray:
    """N'(value_i, a_j) over (values x thresholds), each equal to
    ``nprime(value_i, a_j)``."""
    return nprime.memberships(np.asarray(values, dtype=float).reshape(-1, 1, 1), a)


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


class EnvelopeId(Enum):
    N1PP = "N1pp"
    N2PP = "N2pp"
    N3PP = "N3pp"
    N4PP = "N4pp"
    NPP = "Npp"


def _pair_table(*pairs: tuple[tuple[float, float], tuple[float, float]]):
    """An envelope's designated pairs ``((u_num, u_den), (w_num, w_den))`` as
    arrays ``num`` and ``den`` of shape ``(2, pairs, 1)``, so that
    ``(num * x) / den`` stacks the u (index 0) and the w (index 1) of every
    pair, and the mask of the nonzero ``num``: a zero entry is the zero
    vector, never ``0 * x``, which is NaN at an infinite x."""
    num, den = np.array(pairs, dtype=float).transpose(2, 1, 0)[..., None]
    return num, den, num != 0.0


# Each entry is rounded as (num * x) / den; 1.5 * x is one rounding, not 3 * x / 2.
_QUADRATIC_PAIRS = _pair_table(
    ((1, 3), (1, 3)), ((1, 3), (1, 1)), ((1, 3), (4, 3)), ((1, 3), (-2, 3)), ((1, 3), (0, 1))
)
# The one-argument entry of the additive envelope is read as (x/2, x/2).
_ADDITIVE_PAIRS = _pair_table(
    ((1, 1), (1, 1)), ((1, 2), (1, 2)), ((1, 2), (2, 1)), ((1, 2), (1.5, 1))
)


def _quadratic_y_set(x: np.ndarray) -> list[np.ndarray]:
    return [np.zeros_like(x), x / 3.0, 4.0 * x / 3.0, -2.0 * x / 3.0, x]


def _additive_y_set(x: np.ndarray) -> list[np.ndarray]:
    return [x, x / 2.0, 1.5 * x, 2.0 * x]


def _combined_y_set(x: np.ndarray) -> list[np.ndarray]:
    # Scale factor on this set taken as 1 (it is left unspecified upstream).
    return [np.zeros_like(x), x, x / 2.0, 4.0 * x / 3.0, -2.0 * x / 3.0, x / 3.0, 1.5 * x, 2.0 * x]


def envelope(
    which: EnvelopeId,
    phi: ControlFunction,
    nprime: FuzzyNorm,
    x: np.ndarray,
    a: float,
    norm: Norm = euclidean_norm,
) -> float:
    """Envelope membership at (x, a): min of N'(phi(u, w), a) over the
    designated pairs, NaN if any of them is NaN.  Returns 0 for a <= 0;
    inherits monotonicity in a.

    phi is evaluated at all pairs in one call of its row form, and the
    minimum is one :meth:`FuzzyNorm.least_membership` call.  A constant
    control is delta at every pair, so its least membership is N'(delta, a).
    """
    if a <= 0.0:
        return 0.0
    if which is EnvelopeId.NPP:
        alpha = phi.alpha
        memberships = [
            envelope(EnvelopeId.N1PP, phi, nprime, x, a * (4.0 - alpha) / 12.0, norm),
            envelope(EnvelopeId.N3PP, phi, nprime, x, a * (2.0 - alpha) / 8.0, norm),
        ]
        # Python's min keeps a NaN only when it comes first; any NaN membership
        # makes the envelope NaN, which verification counts as a violation.
        return math.nan if any(map(math.isnan, memberships)) else min(memberships)
    if isinstance(phi, ConstantControl):
        return nprime(np.array([phi.delta]), a)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    quadratic = which in (EnvelopeId.N1PP, EnvelopeId.N2PP)
    num, den, nonzero = _QUADRATIC_PAIRS if quadratic else _ADDITIVE_PAIRS
    uw = np.multiply(num, xv, out=np.zeros(num.shape[:2] + xv.shape), where=nonzero)
    uw /= den
    return nprime.least_membership(phi.rows(uw, norm)[:, None], a)


@dataclass(frozen=True, eq=False)
class ScalingCheck:
    """Verdict of the scaling-compatibility inequality for (phi, scheme)."""

    ok: bool
    reason: str = ""
    witness: tuple[np.ndarray, np.ndarray, float, float, float] | None = None
    worst_slack: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def scaling_alpha_check(
    phi: ControlFunction,
    scheme: Scheme,
    nprime: FuzzyNorm,
    xs: Sequence[np.ndarray],
    a_grid: Sequence[float] | None = None,
    norm: Norm = euclidean_norm,
    slack: float = MEMBERSHIP_SLACK,
    y_override: Callable[[np.ndarray], list[np.ndarray]] | None = None,
) -> ScalingCheck:
    """Check that doubling (up) or halving (down) the arguments rescales phi
    compatibly with the declared alpha, and that alpha lies in the scheme's
    admissible interval.

    Up-schemes require N'(phi(2u, 2y), a) >= N'(alpha phi(u, y), a); down-
    schemes the reciprocal form N'(phi(u/2, y/2), a) >= N'(phi(u, y), alpha a).
    The pair u is x/3 (quadratic) or x/2 (additive) with y drawn from the
    scheme's designated set relative to x (``y_override`` substitutes a
    different set).  For homogeneous families this reduces to
    2^degree <= alpha (up) or 2^degree >= alpha (down).
    """
    if not scheme.admits_alpha(phi.alpha):
        return ScalingCheck(
            ok=False,
            reason=f"alpha out of range {scheme.interval_label} for {scheme.value}",
        )
    grid = _thresholds(a_grid)
    y_set = y_override or (_quadratic_y_set if scheme.is_quadratic else _additive_y_set)
    shrink = 3.0 if scheme.is_quadratic else 2.0
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for x in xs:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        pairs.extend((xv, y) for y in y_set(xv))
    if not pairs:
        return ScalingCheck(ok=True, worst_slack=math.inf)
    uy = _stack_pairs(pairs)
    uy[0] /= shrink
    if scheme.is_up:
        lhs_phi = phi.rows(2 * uy, norm)
        with np.errstate(over="ignore"):  # the product overflows to inf, as Python floats do
            rhs_phi = phi.alpha * phi.rows(uy, norm)
    else:
        lhs_phi = phi.rows(uy / 2, norm)
        rhs_phi = phi.rows(uy, norm)
    lhs = _control_memberships(nprime, lhs_phi, grid)
    rhs = _control_memberships(nprime, rhs_phi, grid if scheme.is_up else phi.alpha * grid)
    worst, cell = _first_worst(lhs - rhs)
    witness = None
    if cell is not None:
        xv, y = pairs[cell[0]]
        witness = (xv, y, float(grid[cell[1]]), float(lhs[cell]), float(rhs[cell]))
    ok = bool(worst >= -slack)
    reason = "" if ok else "scaling inequality violated at a sample"
    return ScalingCheck(ok=ok, reason=reason, witness=witness, worst_slack=worst)


def vanishing_check(
    phi: ControlFunction,
    scheme: Scheme,
    nprime: FuzzyNorm,
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    n_probe: int,
    a_grid: Sequence[float] | None = None,
    tol: float = 0.01,
    norm: Norm = euclidean_norm,
) -> bool:
    """Probe whether the rescaled control membership has reached 1.

    Up-schemes evaluate N'(phi(2^n x, 2^n y), m^n a) and down-schemes
    N'(m^n phi(x / 2^n, y / 2^n), a), with m = 4 (quadratic) or 2
    (additive), at n = n_probe.  True iff every sampled membership exceeds
    1 - tol; a membership stuck at a constant below 1 (degree exactly at
    the scheme boundary) therefore reports False.  phi is evaluated at every
    pair before any membership is compared.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be >= 1")
    grid = _thresholds(a_grid)
    shift = scheme.value_shift * n_probe
    step = n_probe if scheme.is_up else -n_probe
    if not pairs:
        return True
    values = phi.rows(np.ldexp(_stack_pairs(pairs), step), norm)
    # Overflow to inf keeps the limit: membership 0 at an infinite value,
    # 1 at an infinite threshold.
    with np.errstate(over="ignore"):
        if scheme.is_up:
            memberships = _control_memberships(nprime, values, np.ldexp(grid, shift))
        else:
            memberships = _control_memberships(nprime, np.ldexp(values, shift), grid)
    return bool(np.all(memberships > 1.0 - tol))


@dataclass(frozen=True)
class TheoremSpec:
    """One verifiable stability statement: schemes, envelope, threshold."""

    schemes: tuple[Scheme, ...]
    envelope_id: EnvelopeId
    #: (a, alpha) -> the threshold at which the envelope bounds level a.
    threshold: Callable[[float, float], float]
    repairs: tuple[str, ...]
    y_set: Callable[[np.ndarray], list[np.ndarray]]


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
        envelope_id=EnvelopeId.N1PP,
        threshold=lambda a, alpha: a * (4.0 - alpha) / 6.0,
        repairs=(),
        y_set=_quadratic_y_set,
    ),
    "quadratic_down": TheoremSpec(
        schemes=(Scheme.QUADRATIC_DOWN,),
        envelope_id=EnvelopeId.N2PP,
        threshold=lambda a, alpha: a * (alpha - 4.0) / 6.0,
        repairs=("down_sign_factor",),
        y_set=_quadratic_y_set,
    ),
    "additive_up": TheoremSpec(
        schemes=(Scheme.ADDITIVE_UP,),
        envelope_id=EnvelopeId.N3PP,
        threshold=lambda a, alpha: a * (2.0 - alpha) / 4.0,
        repairs=("additive_envelope_pair",),
        y_set=_additive_y_set,
    ),
    "additive_down": TheoremSpec(
        schemes=(Scheme.ADDITIVE_DOWN,),
        envelope_id=EnvelopeId.N4PP,
        threshold=lambda a, alpha: a * (alpha - 2.0) / 4.0,
        repairs=("additive_envelope_pair", "down_sign_factor"),
        y_set=_additive_y_set,
    ),
    "combined": TheoremSpec(
        schemes=(Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP),
        envelope_id=EnvelopeId.NPP,
        threshold=lambda a, alpha: a,  # the factors live inside the Npp envelope
        repairs=("additive_envelope_pair", "combined_beta_one", "combined_lhs_sign"),
        y_set=_combined_y_set,
    ),
}


def premise_pairs(
    theorem: TheoremSpec,
    xs: Sequence[np.ndarray],
    rng: np.random.Generator,
    n_random: int = 32,
    radius: float = 2.0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Argument pairs on which the defect hypothesis is checked: the
    theorem's y-set at every sample x, plus seeded random pairs."""
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    dim = 1
    for x in xs:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        dim = xv.size
        pairs.extend((xv, y) for y in theorem.y_set(xv))
    for _ in range(n_random):
        pairs.append((sample_ball(rng, dim, radius), sample_ball(rng, dim, radius)))
    return pairs


def measure_residual_sup(
    f: VectorFunction,
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    norm: Norm = euclidean_norm,
) -> float:
    """Largest equation-defect norm over the given argument pairs; NaN if any is NaN."""
    if not pairs:
        return 0.0
    defects = residual_main(f, *_stack_pairs(pairs)).value
    return float(np.max(_norm_rows(norm, defects)))


def defect_premise_margin(
    f: VectorFunction,
    phi: ControlFunction,
    N: FuzzyNorm,
    nprime: FuzzyNorm,
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    a_values: Sequence[float],
    norm: Norm = euclidean_norm,
) -> PremiseMargin:
    """Worst margin of N(defect(x,y), a) - N'(phi(x,y), a) over the pairs.

    A margin below the membership slack means the control does not actually
    dominate the equation defect on the sampled pairs.  A non-finite margin
    is a violation: the worst margin is then ``-inf``.
    """
    if not pairs:
        return math.inf, None
    a = np.asarray(a_values, dtype=float)
    xy = _stack_pairs(pairs)
    defects = residual_main(f, *xy).value
    phi_values = phi.rows(xy, norm)
    margin = N.memberships(defects[:, None, :], a) - _control_memberships(nprime, phi_values, a)
    worst, cell = _first_worst(margin)
    if cell is None:
        return worst, None
    x, y = pairs[cell[0]]
    return worst, (x, y, float(a[cell[1]]))


@dataclass(frozen=True, eq=False)
class StabilityRow:
    x_index: int
    x: np.ndarray
    a: float
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Grid verification record of one stability bound."""

    theorem_id: str
    rows: tuple[StabilityRow, ...]
    worst_slack: float
    violations: int
    hypothesis_ok: bool
    note: str = ""
    repairs: tuple[str, ...] = ()


def verify_stability(
    f: VectorFunction,
    components: Sequence[Callable[[np.ndarray], np.ndarray]],
    phi: ControlFunction,
    theorem_id: str,
    xs: Sequence[np.ndarray],
    a_values: Sequence[float],
    N: FuzzyNorm,
    nprime: FuzzyNorm,
    *,
    premise_margin: PremiseMargin,
    norm: Norm = euclidean_norm,
    slack: float = MEMBERSHIP_SLACK,
) -> StabilityReport:
    """Verify one stability bound on an (x, a) grid.

    The defect hypothesis N(defect(x, y), a) >= N'(phi(x, y), a) is checked
    first: ``premise_margin`` is its ``defect_premise_margin`` result on the
    caller's premise pairs.  If it fails anywhere the bound is not asserted and the report carries an
    explanatory note with no rows.  Otherwise each grid point contributes a
    row with lhs = N(component error, a), rhs = envelope threshold at
    ``phi.alpha``, and a violation is any slack below -``slack`` or not
    finite (a non-finite slack makes the worst slack ``-inf``).

    ``components`` holds the components of the theorem's schemes, in their
    order: (Q, A) for the combined bound.
    """
    theorem = THEOREMS[theorem_id]
    worst_premise, witness = premise_margin
    if worst_premise < -slack:
        wx, wy, wa = witness
        return StabilityReport(
            theorem_id=theorem_id,
            rows=(),
            worst_slack=float("nan"),
            violations=0,
            hypothesis_ok=False,
            note=(
                "hypothesis not satisfied: defect membership falls below the control "
                f"membership by {-worst_premise:.3e} at a={wa:g} (bound not asserted)"
            ),
            repairs=theorem.repairs,
        )

    a_grid = np.asarray(a_values, dtype=float)
    rows: list[StabilityRow] = []
    for i, x in enumerate(xs):
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        fx = np.asarray(f(xv), dtype=float)
        err = np.sum([np.asarray(c(xv), dtype=float) for c in components], axis=0) - fx
        lhs = N.memberships(err, a_grid).tolist()
        for a, lhs_a in zip(a_grid.tolist(), lhs):
            rhs = envelope(
                theorem.envelope_id, phi, nprime, xv, theorem.threshold(a, phi.alpha), norm
            )
            rows.append(StabilityRow(x_index=i, x=xv, a=a, lhs=lhs_a, rhs=rhs))
    slacks = np.array([row.slack for row in rows])
    worst, _ = _first_worst(slacks)
    return StabilityReport(
        theorem_id=theorem_id,
        rows=tuple(rows),
        worst_slack=worst if rows else 0.0,
        violations=int(np.count_nonzero(~np.isfinite(slacks) | (slacks < -slack))),
        hypothesis_ok=True,
        repairs=theorem.repairs,
    )
