"""The hypothesis-stage checks and stacked test functions against their
one-point forms.

``reference_*`` are the control checks as loops over single pairs and
single thresholds, one membership call at a time, on lists of pairs.  The
defect sup and the defect premise in ``fuzzystab.control`` take the same
pairs as one ``(2, k, d)`` array and must reproduce them exactly on finite
inputs: the worst margin down to the sign of a zero, and the witness.
``reference_scaling_alpha_check`` is the scaling hypothesis sampled on the
y-set at every (x, a); acceptance criterion 8 compares the exact check
with its verdict.  Each theorem's y-set table must give the bytes of
the y-set function it replaced, edge coordinates included.
``reference_envelope`` is the envelope as a loop over its pairs, one
control value and one membership call per pair, at a threshold its caller
computes; ``PAPER_BOUNDS`` gives each theorem's envelope kind and its
threshold formula as the paper writes it.  ``reference_control`` is the
control families' one-pair formulas in Python floats.  The row forms, and
the envelope of each theorem's schemes at level a, must reproduce them bit
for bit, non-finite and overflowing inputs included.  A
stacked ``TestFunction`` call must equal the single-vector calls bit for
bit, for every perturbation shape, and both must equal
``reference_test_function``, the one-vector evaluation in Python floats
with ``math.sin``, which also gives the ``cos`` shape as −2 sin²(q/2).  A
numpy build whose ``np.sin`` differs from ``math.sin`` fails that test.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import pytest

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzystab.control import (
    THEOREMS,
    ConstantControl,
    PowerControl,
    ProductControl,
    _pairs_at,
    defect_premise_margin,
    envelope,
    eval_control,
    measure_residual_sup,
)
from fuzzystab.errors import DomainError
from fuzzystab.extraction import Scheme
from fuzzystab.funceq import (
    PERTURBATION_SHAPES,
    CoordinatePoly,
    Perturbation,
    TestFunction,
    residual_main,
)
from fuzzystab.spaces import MEMBERSHIP_SLACK, FuzzyNorm, crisp_norm, euclidean_norm, log_a_grid


def _quadratic_y_set(x: np.ndarray) -> list[np.ndarray]:
    return [np.zeros_like(x), x / 3.0, 4.0 * x / 3.0, -2.0 * x / 3.0, x]


def _additive_y_set(x: np.ndarray) -> list[np.ndarray]:
    return [x, x / 2.0, 1.5 * x, 2.0 * x]


def _combined_y_set(x: np.ndarray) -> list[np.ndarray]:
    # Scale factor on this set taken as 1 (it is left unspecified upstream).
    return [np.zeros_like(x), x, x / 2.0, 4.0 * x / 3.0, -2.0 * x / 3.0, x / 3.0, 1.5 * x, 2.0 * x]


@dataclass(frozen=True, eq=False)
class ScalingCheck:
    """The scaling verdict of the reference loop: the verdict with its
    reason, the witness (x, y, a, lhs, rhs) and the worst margin."""

    ok: bool
    reason: str = ""
    witness: tuple | None = None
    worst_slack: float = 0.0


#: Theorem id -> the y-set function its pair table replaced.
Y_SETS = {
    "quadratic_up": _quadratic_y_set,
    "quadratic_down": _quadratic_y_set,
    "additive_up": _additive_y_set,
    "additive_down": _additive_y_set,
    "combined": _combined_y_set,
}


def reference_scaling_alpha_check(
    phi,
    scheme: Scheme,
    xs: Sequence[np.ndarray],
    a_grid: Sequence[float] | None = None,
    slack: float = MEMBERSHIP_SLACK,
) -> ScalingCheck:
    if not scheme.admits_alpha(phi.alpha):
        return ScalingCheck(
            ok=False,
            reason=f"alpha out of range {scheme.interval_label} for {scheme.value}",
        )
    grid = tuple(a_grid) if a_grid is not None else log_a_grid()
    nprime = phi.nprime
    y_set = _quadratic_y_set if scheme.is_quadratic else _additive_y_set
    shrink = 3.0 if scheme.is_quadratic else 2.0
    worst = np.inf
    witness = None
    for x in xs:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        u = xv / shrink
        for y in y_set(xv):
            for a in grid:
                if scheme.is_up:
                    lhs = nprime(eval_control(phi, 2 * u, 2 * y), a)
                    rhs = nprime(phi.alpha * eval_control(phi, u, y), a)
                else:
                    lhs = nprime(eval_control(phi, u / 2, y / 2), a)
                    rhs = nprime(eval_control(phi, u, y), phi.alpha * a)
                margin = lhs - rhs
                if margin < worst:
                    worst = margin
                    witness = (xv, y, float(a), lhs, rhs)
    ok = bool(worst >= -slack)
    reason = "" if ok else "scaling inequality violated at a sample"
    return ScalingCheck(ok=ok, reason=reason, witness=witness, worst_slack=float(worst))


def reference_measure_residual_sup(f, pairs, norm=euclidean_norm) -> float:
    return max((norm(residual_main(f, x, y)) for x, y in pairs), default=0.0)


def reference_defect_premise_margin(f, phi, N, pairs, a_values):
    nprime = phi.nprime
    worst = np.inf
    witness = None
    for x, y in pairs:
        defect = residual_main(f, x, y)
        phi_val = eval_control(phi, x, y)
        for a in a_values:
            # a phi that is not finite controls nothing
            margin = N(defect, a) - nprime(phi_val, a) if math.isfinite(phi_val) else -np.inf
            if margin < worst:
                worst = margin
                witness = (x, y, float(a))
    return float(worst), witness


def _reference_power(base: float, exponent: float) -> float:
    if base == 0.0:
        if exponent < 0.0:
            raise DomainError("0 raised to a negative power in control evaluation")
        return 0.0 if exponent > 0.0 else 1.0
    try:
        return float(base ** exponent)
    except OverflowError:
        return math.inf


def reference_control(phi, x, y) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    power = _reference_power
    if isinstance(phi, ConstantControl):
        value = phi.delta
    elif isinstance(phi, PowerControl):
        value = phi.theta * (power(phi.norm(x), phi.p) + power(phi.norm(y), phi.p))
    else:
        value = phi.theta * power(phi.norm(x), phi.p1) * power(phi.norm(y), phi.p2)
    return float(value)


def _quadratic_pairs(x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    u = x / 3.0
    return [(u, u), (u, x), (u, 4.0 * x / 3.0), (u, -2.0 * x / 3.0), (u, np.zeros_like(x))]


def _additive_pairs(x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    u = x / 2.0
    # The one-argument entry of the additive envelope is read as (x/2, x/2).
    return [(x, x), (u, u), (u, 2.0 * x), (u, 1.5 * x)]


class EnvelopeId(Enum):
    """The envelope kinds the reference loop takes: one per theorem."""

    N1PP = "N1pp"
    N2PP = "N2pp"
    N3PP = "N3pp"
    N4PP = "N4pp"
    NPP = "Npp"


def reference_envelope(which, phi, x, a) -> float:
    if a <= 0.0:
        return 0.0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if which is EnvelopeId.NPP:
        alpha = phi.alpha
        memberships = [
            reference_envelope(EnvelopeId.N1PP, phi, xv, a * (4.0 - alpha) / 12.0),
            reference_envelope(EnvelopeId.N3PP, phi, xv, a * (2.0 - alpha) / 8.0),
        ]
    else:
        if which in (EnvelopeId.N1PP, EnvelopeId.N2PP):
            pairs = _quadratic_pairs(xv)
        else:
            pairs = _additive_pairs(xv)
        memberships = [phi.nprime(reference_control(phi, u, w), a) for u, w in pairs]
    # Python's min keeps a NaN only when it comes first; any NaN membership
    # makes the envelope NaN, which verification counts as a violation.
    return math.nan if any(map(math.isnan, memberships)) else min(memberships)


def reference_test_function(f: TestFunction, x: np.ndarray) -> np.ndarray:
    out = []
    for c in f.coords:
        v = c.const
        if c.quad is not None:
            v += float(x @ c.quad @ x)
        if c.linear is not None:
            v += float(c.linear @ x)
        out.append(v)
    values = np.array(out, dtype=float)
    for p in f.perturbations:
        if isinstance(p.frequency, tuple):
            q = float(np.asarray(p.frequency, dtype=float) @ x)
        else:
            q = float(p.frequency) * float(np.sum(x))
        if p.shape == "sin":
            s = math.sin(q)
        elif p.shape == "cos":
            s = math.sin(0.5 * q)
            s = 0.0 - 2.0 * (s * s)  # cos q - 1, without its cancellation at small q
        else:
            s = 1.0 / q if abs(q) > 1e100 else q / (1.0 + q * q)
        values += np.broadcast_to(np.asarray(p.amplitude, dtype=float) * s, (f.dim_y,))
    return values


def _bits(value):
    """Exact identity of a result: floats by their hex form (sign of zero
    included), arrays by dtype, shape and bytes, containers item by item."""
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex())
    return value


def _stacked(pairs) -> np.ndarray:
    """A list of pairs (x, y) as the ``(2, k, d)`` array the array forms take."""
    return np.array([[x for x, _ in pairs], [y for _, y in pairs]])


# --- strategies ----------------------------------------------------------

_COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_ALPHA = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 10.0]), st.floats(0.1, 12.0))
_POWER = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 3.0))
_THETA = st.floats(0.0, 3.0)
_THRESHOLDS = st.lists(
    st.one_of(st.sampled_from([0.0, -1.0, 1e-3, 1.0, 1e3]), st.floats(-1.0, 1e3)),
    min_size=1,
    max_size=6,
)


def _vector(dim):
    return st.lists(_COORD, min_size=dim, max_size=dim).map(np.array)


def _pairs(draw, dim):
    vector = st.one_of(_vector(dim), st.just(np.zeros(dim)))
    return draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=6))


@st.composite
def _controls(draw):
    family = draw(st.sampled_from(["constant", "power", "product"]))
    alpha = draw(_ALPHA)
    if family == "constant":
        return ConstantControl(delta=draw(st.floats(0.0, 3.0)), alpha=alpha)
    if family == "power":
        return PowerControl(theta=draw(_THETA), p=draw(_POWER), alpha=alpha)
    return ProductControl(theta=draw(_THETA), p1=draw(_POWER), p2=draw(_POWER), alpha=alpha)


def _crisp(draw, dim):
    kind = draw(st.sampled_from(["euclidean", "max", "weighted"]))
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim))
    return crisp_norm(kind, weights if kind == "weighted" else None)


def _owning(draw, phi, dim):
    """phi holding a drawn N' and, unless constant, a drawn crisp norm of
    the dimension ``dim``."""
    norms = {"nprime": _fuzzy_norm(draw, 1)}
    if not isinstance(phi, ConstantControl):
        norms["norm"] = _crisp(draw, dim)
    return replace(phi, **norms)


def _squared(x, a):
    if a <= 0:
        return 0.0
    return a / (a + float(np.linalg.norm(x)) ** 2)


def _fuzzy_norm(draw, dim):
    """An induced norm of any crisp kind, or a custom evaluator (per-cell path)."""
    if draw(st.booleans()):
        return FuzzyNorm(evaluator=_squared)
    return FuzzyNorm.induced(_crisp(draw, dim))


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
            st.sampled_from([1e101, -3e150]),  # |q| > 1e100 takes the 1/q branch
            st.lists(st.floats(-3.0, 3.0), min_size=dim_x, max_size=dim_x).map(tuple),
        )
    )
    return Perturbation(shape=shape, amplitude=amplitude, frequency=frequency)


@st.composite
def _test_functions(draw, dim_x, max_dim_y=3):
    dim_y = draw(st.integers(1, max_dim_y))
    entry = st.floats(-3.0, 3.0)
    coords = []
    for _ in range(dim_y):
        quad = draw(
            st.none()
            | st.lists(entry, min_size=dim_x * dim_x, max_size=dim_x * dim_x).map(
                lambda v: np.array(v).reshape(dim_x, dim_x)
            )
        )
        linear = draw(st.none() | st.lists(entry, min_size=dim_x, max_size=dim_x).map(np.array))
        const = draw(st.sampled_from([0.0, -0.0, 1.5]) | entry)
        coords.append(CoordinatePoly(quad=quad, linear=linear, const=const))
    perts = draw(st.lists(_perturbations(dim_x, dim_y), max_size=3))
    return TestFunction(coords=tuple(coords), perturbations=tuple(perts), dim_x=dim_x)


# --- the control checks against their loops ---------------------------------


@st.composite
def _premise_case(draw):
    dim = draw(st.integers(1, 3))
    f = draw(_test_functions(dim))
    return dict(
        f=f,
        phi=_owning(draw, draw(st.one_of(_controls(), _edge_controls())), dim),
        N=_fuzzy_norm(draw, f.dim_y),
        pairs=_pairs(draw, dim),
        a_values=draw(_THRESHOLDS),
    )


def _premise_example(phi, pairs):
    """A premise case on x^2 under the Euclidean N, at a = 1 and 1e3."""
    pairs = [(np.array([x]), np.array([y])) for x, y in pairs]
    f, N = TestFunction.scalar(quad=1.0), FuzzyNorm.induced()
    return dict(f=f, phi=phi, N=N, pairs=pairs, a_values=[1.0, 1e3])


def _premise_outcome(fn, **kwargs):
    """The bits of ``fn``'s margin, or DomainError if it raised one."""
    try:
        return _bits(fn(**kwargs))
    except DomainError:
        return DomainError


@settings(max_examples=200, deadline=None)
@given(_premise_case())
# a phi that is not finite controls nothing: an infinite or NaN delta, and
# a power control whose value overflows at the first pair only
@example(_premise_example(ConstantControl(delta=math.inf, alpha=1.0), [(0.5, 1.0)]))
@example(_premise_example(ConstantControl(delta=math.nan, alpha=1.0), [(0.5, 1.0), (2.0, 0.0)]))
@example(_premise_example(PowerControl(1.0, 3.0, 1.0), [(1e110, 1.0), (0.5, -1.0)]))
def test_defect_premise_margin_equals_reference_loop(case):
    got = _premise_outcome(defect_premise_margin, **{**case, "pairs": _stacked(case["pairs"])})
    assert got == _premise_outcome(reference_defect_premise_margin, **case)


@st.composite
def _residual_sup_case(draw):
    dim = draw(st.integers(1, 3))
    f = draw(_test_functions(dim))
    # a crisp norm or a plain callable that maps stacks; the reference loop
    # calls either one vector at a time
    norm = draw(st.sampled_from([None, lambda v: np.sum(np.abs(v), axis=-1)]))
    return dict(f=f, pairs=_pairs(draw, dim), norm=norm or _crisp(draw, f.dim_y))


@settings(max_examples=150, deadline=None)
@given(_residual_sup_case())
def test_measure_residual_sup_equals_reference_loop(case):
    got = measure_residual_sup(**{**case, "pairs": _stacked(case["pairs"])})
    assert _bits(got) == _bits(reference_measure_residual_sup(**case))


# --- stacked test functions -------------------------------------------------


@st.composite
def _stacked_case(draw):
    dim_x = draw(st.integers(1, 10))
    f = draw(_test_functions(dim_x))
    point = st.one_of(_vector(dim_x), st.just(np.zeros(dim_x)))
    rows = draw(st.lists(point, min_size=1, max_size=6))
    return f, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(_stacked_case())
@example(  # here s ** 2 on one point's float64 scalar (a pow) and on an array differ
    (
        TestFunction.scalar(perturbations=(Perturbation("cos", amplitude=1.0, frequency=1.0),)),
        np.array([[-0.666775643825531]]),
    )
)
def test_stacked_test_function_equals_single_calls(case):
    f, points = case
    one_by_one = np.stack([f(x) for x in points])
    assert f(points[0]).shape == (f.dim_y,)
    assert _bits(one_by_one) == _bits(np.stack([reference_test_function(f, x) for x in points]))
    assert _bits(f(points)) == _bits(one_by_one)
    # any number of leading axes
    grid = points[None, :, :]
    assert _bits(f(grid)) == _bits(one_by_one[None])


# --- the envelope and the row forms against their one-pair loops -------------

#: Coordinates at the edges of the float range: zeros, subnormals, 1e150
#: (whose cube overflows) and non-finite values.
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e150, -1e150, math.inf, math.nan])
#: Coordinates with a uniformly drawn 52-bit mantissa, in ±[1/8, 8): their
#: powers round in the last bit where short ones come out exact.
_MANTISSA = st.tuples(st.integers(0, 2**52 - 1), st.integers(-3, 2), st.booleans()).map(
    lambda t: math.copysign(math.ldexp(1.0 + t[0] / 2**52, t[1]), -1.0 if t[2] else 1.0)
)
_EDGE_POWER = st.sampled_from([1.5, 3.0])


@st.composite
def _edge_controls(draw):
    family = draw(st.sampled_from(["constant", "power", "product"]))
    alpha = draw(_ALPHA)
    if family == "constant":
        # an auto delta is NaN when a sampled defect is NaN
        delta = st.one_of(st.sampled_from([0.0, math.inf, math.nan]), st.floats(0.0, 3.0))
        return ConstantControl(delta=draw(delta), alpha=alpha)
    if family == "power":
        return PowerControl(theta=draw(_THETA), p=draw(_EDGE_POWER), alpha=alpha)
    return ProductControl(
        theta=draw(_THETA), p1=draw(_EDGE_POWER), p2=draw(_EDGE_POWER), alpha=alpha
    )


def _edge_vector(draw, dim):
    coord = st.one_of(_COORD, _MANTISSA, _EDGE)
    return np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))


#: The edges of the float range the y-set tables are checked at.
_Y_SET_EDGE = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]
)


@st.composite
def _y_set_points(draw):
    dim = draw(st.integers(1, 3))
    coord = st.one_of(_Y_SET_EDGE, _COORD, _MANTISSA)
    point = st.lists(coord, min_size=dim, max_size=dim)
    return np.array(draw(st.lists(point, min_size=1, max_size=6)))


@pytest.mark.parametrize("theorem_id", THEOREMS)
@settings(max_examples=200, deadline=None)
@given(_y_set_points())
def test_y_set_table_equals_its_function(theorem_id, points):
    function = Y_SETS[theorem_id]
    with np.errstate(all="ignore"):  # 4 * 1e308 overflows in both forms
        want = _stacked([(x, y) for x in points for y in function(x)])
        assert _bits(_pairs_at(THEOREMS[theorem_id].y_set, points)) == _bits(want)


#: Theorem id -> its bound as the paper writes it: the reference's envelope
#: kind and the threshold (a, alpha) -> t of each part.  The combined bound
#: is the eps/2 split: the quadratic_up and additive_up bounds at a / 2.
PAPER_BOUNDS = {
    "quadratic_up": [(EnvelopeId.N1PP, lambda a, alpha: a * (4.0 - alpha) / 6.0)],
    "quadratic_down": [(EnvelopeId.N2PP, lambda a, alpha: a * (alpha - 4.0) / 6.0)],
    "additive_up": [(EnvelopeId.N3PP, lambda a, alpha: a * (2.0 - alpha) / 4.0)],
    "additive_down": [(EnvelopeId.N4PP, lambda a, alpha: a * (alpha - 2.0) / 4.0)],
    "combined": [
        (EnvelopeId.N1PP, lambda a, alpha: a / 2 * (4.0 - alpha) / 6.0),
        (EnvelopeId.N3PP, lambda a, alpha: a / 2 * (2.0 - alpha) / 4.0),
    ],
}


def _theorem_envelope(theorem_id, phi, a, **kwargs):
    return envelope(THEOREMS[theorem_id].schemes, phi=phi, a=a, **kwargs)


def _paper_envelope(theorem_id, phi, a, **kwargs):
    """The least of the reference's parts at their thresholds; with several
    parts, 0 for a <= 0 and NaN if any part is NaN."""
    parts = PAPER_BOUNDS[theorem_id]
    if len(parts) > 1 and a <= 0.0:
        return 0.0
    memberships = [
        reference_envelope(which, phi=phi, a=threshold(a, phi.alpha), **kwargs)
        for which, threshold in parts
    ]
    if len(parts) == 1:
        return memberships[0]
    return math.nan if any(map(math.isnan, memberships)) else min(memberships)


_SPECIAL_LEVEL = st.sampled_from([0.0, -1.0, 1e-3, 1.0, 1e3, math.inf])
#: Levels whose thresholds are normal floats for every drawn alpha (|4 -
#: alpha| is at least 2^-51 when not 0), so halving a commutes with rounding.
_NORMAL_LEVEL = st.one_of(
    _SPECIAL_LEVEL, st.floats(2.0**-900, 1e3), st.floats(-1.0, -(2.0**-900))
)


@st.composite
def _envelope_case(
    draw, theorems=tuple(THEOREMS), levels=st.one_of(_SPECIAL_LEVEL, st.floats(-1.0, 1e3))
):
    dim = draw(st.integers(1, 3))
    a = draw(levels)
    return dict(
        theorem_id=draw(st.sampled_from(theorems)),
        phi=_owning(draw, draw(_edge_controls()), dim),
        x=_edge_vector(draw, dim),
        a=a,
    )


def _outcome(fn, **kwargs):
    """The bits of ``fn``'s result, or the type of what it raised."""
    try:
        return _bits(fn(**kwargs))
    except (ArithmeticError, RuntimeWarning) as exc:
        return type(exc)


@pytest.mark.parametrize("errstate", [{}, {"all": "ignore"}], ids=["warn", "ignore"])
@settings(max_examples=400, deadline=None)
@given(_envelope_case())
@example(  # phi is finite, near 1e225, but its square in the N' norm overflows
    dict(theorem_id="quadratic_up", phi=PowerControl(1.0, 1.5, 1.0), x=np.array([1e150]), a=1.0)
)
def test_envelope_equals_reference_loop_at_the_paper_threshold(errstate, case):
    # under the test config a numpy overflow warning is an error, so both
    # must fail alike; with warnings off the values behind them must agree
    with np.errstate(**errstate):
        assert _outcome(_theorem_envelope, **case) == _outcome(_paper_envelope, **case)


@pytest.mark.parametrize("errstate", [{}, {"all": "ignore"}], ids=["warn", "ignore"])
@settings(max_examples=200, deadline=None)
@given(_envelope_case(theorems=("combined",), levels=_NORMAL_LEVEL))
def test_combined_split_equals_the_folded_npp_factors(errstate, case):
    # (a/2)(4 - alpha)/6 is a (4 - alpha)/12 while every product is a normal
    # float; below that, halving a first rounds differently in the last bits
    kind = dict(case, which=EnvelopeId.NPP)
    del kind["theorem_id"]
    with np.errstate(**errstate):
        assert _outcome(_theorem_envelope, **case) == _outcome(reference_envelope, **kind)


@st.composite
def _row_case(draw):
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    uw = np.array([[_edge_vector(draw, dim) for _ in range(k)] for _ in range(2)])
    return _owning(draw, draw(_edge_controls()), dim), uw


@settings(max_examples=300, deadline=None)
@given(_row_case())
def test_row_form_equals_eval_control_pair_by_pair(case):
    phi, uw = case
    with np.errstate(all="ignore"):
        rows = phi.rows(uw)
        pairs = list(zip(*uw))
        for one_pair in (eval_control, reference_control):
            assert _bits(rows) == _bits(np.array([one_pair(phi, u, w) for u, w in pairs]))
