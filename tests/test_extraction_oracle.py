"""Extraction against closed-form limits: an oracle independent of extraction.

For f(x) = xᵀQx + L·x + c plus one even perturbation ``cos`` and one odd
perturbation (``sin`` or ``rational``), each of amplitude ``amp`` (one value
per output coordinate) and argument q = frequency · x, the four schemes have
limits known in closed form.  The schemes run through ``extract_components``,
as in the pipeline: the quadratic schemes on the even part of f − f(0) and
the additive schemes on the odd part.  Limits and remainders:

    quadratic_up     xᵀQx                 remainder amp(cos(2ⁿq) − 1)/4ⁿ
    additive_up      L·x                  remainder amp·p(2ⁿq)/2ⁿ
    quadratic_down   xᵀQx − amp·q²/2      remainder 4ⁿ·amp(cos t − 1 + t²/2)
    additive_down    L·x + amp·q          remainder 2ⁿ·amp·p(t) − amp·q

with t = q/2ⁿ and p = sin or p(s) = s/(1 + s²).  The expected values below
use only these formulas, never extraction code.

Tolerances, at the reported step n = ``n_used``:

* A priori, for every scheme: the remainder is at most ``C·rⁿ``, with decay
  rate r = 1/4 for the quadratic schemes and additive_down and r = 1/2 for
  additive_up.  C is 2·amp for cos under quadratic_up (|cos − 1| ≤ 2),
  amp (sin) or amp/2 (rational) under additive_up, and from the Taylor
  remainders amp·q⁴/24 (cos), amp·|q|³/6 (sin) and amp·|q|³ (rational) for
  the down-schemes.
* From ``TOL``, for the down-schemes: with |q| ≤ 1/2 the remainder
  R_n = C(t)/4ⁿ has C(t) within a few percent of its t → 0 value, so the
  last difference R_{n−1} − R_n is at least 2.2·|R_n| (3·|R_n| at rate 1/4
  exactly, that is |R_n| = diff·r/(1 − r)).  The stop rule accepts
  diff ≤ TOL·(1 + ‖v_n‖), so |R_n| ≤ TOL·(1 + ‖v_n‖)/2, plus the rounding
  below counted twice for the two iterates in the difference.  The
  up-schemes get no such bound: their remainders oscillate, and the stop
  rule can accept two nearly equal iterates far from the limit (for x² +
  0.1(cos x − 1) at x = 0.01, quadratic_up stops at n = 1 about 5e-6 from
  the limit), so only the a-priori bound holds there.
* Rounding: the polynomial part is a fixed point of every scheme bit for
  bit, and each evaluation rounds at the scale S of the summed terms, so
  ρ = 16·ε·S with ε = 2⁻⁵².  The ``cos`` profile, −2 sin²(t/2), rounds
  within a few ε of its own value, so its iterate under quadratic_down
  rounds within a few ε of amp·q²/2, inside ρ.  The expected value has its
  own rounding of the same size.

``target`` steers the search towards the largest ratio of error to bound,
so a run reports how close each bound came to failing.

Each down-scheme iterate of a lone perturbation must also follow its
Taylor form at every step up to ``N_MAX``, where the stop rule never looks:
amp·q for ``sin`` and ``rational`` under additive_down, −amp·q²/2 for
``cos`` under quadratic_down, within the Taylor remainder plus the rounding
of f at x/2ⁿ, scaled by rateⁿ.  A profile that cancels at small arguments,
as cos q − 1 does, fails it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from fuzzystab.extraction import N_MAX, TOL, Scheme, extract_components, iterate
from fuzzystab.funceq import CoordinatePoly, Perturbation, TestFunction, remove_offset

EPS = 2.0**-52

coefficients = st.floats(-2.0, 2.0)
# |x_i| <= 1 and |frequency_i| <= 1/6 keep |q| <= 1/2 in up to three dimensions
entries = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))
frequencies = st.floats(-1.0 / 6.0, 1.0 / 6.0)
amplitudes = st.floats(0.0, 1.0)


@st.composite
def cases(draw):
    dim_x = draw(st.integers(1, 3))
    dim_y = draw(st.integers(1, 2))

    def vector(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    quads = [vector(coefficients, dim_x * dim_x).reshape(dim_x, dim_x) for _ in range(dim_y)]
    linears = [vector(coefficients, dim_x) for _ in range(dim_y)]
    consts = vector(coefficients, dim_y)

    def perturbation(shape):
        # a scalar or one amplitude per output coordinate; a scalar frequency
        # or one per input coordinate
        amp = tuple(vector(amplitudes, dim_y)) if draw(st.booleans()) else draw(amplitudes)
        freq = tuple(vector(frequencies, dim_x)) if draw(st.booleans()) else draw(frequencies)
        return Perturbation(shape=shape, amplitude=amp, frequency=freq)

    even = perturbation("cos")
    odd = perturbation(draw(st.sampled_from(["sin", "rational"])))
    f = TestFunction(
        coords=tuple(
            CoordinatePoly(quad=q, linear=w, const=c) for q, w, c in zip(quads, linears, consts)
        ),
        perturbations=(even, odd),
        dim_x=dim_x,
    )
    x = vector(entries, dim_x)
    return f, quads, linears, even, odd, x


def amplitude(p: Perturbation, dim_y: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(p.amplitude, dtype=float), (dim_y,))


def argument(p: Perturbation, x: np.ndarray) -> float:
    if isinstance(p.frequency, tuple):
        return sum(w * v for w, v in zip(p.frequency, x))
    return p.frequency * sum(x)


def check(result, expected, bound, label):
    """The reported limit lies within ``bound`` of ``expected`` in each coordinate."""
    err = np.abs(result.limit_value - expected)
    assert np.all(err <= bound), (label, result, expected, err, bound)
    ratio = np.divide(err, bound, out=np.zeros_like(err), where=bound > 0)
    target(float(np.max(ratio)), label=label)


@settings(max_examples=200, deadline=None)
@given(case=cases(), down=st.booleans())
def test_schemes_reach_their_closed_form_limits(case, down):
    f, quads, linears, even, odd, x = case
    dim_y = len(quads)
    schemes = (
        (Scheme.QUADRATIC_DOWN, Scheme.ADDITIVE_DOWN)
        if down
        else (Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP)
    )
    shifted, _ = remove_offset(f)
    _, ((q_result,), (a_result,)) = extract_components(shifted, schemes, [x])

    quad = np.array([x @ q @ x for q in quads])
    lin = np.array([w @ x for w in linears])
    a_even, q_even = amplitude(even, dim_y), argument(even, x)
    a_odd, q_odd = amplitude(odd, dim_y), argument(odd, x)
    # the scale of the summed terms, for the rounding allowance
    scale = (
        max(np.abs(q) @ np.abs(x) @ np.abs(x) for q in quads)
        + max(np.abs(w) @ np.abs(x) for w in linears)
        + 2.0 * (np.max(a_even) + np.max(a_odd))
    )

    for result, result_scheme in ((q_result, schemes[0]), (a_result, schemes[1])):
        is_quadratic = result_scheme.is_quadratic
        assert result.converged, (result_scheme, result)
        n = result.n_used
        rounding = 16.0 * EPS * scale
        if not down:
            if is_quadratic:
                expected, remainder = quad, 2.0 * a_even / 4.0**n
            else:
                sup = 1.0 if odd.shape == "sin" else 0.5
                expected, remainder = lin, sup * a_odd / 2.0**n
            check(result, expected, remainder + rounding, f"{result_scheme} a priori")
            continue
        if is_quadratic:
            expected = quad - a_even * q_even**2 / 2.0
            remainder = a_even * q_even**4 / 24.0 / 4.0**n
        else:
            expected = lin + a_odd * q_odd
            c = abs(q_odd) ** 3 / 6.0 if odd.shape == "sin" else abs(q_odd) ** 3
            remainder = a_odd * c / 4.0**n
        check(result, expected, remainder + rounding, f"{result_scheme} a priori")
        stop_bound = TOL * (1.0 + math.sqrt(float(expected @ expected))) / 2.0
        check(result, expected, stop_bound + 3.0 * rounding, f"{result_scheme} from TOL")


#: Rounding of f at x/2ⁿ, in its ulps: each profile and the product by the
#: amplitude round within 3ε of f's value, at most 6 of its ulps, and the
#: scalings by powers of two are exact.
TAYLOR_ULPS = 8.0

def taylor(shape: str, amp: float, q: float, n: np.ndarray):
    """The shape's down-scheme, its Taylor limit amp·q or −amp·q²/2, and the
    Taylor remainder of the iterate at step n: the first omitted term."""
    if shape == "cos":
        return Scheme.QUADRATIC_DOWN, -amp * q * q / 2.0, amp * q**4 / 24.0 / 4.0**n
    c = abs(q) ** 3 / 6.0 if shape == "sin" else abs(q) ** 3
    return Scheme.ADDITIVE_DOWN, amp * q, amp * c / 4.0**n


@pytest.mark.parametrize("amp", [1.0, 0.01])
@pytest.mark.parametrize("x", [1.0, 1e-3, 1e3])
@pytest.mark.parametrize("shape", ["sin", "rational", "cos"])
def test_down_scheme_iterates_follow_the_taylor_form_at_every_step(shape, x, amp):
    ns = np.arange(N_MAX + 1)
    scheme, expected, remainder = taylor(shape, amp, x, ns)
    f = TestFunction.scalar(perturbations=(Perturbation(shape, amplitude=amp, frequency=1.0),))
    iterates = iterate(scheme, f, np.array([x]), ns)[:, 0]
    at_steps = f(np.ldexp(x, -ns)[:, None])[:, 0]  # the iterate is rateⁿ times f at x/2ⁿ
    rounding = scheme.rate**ns * TAYLOR_ULPS * np.spacing(np.abs(at_steps))
    bound = remainder + rounding + np.spacing(abs(expected))  # and expected's own rounding
    err = np.abs(iterates - expected)
    assert np.all(err <= bound), [(n, e, b) for n, e, b in zip(ns, err, bound) if not e <= b]
