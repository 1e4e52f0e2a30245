"""Exact certificates of the envelope pair tables and threshold divisors.

The direct method rests on one identity per component: its one-step
difference, f(2x) - 4 f(x) for the quadratic part and f(2x) - 2 f(x) for
the additive part, is a rational combination of defects D(u, w) at pairs
(u, w) that are multiples of x.  Each certificate below is expanded through
the equation's term table into the values f(r x), r rational, and the sum is
compared with the difference in ``fractions.Fraction`` arithmetic.  The
pairs of a certificate must be the envelope pairs of ``control.SCHEME_BOUNDS``
and its L1 weight must not exceed the scheme's threshold divisor.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

from fuzzystab.control import SCHEME_BOUNDS
from fuzzystab.extraction import Scheme
from fuzzystab.funceq import _EQUATION

F = Fraction

#: (coefficient, (u, w)) of each defect D(u x, w x) in a certificate.
QUADRATIC = (
    (F(-2), (F(1, 3), F(1, 3))),
    (F(1), (F(1, 3), F(1))),
    (F(1), (F(1, 3), F(4, 3))),
    (F(1), (F(1, 3), F(-2, 3))),
)
ADDITIVE = (
    (F(-1, 2), (F(1), F(1))),
    (F(-1, 2), (F(1, 2), F(1, 2))),
    (F(1, 2), (F(1, 2), F(2))),
    (F(1, 2), (F(1, 2), F(3, 2))),
)

#: Per component: its certificate, the parity of f it holds for (even:
#: f(-r x) = f(r x), odd: f(-r x) = -f(r x)), and the one-step difference
#: it equals, as coefficients of f(r x).
CERTIFICATES = {
    "quadratic": (QUADRATIC, True, {F(2): F(1), F(1): F(-4)}),
    "additive": (ADDITIVE, False, {F(2): F(1), F(1): F(-2)}),
}

#: The quadratic table's pair (x/3, 0) is in no certificate: D(u, 0) vanishes.
ZERO_DEFECT_PAIRS = {"quadratic": [(F(1, 3), F(0))], "additive": []}


def expand(certificate, even: bool | None) -> dict[Fraction, Fraction]:
    """The certificate as coefficients of f(r x), its nonzero ones only.

    Each defect D(u x, w x) is the equation's sum of c f((p u + q w) x).
    With a parity, f(-r x) folds onto f(r x) and r = 0 is dropped (f(0) = 0
    for the parts the schemes run on); ``None`` keeps every r as it is.
    """
    out = defaultdict(Fraction)
    for weight, (u, w) in certificate:
        for c, p, q in _EQUATION:
            r = p * u + q * w
            if even is not None:
                if r == 0:
                    continue
                if r < 0:
                    r, c = -r, (c if even else -c)
            out[r] += weight * c
    return {r: v for r, v in out.items() if v}


def table_pairs(scheme: Scheme) -> list[tuple[Fraction, Fraction]]:
    """The pairs of the scheme's envelope table as multiples of x, exactly."""
    num, den, _ = SCHEME_BOUNDS[scheme].pairs
    (u_num, w_num), (u_den, w_den) = (n.reshape(2, -1).tolist() for n in (num, den))
    return [
        (F(a) / F(b), F(c) / F(d)) for a, b, c, d in zip(u_num, u_den, w_num, w_den)
    ]


def component(scheme: Scheme) -> str:
    return "quadratic" if scheme.is_quadratic else "additive"


@pytest.mark.parametrize("name", CERTIFICATES)
def test_certificate_equals_the_one_step_difference(name):
    certificate, even, difference = CERTIFICATES[name]
    assert expand(certificate, even) == difference


@pytest.mark.parametrize("scheme", list(Scheme))
def test_envelope_pairs_are_the_certificate_pairs(scheme):
    certificate, _, _ = CERTIFICATES[component(scheme)]
    zero = ZERO_DEFECT_PAIRS[component(scheme)]
    pairs = table_pairs(scheme)
    assert [pair for pair in pairs if pair not in zero] == [pair for _, pair in certificate]
    assert [pair for pair in pairs if pair in zero] == zero


@pytest.mark.parametrize("pair", [p for pairs in ZERO_DEFECT_PAIRS.values() for p in pairs])
def test_a_pair_with_w_zero_has_zero_defect_for_every_f(pair):
    # no parity is assumed and f(0) is kept: D(u, 0) cancels term by term
    assert pair[1] == 0
    assert expand([(F(1), pair)], None) == {}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_l1_weight_is_at_most_the_threshold_divisor(scheme):
    certificate, _, _ = CERTIFICATES[component(scheme)]
    weight = sum(abs(c) for c, _ in certificate)
    assert weight == {"quadratic": 5, "additive": 2}[component(scheme)]
    assert weight <= SCHEME_BOUNDS[scheme].threshold_divisor


def test_the_additive_one_argument_entry_is_the_pair_half_x_half_x():
    # the reading (x/2, 0) of the one-argument entry breaks the identity,
    # which certifies the repair additive_envelope_pair
    _, even, difference = CERTIFICATES["additive"]
    read_as_zero = [
        (c, (u, F(0)) if (u, w) == (F(1, 2), F(1, 2)) else (u, w)) for c, (u, w) in ADDITIVE
    ]
    assert read_as_zero != list(ADDITIVE)
    assert expand(read_as_zero, even) != difference
