"""Exact certificates of the envelope pair tables and threshold divisors.

The direct method rests on one identity per component: its one-step
difference, f(2x) - 4 f(x) for the quadratic part and f(2x) - 2 f(x) for
the additive part, is a rational combination of defects D(u, w) at pairs
(u, w) that are multiples of x.  Each scheme's certificate, the rows
(weight, u, w) of ``control.SCHEME_BOUNDS`` that its envelope pairs are
built from, is expanded through the equation's term table into the values
f(r x), r rational, and the sum is compared with the difference in
``fractions.Fraction`` arithmetic.  Its L1 weight must not exceed the
scheme's threshold divisor.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

from fuzzystab.control import SCHEME_BOUNDS
from fuzzystab.extraction import Scheme
from fuzzystab.funceq import _EQUATION

F = Fraction


def certificate(scheme: Scheme) -> list[tuple[Fraction, tuple[Fraction, Fraction]]]:
    """The scheme's certificate as (weight, (u, w)) rows, u and w multiples
    of x, exactly: its weights and entries are exact as floats."""
    rows = SCHEME_BOUNDS[scheme].certificate
    return [(F(c), (F(un) / F(ud), F(wn) / F(wd))) for c, (un, ud), (wn, wd) in rows]


def difference(scheme: Scheme) -> dict[Fraction, Fraction]:
    """The one-step difference f(2x) - rate f(x) as coefficients of f(r x)."""
    return {F(2): F(1), F(1): -F(scheme.rate)}


#: The pairs that carry no weight: D(u, 0) vanishes.
ZERO_DEFECT_PAIRS = list(dict.fromkeys(p for s in Scheme for c, p in certificate(s) if c == 0))


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


@pytest.mark.parametrize("scheme", list(Scheme))
def test_certificate_equals_the_one_step_difference(scheme):
    # the quadratic (additive) part is even (odd)
    assert expand(certificate(scheme), scheme.is_quadratic) == difference(scheme)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_only_the_pairs_with_w_zero_carry_no_weight(scheme):
    rows = certificate(scheme)
    assert [pair for c, pair in rows if c == 0] == [pair for _, pair in rows if pair[1] == 0]
    assert [pair for c, pair in rows if c == 0] == ([(F(1, 3), F(0))] if scheme.is_quadratic else [])


@pytest.mark.parametrize("pair", ZERO_DEFECT_PAIRS)
def test_a_pair_with_w_zero_has_zero_defect_for_every_f(pair):
    # no parity is assumed and f(0) is kept: D(u, 0) cancels term by term
    assert pair[1] == 0
    assert expand([(F(1), pair)], None) == {}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_l1_weight_is_at_most_the_threshold_divisor(scheme):
    weight = sum(abs(c) for c, _ in certificate(scheme))
    assert weight == (5 if scheme.is_quadratic else 2)
    assert weight <= SCHEME_BOUNDS[scheme].threshold_divisor


def test_the_additive_one_argument_entry_is_the_pair_half_x_half_x():
    # the reading (x/2, 0) of the one-argument entry breaks the identity,
    # which certifies the repair additive_envelope_pair
    half = (F(1, 2), F(1, 2))
    for scheme in (Scheme.ADDITIVE_UP, Scheme.ADDITIVE_DOWN):
        rows = certificate(scheme)
        read_as_zero = [(c, (pair[0], F(0)) if pair == half else pair) for c, pair in rows]
        assert read_as_zero != rows
        assert expand(read_as_zero, False) != difference(scheme)
