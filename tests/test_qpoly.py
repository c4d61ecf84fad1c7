"""Coefficient-ring kernel: canonical forms, exact division, q-multinomials."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from qdyson import qpoly
from qdyson.qpoly import (
    ONE,
    ZERO,
    InexactDivisionError,
    QPoly,
    QRat,
    divexact,
    multinomial,
    one_minus_q,
    packed_at_q1,
    q_binomial_row,
    q_multinomial,
    q_multinomial_at,
    q_multinomial_poly,
    q_pochhammer,
    q_power,
    unpack,
)
from tests.test_dyson import as_int


def pack(p, k):
    """p at q = 2^k, for p with no negative power of q, one coefficient at
    a time: the oracle of the integers the program builds at q = 2^k."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << k) + c
    return v << (k * p.min_exp)


@st.composite
def qpolys(draw, max_len=6, cmax=9):
    min_exp = draw(st.integers(-5, 5))
    coeffs = draw(st.lists(st.integers(-cmax, cmax), max_size=max_len))
    return QPoly(min_exp, coeffs)


# -- canonical form ----------------------------------------------------------


def test_trimming_and_zero():
    assert QPoly(3, (0, 0)) == ZERO
    assert QPoly(5, ()) == ZERO
    p = QPoly(-2, (0, 1, 2, 0, 0))
    assert p.min_exp == -1
    assert p.coeffs == (1, 2)
    assert not p.is_zero()
    assert ZERO.is_zero()


def test_unique_zero_representation():
    assert QPoly(0, (1,)) - QPoly(0, (1,)) == ZERO
    assert (QPoly(2, (3,)) + QPoly(2, (-3,))).min_exp == 0


# -- arithmetic --------------------------------------------------------------


def test_known_product():
    # (1-q)(1-q^2)(1-q^3) expanded by hand
    assert q_pochhammer(3) == QPoly(0, (1, -1, -1, 0, 1, 1, -1))
    assert q_pochhammer(0) == ONE


def test_mixed_int_operations():
    p = q_power(2)
    assert -p + 1 == QPoly(0, (1, 0, -1))
    assert p * 3 == QPoly(2, (3,))
    assert 2 + p - p == q_power(0, 2)


@given(qpolys(), qpolys(), qpolys())
def test_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p + r == r + p
    assert (p * r) * s == p * (r * s)
    assert p * r == r * p
    assert p * (r + s) == p * r + p * s


@given(qpolys())
def test_additive_inverse(p):
    assert p + (-p) == ZERO
    assert p - p == ZERO
    assert p * ONE == p
    assert p * ZERO == ZERO


@given(qpolys(), st.integers(-6, 6))
def test_shift_is_q_power_multiplication(p, e):
    assert p.shifted(e) == p * q_power(e)


def test_at_q1_and_as_int():
    assert q_pochhammer(2).at_q1() == 0
    assert as_int(q_power(0, 7)) == 7
    assert as_int(ZERO) == 0
    with pytest.raises(ValueError):
        as_int(q_power(1))


# -- rendering ---------------------------------------------------------------


def test_render_format():
    assert QPoly(0, (1, 2, 3, 2)).render() == "1 + 2*q + 3*q^2 + 2*q^3"
    assert q_pochhammer(3).render() == "1 - 1*q - 1*q^2 + 1*q^4 + 1*q^5 - 1*q^6"
    assert ZERO.render() == "0"
    assert QPoly(-2, (1, 0, -4)).render() == "1*q^-2 - 4"
    assert QPoly(1, (-3,)).render() == "-3*q"


# -- exact division ----------------------------------------------------------


def test_divexact_roundtrip():
    num = q_pochhammer(3)
    den = one_minus_q(1)
    quot = divexact(num, den)
    assert quot * den == num


def test_divexact_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        divexact(QPoly(0, (1, 1, 1)), QPoly(0, (1, 1)))
    with pytest.raises(ZeroDivisionError):
        divexact(ONE, ZERO)


def test_divexact_laurent_offsets():
    num = q_power(-3) * one_minus_q(2)
    den = q_power(-1)
    assert divexact(num, den) == q_power(-2) * one_minus_q(2)


# -- q-multinomials ----------------------------------------------------------


def test_q_multinomial_values():
    assert q_multinomial_poly((2, 1)) == QPoly(0, (1, 1, 1))
    assert q_multinomial_poly((1, 1, 1)) == QPoly(0, (1, 2, 2, 1))
    assert q_multinomial_poly(()) == ONE


def test_multinomial_values():
    assert multinomial((2, 1)) == 3
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((2, 1, 1)) == 12
    assert multinomial(()) == 1


def _compositions_upto(total_max, parts):
    if parts == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for tail in _compositions_upto(total_max - head, parts - 1):
            yield (head,) + tail


def test_q_multinomial_divisibility_and_q1():
    """The q-multinomial denominator always divides the numerator exactly,
    and the quotient specialises to the plain multinomial at q = 1."""
    checked = 0
    for parts in range(1, 5):
        for a in _compositions_upto(8, parts):
            r = q_multinomial(a)
            poly = divexact(r.num, r.den)  # raises if not exact
            assert poly.at_q1() == multinomial(a)
            checked += 1
    assert checked > 400


def test_q_multinomial_poly_is_the_exact_quotient():
    """The chain of Gaussian binomials equals the exact division of
    (q)_total by the product of the (q)_(a_k), for every a in
    {0..3}^(n+1) with n <= 3 and for (16, 16, 16)."""
    avecs = [a for n in range(4) for a in itertools.product(range(4), repeat=n + 1)]
    for a in avecs + [(16, 16, 16)]:
        r = q_multinomial(a)
        assert q_multinomial_poly(a) == divexact(r.num, r.den), a


def test_q_binomial_row_is_the_chain(monkeypatch):
    """Each entry of the row [m choose s]_q at q = 2^k, s = 0..depth,
    built by the ratio of neighbours, is the chain's [m choose s]_q at
    2^k, for every m <= 12, every depth <= m and k = m + 2, the k of a box
    pass over one pair of length m.  The row to depth d takes d integer
    steps, step s being (1 - q^(m-s)) / (1 - q^(s+1))."""
    steps = []
    times_ratio = qpoly._times_ratio

    def counting(v, e, i, k):
        steps.append((e, i))
        return times_ratio(v, e, i, k)

    monkeypatch.setattr(qpoly, "_times_ratio", counting)
    for m in range(13):
        k = m + 2
        for depth in range(m + 1):
            steps.clear()
            row = q_binomial_row(m, depth, k)
            assert steps == [(m - s, s + 1) for s in range(depth)]
            assert len(row) == depth + 1
            for s, entry in enumerate(row):
                assert entry == q_multinomial_at((s, m - s), k), (m, s)


def test_chain_is_exact_at_every_k():
    """The integer steps divide exactly at every k, not only where the
    base-2^k digits are apart: from k = 1, where they overlap, up to k = 40,
    above the k of every box pass of a ``main`` check on these a (n total
    + 3), ``q_multinomial_at(a, k)`` for every a in {0..3}^(n+1) with
    n <= 3, and every entry of ``q_binomial_row(m, m, k)`` for m <= 12, is
    the exact quotient of ``divexact`` evaluated at q = 2^k."""
    ks = range(1, 41)
    for a in (a for n in range(4) for a in itertools.product(range(4), repeat=n + 1)):
        r = q_multinomial(a)
        want = divexact(r.num, r.den)
        for k in ks:
            assert q_multinomial_at(a, k) == pack(want, k), (a, k)
    for m in range(13):
        want = [divexact(r.num, r.den) for r in (q_multinomial((s, m - s)) for s in range(m + 1))]
        for k in ks:
            assert list(q_binomial_row(m, m, k)) == [pack(p, k) for p in want], (m, k)


# -- formal quotients --------------------------------------------------------


def test_qrat_equality_without_gcd():
    lhs = QRat(ONE - q_power(2), ONE - q_power(1))
    rhs = QRat(QPoly(0, (1, 1)))
    assert lhs == rhs
    assert lhs.num != rhs.num  # no reduction happened
    assert QRat(QPoly(0, (1, 1))) == QPoly(0, (1, 1))


def test_qrat_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        QRat(ONE, ZERO)


def test_qrat_render():
    assert QRat(ONE - q_power(2), ONE - q_power(1)).render() == "1 + 1*q"
    assert QRat(ONE, one_minus_q(1)).render() == "(1) / (1 - 1*q)"


@given(qpolys(), qpolys(max_len=4), qpolys(max_len=4))
def test_qrat_cross_multiplication(p, d1, d2):
    if d1.is_zero() or d2.is_zero():
        return
    assert QRat(p * d1, d1) == QRat(p * d2, d2)


def test_packed_at_q1_is_the_unpacked_value():
    """The residue of p(2^k) modulo 2^k - 1 read as p(1) agrees with
    ``unpack`` at q = 1 whenever the L1 norm of p is below 2^(k-1): on
    seeded random polynomials, on 0, on negative values, and at
    |p(1)| = 2^(k-1) - 1, the largest the bound allows."""
    rng = random.Random(7)
    cases = []
    for _ in range(400):
        k = rng.randint(2, 40)
        length = rng.randint(1, 12)
        budget = (1 << (k - 1)) - 1  # the L1 norm stays at most this
        coeffs = []
        for _ in range(length):
            c = rng.randint(-budget, budget) if budget else 0
            coeffs.append(c)
            budget -= abs(c)
        cases.append((QPoly(rng.randint(0, 4), coeffs), k))
    for k in (2, 3, 10, 64):
        edge = (1 << (k - 1)) - 1
        cases += [(ZERO, k), (QPoly(0, (edge,)), k), (QPoly(0, (-edge,)), k)]
        cases += [(QPoly(3, (-1, 0, -(edge - 1))), k), (QPoly(1, (edge - 1, 1)), k)]
    assert any(p.at_q1() < 0 for p, _ in cases)
    for p, k in cases:
        v = pack(p, k)
        assert packed_at_q1(v, k) == unpack(v, k, 0).at_q1() == p.at_q1(), (p, k)
