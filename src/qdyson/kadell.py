"""Corrected Dyson products: Kadell's identity and the failed q-modification.

Multiplying the classical Dyson product by (1 - x_{j_1}/x_{i_1}) ... for a
layer (I, J), one binomial per positional pair, scales the constant term by
a clean rational factor:

    (1 + total - sum of a over I) * CT = (1 + total) * multinomial(a).

The correction binomials carry no q, so the corrected classical constant term
is read off the corrected q-Dyson one at q = 1.  Multiplied out they are the
signed layer monomials of a compiled ``Layout``, so the check adds the
source's packed integers at the layout's flipped monomials with signs and
takes the sum at q = 1 without unpacking it.  The sum v is p(2^k) for a
polynomial p in q, and 2^k = 1 modulo 2^k - 1, so v = p(1) modulo 2^k - 1.
Its terms are coefficients of one product at distinct monomials, so p's
q-coefficients have L1 norm at most B, the bound of
``laurent.packed_in_box`` that every source's k already clears, and
|p(1)| <= B < 2^(k-1).  So p(1) is the residue of v modulo 2^k - 1 of
absolute value below 2^(k-1): one big-integer ``%``
(``qpoly.packed_at_q1``), with no ``QPoly`` built and no headroom.  The
multinomial of the right side comes with the closed form, once per
(a, sum of a over I).

The q-analog obtained by bumping the affected q-shifted factorial lengths by
one does NOT satisfy the corresponding identity.  Its product is the
q-Dyson product's pairs with some lengths raised by one
(``modified_q_product``), so the box pass reads its constant term like any
other; ``reproduce_counterexample`` pins down the smallest failing instance
exactly.
"""

from __future__ import annotations

import functools
import time
from dataclasses import replace
from fractions import Fraction

from .dyson import Instance, Layout, pair_factors
from .laurent import FactoredProduct, Pair, ct_of_factor_list
from .qpoly import QPoly, multinomial, one_minus_q, packed_at_q1, q_multinomial_poly
from .reports import VerificationReport, report


def corrected_ct(a: tuple[int, ...], layout: Layout, source: FactoredProduct) -> int:
    """CT of prod_k (1 - x_{j_k}/x_{i_k}) * classical Dyson product of a,
    taken at q = 1 from ``source``, the q-Dyson product of a, with
    ``layout`` the compiled layer of the binomials.  They multiply out to
    the sum over subsets S of I of (-1)^|S| x_{J(S)}/x_S, so the constant
    term is the sum of (-1)^|S| times the coefficient at the flipped
    monomial, summed packed and read at q = 1 by one residue.  The reads
    lie in ``layout.box``, checked once."""
    packed = source.reads(a, *layout.box)
    v = sum(sign * packed.get(flipped, 0) for flipped, sign, _ in layout.subsets)
    return packed_at_q1(v, source.k)


def corrected_dyson_rhs(a: tuple[int, ...]) -> int:
    return (1 + sum(a)) * multinomial(a)


def corrected_ct_closed(a: tuple[int, ...], layout: Layout) -> Fraction:
    """Closed form of the corrected constant term itself, at a on the
    compiled layout:

        (1 + (sum of a over I) / (1 + total - sum of a over I)) * multinomial(a)

    Only defined for nonempty I.
    """
    if not layout.I:
        raise ValueError("layer must select at least one index")
    return _ct_closed(a, sum(a[i] for i in layout.I))[0]


@functools.lru_cache(maxsize=1024)
def _ct_closed(a: tuple[int, ...], s_i: int) -> tuple[Fraction, str, int]:
    """The closed form at a, with s_i the sum of a over I, its text and the
    right side ``corrected_dyson_rhs(a)`` of the scaled identity, which it
    divides by 1 + total - s_i: once per (a, s_i), which is all they
    read."""
    rhs = corrected_dyson_rhs(a)
    closed = Fraction(rhs, 1 + sum(a) - s_i)
    return closed, str(closed), rhs


def verify_kadell(
    a: tuple[int, ...], layout: Layout, source: FactoredProduct
) -> VerificationReport:
    """Scaled corrected constant term of the product of a against its
    product-free value, and the corrected constant term itself against its
    closed form, on the compiled layout."""
    t0 = time.perf_counter()
    ct = corrected_ct(a, layout, source)
    s_i = sum(a[i] for i in layout.I)
    lhs = (1 + sum(a) - s_i) * ct
    closed, closed_text, rhs = _ct_closed(a, s_i)
    holds = lhs == rhs and (not layout.I or closed == ct)
    return report(
        "kadell", a, layout, t0, holds, lhs, rhs,
        lambda: {"ct": str(ct), "ct_closed": closed_text} if layout.I else {"ct": str(ct)},
    )


def modified_q_product(inst: Instance) -> list[Pair]:
    """q-analog product with pair-adjusted factorial lengths, one ``Pair``
    (s, t, a, b) per s < t: the factor (x_s/x_t; q)_a (q x_t/x_s; q)_b with
    a = a_s, plus one if (t, s) is a pair of the layer, and b = a_t, plus
    one if (s, t) is."""
    pair_set = set(inst.pairs)
    return pair_factors(inst.n, lambda i, j: inst.a[i] + ((j, i) in pair_set))


def verify_q_kadell(inst: Instance) -> VerificationReport:
    """The would-be q-analog of the corrected identity:

        (1 - q^(1 + total - sum of a over I)) * CT(modified product)
            =? (1 - q^(1 + total)) * qmultinomial(a)

    This equality is FALSE in general; the report records whether it holds
    for the given instance.
    """
    t0 = time.perf_counter()
    ct = ct_of_factor_list(modified_q_product(inst), (0,) * (inst.n + 1))
    lhs = one_minus_q(1 + inst.total - sum(inst.a[i] for i in inst.I)) * ct
    rhs = one_minus_q(1 + inst.total) * q_multinomial_poly(inst.a)
    return report("qkadell", inst.a, inst, t0, lhs == rhs, lhs, rhs, lambda: {"ct": ct.render()})


# Known values for the smallest failing instance of the q-modification:
# n=2, I={0}, J={1}, a=(1,1,1).  The modified product has constant term
# 1 + 2q + 3q^2 + 2q^3, so the two sides differ as polynomials.
_CE = Instance(2, (1, 1, 1), (0,), (1,))


def _expected_counterexample() -> tuple[QPoly, QPoly, QPoly]:
    ct = QPoly(0, (1, 2, 3, 2))
    lhs = one_minus_q(3) * ct
    rhs = one_minus_q(4) * QPoly(0, (1, 1)) * QPoly(0, (1, 1, 1))
    return ct, lhs, rhs


def reproduce_counterexample() -> VerificationReport:
    """Evaluate the pinned failing instance and confirm both sides come out
    as the known polynomials (which are unequal): the report of
    ``verify_q_kadell``, derived anew with the expected failure and its
    confirmation added to ``extra``."""
    rep = verify_q_kadell(_CE)
    ct_expected, lhs_expected, rhs_expected = _expected_counterexample()
    confirmed = (
        not rep.holds
        and rep.extra["ct"] == ct_expected.render()
        and rep.lhs == lhs_expected.render()
        and rep.rhs == rhs_expected.render()
    )
    return replace(rep, extra=rep.extra | {"expected_failure": True, "confirmed": confirmed})
