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
one does NOT satisfy the corresponding identity.  Raising a length by one
multiplies the q-Dyson product by one more binomial, so the modified
product is the q-Dyson product times signed layer monomials, as the
paired-layer q-analog is, under another power of q: ``verify_q_kadell``
reads the flipped monomials of the same source and shares its sides and
its packed comparison with ``paired.verify_paired``
(``paired.check_layer_sum``).  ``reproduce_counterexample`` pins down the
smallest failing instance exactly, and confirms its constant term on an
independent path: the modified product's own factors
(``modified_q_product``) in their own box pass.
"""

from __future__ import annotations

import functools
import time
from dataclasses import replace
from fractions import Fraction

from .dyson import Affine, Instance, Layout, pair_factors, q_dyson_source
from .laurent import FactoredProduct, Pair, ct_of_factor_list
from .paired import check_layer_sum, compile_layout, paired_reads
from .qpoly import QPoly, multinomial, one_minus_q, packed_at_q1, unpack
from .reports import VerificationReport, report


def corrected_ct(layout: Layout, source: FactoredProduct) -> int:
    """CT of prod_k (1 - x_{j_k}/x_{i_k}) * classical Dyson product of a,
    taken at q = 1 from ``source``, the q-Dyson product of a, with
    ``layout`` the compiled layer of the binomials.  They multiply out to
    the sum over subsets S of I of (-1)^|S| x_{J(S)}/x_S, so the constant
    term is the sum of (-1)^|S| times the coefficient at the flipped
    monomial, summed packed and read at q = 1 by one residue.  The reads
    lie in ``layout.box``, guarded once."""
    packed = source.reads(*layout.box)
    v = sum(sign * packed.get(flipped, 0) for _, flipped, sign, _ in layout.subsets)
    return packed_at_q1(v, source.k)


def corrected_dyson_rhs(a: tuple[int, ...]) -> int:
    return (1 + sum(a)) * multinomial(a)


@functools.lru_cache(maxsize=1024)
def _ct_closed(a: tuple[int, ...], s_i: int) -> tuple[int, str]:
    """The right side ``corrected_dyson_rhs(a)`` of the scaled identity at
    a, with s_i the sum of a over I, and the text of the closed form of the
    corrected constant term, which divides it by 1 + total - s_i: once per
    (a, s_i), which is all they read."""
    rhs = corrected_dyson_rhs(a)
    return rhs, str(Fraction(rhs, 1 + sum(a) - s_i))


def verify_kadell(layout: Layout, source: FactoredProduct) -> VerificationReport:
    """Scaled corrected constant term of the product of the source's a
    against its product-free value, on the compiled layout, with the
    corrected constant term and its closed form in ``extra``.  The scaled
    identity is the one comparison: with c = 1 + total - s_I >= 1 the
    closed form is rhs / c, and the scaled side is c * CT, so CT equals
    the closed form exactly when c * CT equals rhs."""
    t0 = time.perf_counter()
    ct = corrected_ct(layout, source)
    a = source.a
    s_i = sum(a[i] for i in layout.I)
    lhs = (1 + sum(a) - s_i) * ct
    rhs, closed_text = _ct_closed(a, s_i)
    return report(
        "kadell", a, layout, t0, lhs == rhs, lhs, rhs,
        lambda: {"ct": str(ct), "ct_closed": closed_text} if layout.I else {"ct": str(ct)},
    )


def modified_q_product(inst: Instance) -> list[Pair]:
    """q-analog product with pair-adjusted factorial lengths, one ``Pair``
    (s, t, a, b) per s < t: the factor (x_s/x_t; q)_a (q x_t/x_s; q)_b with
    a = a_s, plus one if (t, s) is a pair of the layer, and b = a_t, plus
    one if (s, t) is.  No check reads it: its own box pass is the
    independent path of ``reproduce_counterexample``'s confirmation."""
    pair_set = set(inst.pairs)
    return pair_factors(inst.n, lambda i, j: inst.a[i] + ((j, i) in pair_set))


def naive_rows(layout: Layout) -> list[tuple[tuple[int, ...], tuple[int, ...], int, Affine]]:
    """The layout's rows with the naive weight w(S) of ``verify_q_kadell``
    in place of the chain exponent.  Its constant is
    #{i_k in S : j_k > i_k}, and, as I and J are disjoint, its coefficients
    are the positive part of the negated flipped monomial: a_j counts once
    per i_k in S paired with j."""
    above = {i for i, j in zip(layout.I, layout.J) if j > i}
    return [
        (S, flipped, sign, (len(above.intersection(S)), tuple([max(-e, 0) for e in flipped])))
        for S, flipped, sign, _ in layout.subsets
    ]


def verify_q_kadell(layout: Layout, source: FactoredProduct) -> VerificationReport:
    """The would-be q-analog of the corrected identity on the compiled
    layout, for the source's a:

        (1 - q^(1 + total - sum of a over I)) * CT(modified product)
            =? (1 - q^(1 + total)) * qmultinomial(a)

    This equality is FALSE in general; the report records whether it holds
    for the given instance, with the constant term in ``extra``.

    The modified product (``modified_q_product``) raises by one the length
    of the factor in x_j/x_i for each pair (i, j) = (i_k, j_k) of the
    layer, and no other.  If j < i that factor is (x_j/x_i; q)_{a_j}, and
    (x_j/x_i; q)_{a_j + 1} = (x_j/x_i; q)_{a_j} (1 - q^(a_j) x_j/x_i).  If
    j > i it is (q x_j/x_i; q)_{a_j}, and (q x_j/x_i; q)_{a_j + 1} =
    (q x_j/x_i; q)_{a_j} (1 - q^(a_j + 1) x_j/x_i).  The i's are distinct
    and no (j, i) is a pair too, as I and J are disjoint, so each pair
    raises a factor of its own, and the modified product is D(a) times
    prod_k (1 - q^(a_{j_k} + [j_k > i_k]) x_{j_k}/x_{i_k}).  Multiplied
    out, that is the sum over subsets S of I of (-1)^|S| q^(w(S))
    x_{J(S)}/x_S, with w(S) the sum over i_k in S of a_{j_k} + [j_k > i_k]
    (``naive_rows``, affine in a).  The constant term of D(a) times
    x_{J(S)}/x_S is D(a)'s coefficient at the flipped monomial of S, so

        CT(modified product) = sum over S of (-1)^|S| q^(w(S)) [x^(flipped S)] D(a),

    ``paired.check_layer_sum`` weighted by w, reading through
    ``paired.paired_reads`` as ``main`` does.  Unlike ``main``, it admits
    layouts with the crossing pattern."""
    return check_layer_sum(
        "qkadell", layout, source, naive_rows(layout),
        lambda ct, k, base: {"ct": unpack(ct, k, base).render()},
    )


# The smallest failing instance of the q-modification: n=2, I={0}, J={1},
# a=(1,1,1).  The modified product has constant term 1 + 2q + 3q^2 + 2q^3,
# so the two sides differ as polynomials.
_CE = Instance(2, (1, 1, 1), (0,), (1,))


def reproduce_counterexample() -> VerificationReport:
    """Evaluate the pinned failing instance and confirm both sides come out
    as the known polynomials (which are unequal), and its constant term as
    the modified product's own box pass gives it: the report of
    ``verify_q_kadell`` on the q-Dyson product of the instance, derived
    anew with the expected failure and its confirmation added to
    ``extra``."""
    layout = compile_layout(_CE.n, _CE.I, _CE.J)
    rep = verify_q_kadell(layout, q_dyson_source(_CE, *paired_reads(layout)))
    # the pinned constant term, and the two sides it gives
    ct = QPoly(0, (1, 2, 3, 2))
    lhs, rhs = one_minus_q(3) * ct, one_minus_q(4) * QPoly(0, (1, 1)) * QPoly(0, (1, 1, 1))
    confirmed = (
        ct_of_factor_list(modified_q_product(_CE), (0,) * (_CE.n + 1)) == ct
        and not rep.holds
        and rep.extra["ct"] == ct.render()
        and rep.lhs == lhs.render()
        and rep.rhs == rhs.render()
    )
    return replace(rep, extra=rep.extra | {"expected_failure": True, "confirmed": confirmed})
