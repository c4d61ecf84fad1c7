"""First-layer coefficients of the q-Dyson product and their closed forms.

A layer selects m >= 1 distinct indices I = {i_1 < ... < i_m} and m indices
J = {j_1 <= ... <= j_m} (repeats allowed) disjoint from I.  The first-layer
coefficient is the constant term of

    (x_{j_1} ... x_{j_m}) / (x_{i_1} ... x_{i_m}) * q-Dyson product,

equivalently the coefficient of (prod x_i) / (prod x_j) in the product
itself, the flipped layer monomial of S = I, which a compiled ``Layout``
lists last among its subsets.  The brute-force side is that one
coefficient: ``verify_first_layer`` reads it, and nothing else, from the
source its caller built.  ``first_layer_reads`` is that read rule, the
one statement of what the check reads: its guard is called with it, and
its row of ``sweeps.IDENTITIES`` names it.  The closed form is a signed
sum over nonempty subsets T of I whose q-exponents are the layer
exponents.  Its q = 1 value, the first-layer coefficient of the classical
product, is read off the same extracted q-coefficient.

The layer exponent of T is affine in a, whatever the smallest selected
index: its constant is t, the number of j's below min I, and its
coefficients are one prefix sum over 0..n, started at t, of +1 at each
selected index and -1 at each paired j, zeroed on T.  A ``Layout`` holds
that prefix sum once, as its ``levels`` (t, L), so the closed form of each
check multiplies L by a once and reads every T's exponent off that
product by a sum over T (``_closed_packed``).

The q side of the closed form is folded in one place, ``_closed_packed``,
as integers at q = 2^k.  ``verify_first_layer`` compares the brute
coefficient with it without dividing and without ``QPoly`` arithmetic:
both cross-multiplied sides are integers at q = 2^k, as the source keeps
the coefficients, with the spare bits of k that ``first_layer_reads``
derives.  ``first_layer_closed`` runs the same fold at a k of its own and
unpacks it into a ``QRat``, to render the closed form when a check fails,
as ``qpoly.q_multinomial_poly`` unpacks the packed q-multinomial.  The
q = 1 closed value keeps its own fold: there every (1 - q^(s_T)) /
(1 - q^d) is 0 / 0, so it is a limit, s_T / d, not the value of the q
side at any 2^k, and folding it apart from the q side checks the
classical formula on a path of its own.  It depends on I and a only and
is computed once per pair, its terms grouped by denominator as on the q
side and folded as integers into one ``Fraction``.  The closed forms read
an exponent vector a and the compiled ``Layout`` of the layer; like every
check, ``verify_first_layer`` reads the layout and takes a from its
source.
"""

from __future__ import annotations

import functools
import itertools
import time
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .dyson import Layout
from .laurent import FactoredProduct
from .qpoly import QRat, multinomial, packed_equal, q_multinomial_at, q_multinomial_poly, unpack
from .reports import VerificationReport, report


def nonempty_subsets(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets in a fixed order: by size, lexicographic within."""
    for size in range(1, len(values) + 1):
        yield from itertools.combinations(values, size)


def first_layer_closed(a: tuple[int, ...], layout: Layout) -> QRat:
    """Closed form of the first-layer coefficient at a, from the compiled
    layout:

        qmultinomial(a) * sum over nonempty T subset I of
            (-1)^|T| q^(layer exponent of T)
            * (1 - q^(sum of a over T)) / (1 - q^(1 + total - sum of a over T))

    The terms are grouped by their denominator d = 1 + total - (sum of a
    over T), so the sum is one numerator over the product of the distinct
    (1 - q^d), each taken once; the q-multinomial multiplies the numerator.
    Layers with m = 0 are rejected.

    It is the fold of the check, ``_closed_packed``, run at k = m + 2^m and
    unpacked, which reads num and den back exactly.  With D <= 2^m - 1
    the number of distinct denominators, den is a product of D factors
    (1 - q^d), of L1 norm at most 2^D; each of the 2^m - 1 terms of num is
    +-q^L (1 - q^(s_T)) times D - 1 of those factors, of L1 norm at most
    2^D, so num has L1 norm at most (2^m - 1) 2^D.  Both are below
    2^(m + 2^m - 1) = 2^(k - 1), and so is every coefficient of num and
    den: ``qpoly.unpack`` reads each one back.
    """
    if not layout.I:
        raise ValueError("layer must select at least one index")
    k = len(layout.I) + 2 ** len(layout.I)
    num, den, base = _closed_packed(a, layout, k)
    return QRat(q_multinomial_poly(a) * unpack(num, k, base), unpack(den, k, 0))


def _closed_packed(a: tuple[int, ...], layout: Layout, k: int) -> tuple[int, int, int]:
    """(num, den, base) of the closed form at a, packed at q = 2^k: num
    and den as in ``first_layer_closed`` with the q-multinomial left out,
    num divided by q^base, the lowest layer exponent, so both are
    polynomials.  Each (1 - q^d) is a shift and a subtraction; the values
    are exact at every k >= 1, and unpack exactly under the bound of
    ``first_layer_closed``.

    The layer exponent of T is t + sum over k of L_k a_k less the sum over
    i in T of L_i a_i, with (t, L) the layout's levels: its coefficients
    are c0 = t, and c_k = L_k off T and 0 on T (``paired.layer_levels``).
    """
    total = sum(a)
    t, L = layout.levels
    weighted = list(map(mul, L, a))
    top = t + sum(weighted)
    rows = layout.subsets[1:]
    exponents = [top - sum(map(weighted.__getitem__, T)) for T, _, _, _ in rows]
    base = min(exponents)
    groups: dict[int, int] = {}
    for (T, _, sign, _), e in zip(rows, exponents):
        s_t = sum(map(a.__getitem__, T))
        term = 1 << (k * (e - base))
        term -= term << (k * s_t)
        d = 1 + total - s_t
        groups[d] = groups.get(d, 0) + (term if sign > 0 else -term)
    num, den = 0, 1
    for d, part in groups.items():
        num, den = num - (num << (k * d)) + part * den, den - (den << (k * d))
    return num, den, base


def first_layer_closed_q1(a: tuple[int, ...], layout: Layout) -> Fraction:
    """The q = 1 specialisation of the closed form at a:

        multinomial(a) * sum over nonempty T subset I of
            (-1)^|T| * (sum of a over T) / (1 + total - sum of a over T)

    Independent of J, so it is computed once per (I, a).  As on the q side
    (``first_layer_closed``), the terms are grouped by their denominator
    d = 1 + total - (sum of a over T) and folded as integers into one
    numerator over the product of the distinct d, so it builds a single
    ``Fraction``.  It is not the packed q side read at q = 1: that side's
    num and den both vanish at q = 1, and this value is their limit.  Its
    own fold is the check's independent path to the classical formula.
    """
    if not layout.I:
        raise ValueError("layer must select at least one index")
    return _closed_q1(layout.I, a)


@functools.lru_cache(maxsize=1024)
def _closed_q1(I: tuple[int, ...], a: tuple[int, ...]) -> Fraction:  # noqa: E741
    total = sum(a)
    groups: dict[int, int] = {}
    for T in nonempty_subsets(I):
        s_t = sum(a[k] for k in T)
        d = 1 + total - s_t
        groups[d] = groups.get(d, 0) + (-s_t if len(T) % 2 else s_t)
    num, den = 0, 1
    for d, part in groups.items():
        num, den = num * d + part * den, den * d
    return Fraction(multinomial(a) * num, den)


def first_layer_reads(layout: Layout) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """What ``verify_first_layer`` reads, as the arguments (lo, hi,
    headroom) of its guard ``FactoredProduct.reads`` and of
    ``dyson.q_dyson_source``: the target alone, the flipped monomial of
    S = I, with m + D - 1 spare bits of k, D = 2^m - 1 the most distinct
    denominators the 2^m - 1 subsets T can give.  An empty layer has no
    first layer and raises ``ValueError``.

    The spare bits make the packed comparison (``qpoly.packed_equal``)
    exact.  With B the bound of ``laurent.packed_in_box``,
    2^(k - 1 - headroom) > B.  The sides are brute * den and
    qmult(a) * num, where den is the product of the D distinct (1 - q^d)
    and num sums, over the subsets T, +-q^L(T) (1 - q^(s_T)) times the
    D - 1 factors of den other than T's.  By L1 norms: brute, one
    coefficient of the product, is at most B, so brute * den is at most
    2^D B; each subset's term of num is at most 2^D, and qmult(a) at most
    B (see ``paired.paired_reads``), so qmult(a) * num is at most
    (2^m - 1) 2^D B.  So |X_i| + |Y_i| <= 2^(m + D) B <
    2^(k + m + D - 1 - headroom), and headroom m + D - 1 puts it below
    2^k.
    """
    if not layout.I:
        raise ValueError("layer must select at least one index")
    m, target = len(layout.I), layout.subsets[-1][1]
    return target, target, m + 2**m - 2


def verify_first_layer(layout: Layout, source: FactoredProduct) -> VerificationReport:
    """Brute-force first-layer coefficient of the product of the source's a
    against the closed form, plus its q = 1 value against the classical
    closed sum, on the compiled layout.

    The closed form is compared without division, as brute * den against
    qmult(a) * num in the terms of ``first_layer_closed``, with both sides
    packed at q = 2^k as ``source`` holds the coefficients: den and num are
    ``_closed_packed`` at the source's k, and qmult(a) at 2^k is built once
    per (a, k) by ``qpoly.q_multinomial_at``.  A check that holds prints
    the brute's text on both sides, which is what the closed form renders
    to; only a failing one builds and renders ``first_layer_closed``, the
    same fold unpacked.  An empty layer is rejected before anything is
    read, by its read rule ``first_layer_reads``, and so, by the guard
    ``FactoredProduct.reads`` called with that rule, is a source that holds
    no q-Dyson product, has less headroom than the rule names or does not
    hold the target.  The one target is then read packed, and unpacked by
    ``coeff``."""
    reads = first_layer_reads(layout)  # raises on an empty layer: source untouched
    packed, target = source.reads(*reads), reads[0]
    t0 = time.perf_counter()
    a, k = source.a, source.k
    num, den, base = _closed_packed(a, layout, k)
    brute = source.coeff(target)
    brute_den = packed.get(target, 0) * den
    q1_brute = brute.at_q1()
    q1_closed = first_layer_closed_q1(a, layout)
    holds = (
        packed_equal(brute_den, q_multinomial_at(a, k) * num, -base, k)
        and q1_closed == q1_brute
    )
    return report(
        "firstlayer", a, layout, t0, holds, brute,
        brute if holds else first_layer_closed(a, layout),
        lambda: {"q1_brute": str(q1_brute), "q1_closed": str(q1_closed)},
    )
