"""First-layer coefficients of the q-Dyson product and their closed forms.

The layer of an ``Instance`` selects m >= 1 distinct indices
I = {i_1 < ... < i_m} and m indices J = {j_1 <= ... <= j_m} (repeats allowed)
disjoint from I.  The first-layer coefficient is the constant term of

    (x_{j_1} ... x_{j_m}) / (x_{i_1} ... x_{i_m}) * q-Dyson product,

equivalently the coefficient of (prod x_i) / (prod x_j) in the product
itself.  The closed form is a signed sum over nonempty subsets T of I whose
q-exponents are the layer exponents computed here.  Its q = 1 value, the
first-layer coefficient of the classical product, is read off the same
extracted q-coefficient.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .dyson import Instance, q_dyson_source
from .laurent import FactoredProduct
from .qpoly import QPoly, QRat, ZERO, multinomial, one_minus_q, q_multinomial
from .reports import VerificationReport, make_params


def count_upto(k: int, values: Iterable[int]) -> int:
    """Number of entries <= k, counted with multiplicity."""
    return sum(1 for v in values if v <= k)


def weight_vector(a: Sequence[int], T: Iterable[int]) -> tuple[int, ...]:
    """Copy of a with the entries indexed by T zeroed out."""
    tset = set(T)
    return tuple(0 if k in tset else ak for k, ak in enumerate(a))


def nonempty_subsets(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets in a fixed order: by size, lexicographic within."""
    for size in range(1, len(values) + 1):
        yield from itertools.combinations(values, size)


def layer_exponent(T: Sequence[int], inst: Instance) -> int:
    """q-exponent attached to subset T when the smallest selected index is 0:

        sum_k (count_upto(k, I) - count_upto(k, J)) * w_k

    with w the weight vector of a zeroed on T.
    """
    if not T:
        raise ValueError("subset must be nonempty")
    if inst.I[0] != 0:
        raise ValueError("only defined when the smallest selected index is 0")
    w = weight_vector(inst.a, T)
    return sum(
        (count_upto(k, inst.I) - count_upto(k, inst.J)) * w[k]
        for k in range(inst.n + 1)
    )


def layer_exponent_general(T: Sequence[int], inst: Instance) -> int:
    """q-exponent attached to subset T without restriction on min(I).

    With i1 = min(I), t = #{j in J : j < i1}, J- = {j < i1}, J+ = {j > i1}:

        t + sum_{k=i1..n} (count_upto(k, I) - count_upto(k, J+)) * w_k
          + sum_{k=0..i1-1} (t - count_upto(k, J-)) * a_k

    Coincides with ``layer_exponent`` whenever i1 = 0.
    """
    if not T:
        raise ValueError("subset must be nonempty")
    i1 = inst.I[0]
    j_below = [j for j in inst.J if j < i1]
    j_above = [j for j in inst.J if j > i1]
    t = len(j_below)
    w = weight_vector(inst.a, T)
    high = sum(
        (count_upto(k, inst.I) - count_upto(k, j_above)) * w[k]
        for k in range(i1, inst.n + 1)
    )
    low = sum((t - count_upto(k, j_below)) * inst.a[k] for k in range(i1))
    return t + high + low


def first_layer_target(inst: Instance) -> tuple[int, ...]:
    """Exponent vector whose coefficient in the q-Dyson product is the
    first-layer coefficient: +1 at each index of I, -1 per occurrence in J."""
    target = [0] * (inst.n + 1)
    for i in inst.I:
        target[i] += 1
    for j in inst.J:
        target[j] -= 1
    return tuple(target)


def first_layer_brute(inst: Instance, source: FactoredProduct | None = None) -> QPoly:
    """First-layer coefficient straight out of the product."""
    if source is None:
        source = q_dyson_source(inst)
    return source.coeff(first_layer_target(inst))


def first_layer_closed(inst: Instance) -> QRat:
    """Closed form of the first-layer coefficient:

        qmultinomial(a) * sum over nonempty T subset I of
            (-1)^|T| q^(layer exponent of T)
            * (1 - q^(sum of a over T)) / (1 - q^(1 + total - sum of a over T))

    Layers with m = 0 are rejected.
    """
    if inst.m == 0:
        raise ValueError("layer must select at least one index")
    acc = QRat(ZERO)
    for T in nonempty_subsets(inst.I):
        s_t = sum(inst.a[k] for k in T)
        num = one_minus_q(s_t).shifted(layer_exponent_general(T, inst))
        if len(T) % 2:
            num = -num
        acc = acc + QRat(num, one_minus_q(1 + inst.total - s_t))
    return q_multinomial(inst.a) * acc


def first_layer_closed_q1(inst: Instance) -> Fraction:
    """The q = 1 specialisation of the closed form:

        multinomial(a) * sum over nonempty T subset I of
            (-1)^|T| * (sum of a over T) / (1 + total - sum of a over T)

    Independent of J.
    """
    if inst.m == 0:
        raise ValueError("layer must select at least one index")
    acc = Fraction(0)
    for T in nonempty_subsets(inst.I):
        s_t = sum(inst.a[k] for k in T)
        term = Fraction(s_t, 1 + inst.total - s_t)
        acc += -term if len(T) % 2 else term
    return multinomial(inst.a) * acc


def verify_first_layer(
    inst: Instance, source: FactoredProduct | None = None
) -> VerificationReport:
    """Brute-force first-layer coefficient against the closed form, plus its
    q = 1 value against the classical closed sum."""
    t0 = time.perf_counter()
    closed = first_layer_closed(inst)  # first: it rejects m = 0 before any extraction
    brute = first_layer_brute(inst, source)
    holds = QRat(brute) == closed

    q1_brute = brute.at_q1()
    q1_closed = first_layer_closed_q1(inst)
    holds = holds and (q1_closed == q1_brute)

    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="firstlayer",
        params=make_params(
            inst, extra={"q1_brute": str(q1_brute), "q1_closed": str(q1_closed)}
        ),
        holds=holds,
        lhs=brute.render(),
        rhs=closed.render(),
        elapsed_ms=round(elapsed, 3),
    )
