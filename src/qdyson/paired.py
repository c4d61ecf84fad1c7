"""The paired-layer q-analog of the corrected Dyson identity.

Instead of bumping factorial lengths (which breaks, see ``kadell``), the
working q-analog multiplies the q-Dyson product by the sum, over all subsets
S of I, of the layer monomials x_{J(S)}/x_S weighted by q-powers

    1 + sum over nonempty subsets S of I of
        (-1)^|S| q^(chain exponent of S) * x_{J(S)}/x_S

and then the constant term satisfies

    (1 - q^(1 + total - sum of a over I)) * CT = (1 - q^(1 + total)) * qmult(a)

for every layer whose pairing avoids the crossing pattern
j_t < i_s < j_u < i_t (s < t < u).  The chain exponent of a subset S
corrects, for each index of I outside S, by how many selected and paired
indices the insertion of that index passes; each insertion reads only S and
its own pair.  Less the layer exponent of S within its own layer, each
insertion's count cancels against that exponent's level, so the
coefficients are one prefix sum over 0..n (``firstlayer.layer_levels``)
and one pass over the pairs, with no insertion counted.  The j-values an
insertion reads count with multiplicity: an index repeated in J counts once
per copy.  Collapsing the repeats fails the identity on 252 of the 3132
instances with n <= 3 and every a_k <= 2, so that reading is kept only in
the tests, as the oracle the gate refutes.  The reports still name the
multiset reading in a constant field, so their bytes are unchanged.
Every function here reads I and J as paired positionally, i_k with j_k:
the exponent formulas and the lemmas off one ``Instance``, the check off a
compiled ``Layout``.  The layer exponents it adds, of a subset U within the
layer of a subset X of I (X with its paired j's), are
``firstlayer.layer_exponent(U, inst, X)``, read off the same instance.

Both exponents are affine in a, with coefficients read off the layout
alone.  ``compile_layout`` writes them out once per layout, with the flipped
layer monomials and signs and the verdict of ``npc_holds`` (a
``dyson.Layout``): a sweep compiles each of its layouts once, a single
``verify`` its one layout, and each check of the layer identities reads
every exponent by a dot product with a, and the verdict as a field.

``verify_paired`` computes on the product's coefficients as the source keeps
them, packed into integers at q = 2^k, so both sides of the identity are
compared as two integers; ``paired_headroom`` derives the spare bits of k
that make the comparison exact.  It checks once that its reads lie in the
layout's box and then reads each coefficient as a plain dict lookup.  The
report's ``extra`` depends on the layout alone, so it is built, and its
JSON text encoded, once per (I, J) (``reports.Extra``).

The supporting combinatorial facts — the factorization of the subset sums, the
tail cancellation, and the inversion-pair property of choice products — are
implemented here as directly checkable statements.  They read the same
one-pass exponents, and the factorization sums its left side as integer
weights by exponent into one ``QPoly``.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Sequence

from .dyson import Affine, Instance, Layout, evaluate
from .firstlayer import layer_coefficients, layer_exponent, layer_levels, nonempty_subsets
from .laurent import FactoredProduct, LaurentPoly
from .qpoly import QPoly, one_minus_q, packed_equal, q_multinomial_at, q_power, unpack
from .reports import Extra, VerificationReport, report

class NpcViolationError(ValueError):
    """The layer's pairing contains the crossing pattern the identity
    excludes (some s < t < u with j_t < i_s < j_u < i_t)."""


def npc_holds(I: Sequence[int], J: Sequence[int]) -> bool:  # noqa: E741
    """True unless some positions s < t < u of the layout (I, J) satisfy
    j_t < i_s < j_u < i_t.  Reads only the layout, never a."""
    for s, t, u in itertools.combinations(range(len(I)), 3):
        if J[t] < I[s] < J[u] < I[t]:
            return False
    return True


def chain_coefficients(inst: Instance, subset: Sequence[int]) -> Affine:
    """The q-exponent attached to a nonempty subset S of the selection, as
    (c0, c) with the exponent c0 + sum of c_k * a_k.  Reads only n, I and
    J.  The full selection is rebuilt from S by inserting each i in I \\ S;
    the step inserting i (paired with j_i) reads the j-values among the
    paired j's of S and j_i that exceed lo = min S, with multiplicity:

        1 + total - (sum of a over S)
          + sum over inserted i of
                (count_upto(i, S) - count_upto(i, step j-values)) * a_i
          - (layer exponent of S within the layer of S itself)

    with count_upto(k, V) = #{v in V : v <= k}.  The step's chain set has
    minimum min(lo, i), but for i < lo the step adds 0 with either floor,
    so lo serves every step and no step reads another.

    The sum collapses to one pass over the layout.  With
    t = #{j in J_S : j < lo} and level_k = t + count_upto(k, S) -
    count_upto(k, J_S), the last term is t plus level_k * a_k summed over
    k not in S (``firstlayer.layer_coefficients``).  So c0 = 1 - t, c_k = 0
    on S, and c_k = 1 - level_k at every k that no step inserts, and at
    every inserted i < lo, whose step adds 0.  At an inserted i > lo, no j
    equals lo (I and J are disjoint), so the step counts
    count_upto(i, J_S) - t + [lo < j_i <= i] j-values and adds
    level_i - [lo < j_i <= i]; the level cancels against the last term's,
    and c_i = 1 - [lo < j_i <= i].
    """
    if not subset:
        raise ValueError("subset must be nonempty")
    levels, t = layer_levels(inst, subset)  # raises on an index outside I
    sset = set(subset)
    c = [1 - level for level in levels]
    lo = min(subset)
    for i, j in zip(inst.I, inst.J):
        if i in sset:
            c[i] = 0
        elif i > lo:
            c[i] = 1 - (lo < j <= i)
    return 1 - t, tuple(c)


def chain_exponent(inst: Instance, subset: Sequence[int]) -> int:
    """The q-exponent of ``chain_coefficients`` at inst.a."""
    return evaluate(chain_coefficients(inst, subset), inst.a)


def compile_layout(n: int, I: Sequence[int], J: Sequence[int]) -> Layout:  # noqa: E741
    """Everything the layer identities read off the layout (I, J) over
    x_0..x_n, for every exponent vector at once.  The chain coefficients
    are looked up here when called, so rebinding ``chain_coefficients``
    (as the tests do for the refuted reading) reaches every check."""
    inst = Instance(n, (0,) * (n + 1), I, J)
    subsets = [()] + list(nonempty_subsets(inst.I))
    signs = [(-1) ** len(S) for S in subsets]
    flipped = [tuple(-e for e in inst.layer_monomial(S)) for S in subsets]
    chains = [(0, (0,) * (n + 1))] + [chain_coefficients(inst, S) for S in subsets[1:]]
    target = flipped[-1]
    return Layout(
        n,
        inst.I,
        inst.J,
        subsets=tuple(zip(flipped, signs, chains)),
        terms=tuple(
            (sign, T, layer_coefficients(T, inst)) for sign, T in zip(signs[1:], subsets[1:])
        ),
        box=(tuple(min(e, 0) for e in target), tuple(max(e, 0) for e in target)),
        npc=npc_holds(inst.I, inst.J),
    )


def correction_polynomial(a: tuple[int, ...], layout: Layout) -> LaurentPoly:
    """The multiplier of the identity at a, from the compiled layout: the
    sum over subsets S of I of (-1)^|S| q^(chain exponent of S) x_{J(S)}/x_S,
    with weight 1 on the empty one."""
    return LaurentPoly(layout.n, {
        tuple(-e for e in flipped): q_power(evaluate(chain, a), sign)
        for flipped, sign, chain in layout.subsets
    })


def paired_headroom(layout: Layout) -> int:
    """Spare bits of k that ``verify_paired`` needs to compare its two sides
    packed (``qpoly.packed_equal``): 1, for every layout.

    With B the bound of ``laurent.packed_in_box``, 2^(k - 1 - headroom) > B.
    The constant term is a signed, shifted sum of the product's coefficients
    at distinct monomials, so its q-coefficients have L1 norm at most B,
    however many subsets there are; times (1 - q^A), at most 2B.  The right
    side (1 - q^(1 + total)) qmult(a) has L1 norm 2 multinomial(a), and
    multinomial(a) <= (n + 1)^total <= 2^(n total) = B, the product of the
    L1 norms 2^(a_i + a_j) of the q-Dyson product's pair factors.  So
    |X_i| + |Y_i| <= 4B < 2^(k + 1 - headroom): headroom 1 puts it below
    2^k, and keeps the left side's coefficients below 2^(k - 1), so a
    failing check unpacks it.
    """
    return 1


@functools.lru_cache(maxsize=1024)
def _paired_rhs(a: tuple[int, ...], k: int) -> tuple[int, str]:
    """(1 - q^(1 + total)) qmult(a) at q = 2^k, v - (v << k (1 + total))
    for v = qmult(a) at 2^k, and its text: once per exponent vector in a
    sweep, whose tasks each keep one k.  The text is read back at this k,
    which is exact at the k of any source that ``verify_paired`` accepts:
    by the bound of ``paired_headroom`` each coefficient of the right side
    is at most its L1 norm 2 multinomial(a) <= 2B < 2^(k - 1)."""
    v = q_multinomial_at(a, k)
    rhs = v - (v << k * (1 + sum(a)))
    return rhs, unpack(rhs, k, 0).render()


@functools.lru_cache(maxsize=256)  # a grid sweep has at most 125 layouts up to n = 4
def _pairing(I: tuple[int, ...], J: tuple[int, ...]) -> Extra:  # noqa: E741
    """The ``extra`` of every report of the layout (I, J), with its text."""
    return Extra({"semantics": "multiset", "pairing": [[i, j] for i, j in zip(I, J)]})


def verify_paired(
    a: tuple[int, ...], layout: Layout, source: FactoredProduct
) -> VerificationReport:
    """The paired-layer identity for the product of a on the compiled
    layout.  The constant term of the multiplied product is, term
    by term of the multiplier, its weight times the product's coefficient at
    the flipped monomial.  Both sides stay packed at q = 2^k, as ``source``
    holds its coefficients: the sum over subsets adds shifted integers, the
    factor (1 - q^A) is one shift and subtraction, and the right side is
    packed and rendered once per a.  A check that holds prints the right
    side's text on both sides; only a failing one unpacks its left side.
    Layers violating the no-crossing condition are rejected with
    ``NpcViolationError``, and a source with less headroom than
    ``paired_headroom``, or not the product of a, or whose box does not
    hold ``layout.box``, with ``ValueError``."""
    if not layout.npc:
        raise NpcViolationError(f"crossing pattern in pairing {tuple(zip(layout.I, layout.J))}")
    if source.headroom < paired_headroom(layout):
        raise ValueError("source packed with too little headroom for the paired check")
    t0 = time.perf_counter()
    k = source.k
    packed = source.reads(a, *layout.box)
    terms = [
        (sign, packed.get(flipped, 0), evaluate(chain, a))
        for flipped, sign, chain in layout.subsets
    ]
    base = min(e for _, _, e in terms)
    ct = 0
    for sign, c, e in terms:
        c <<= k * (e - base)
        ct = ct + c if sign > 0 else ct - c
    lhs = ct - (ct << (k * (1 + sum(a) - sum(a[i] for i in layout.I))))
    rhs, rhs_text = _paired_rhs(a, k)
    # the left side is q^base times the polynomial whose value at q = 2^k is lhs
    holds = packed_equal(lhs, rhs, base, k)
    return report(
        "main", a, layout, t0, holds, rhs_text if holds else unpack(lhs, k, base), rhs_text,
        lambda: _pairing(layout.I, layout.J),
    )


# -- supporting combinatorial statements ------------------------------------


def _t_positions(inst: Instance, U: Sequence[int]) -> list[int]:
    """1-based positions of I \\ U, ascending."""
    uset = set(U)
    return [p for p in range(1, inst.m + 1) if inst.I[p - 1] not in uset]


def removal_exponent(inst: Instance, U: Sequence[int], i_v: int, s: int) -> int:
    """Exponent gap g for the s-th unselected index, relative to floor i_v.

    With t_1 < ... < t_{m-d} the positions of I \\ U and v the position of
    i_v, writing j* for the j paired at position t_s:

        - sum_{k=v..s-1}   [i_{t_k} > j* > i_v] * a_{i_{t_k}}
        + sum_{k=s+1..m-d} [not (i_{t_k} > j* > i_v)] * a_{i_{t_k}}
    """
    a = inst.a
    uset = set(U)
    if i_v not in inst.I:
        raise ValueError("floor index must be selected")
    if uset and i_v > min(uset):
        raise ValueError("floor index must not exceed the subset minimum")
    tpos = _t_positions(inst, U)
    if not 1 <= s <= len(tpos):
        raise ValueError(f"index {s} out of range")
    target = inst.I[tpos[s - 1] - 1]
    if target in uset or target == i_v:
        raise ValueError("indexed element must lie outside the subset and floor")
    v = inst.position(i_v)
    j_star = inst.J[tpos[s - 1] - 1]
    acc = 0
    for k in range(v, s):
        ik = inst.I[tpos[k - 1] - 1]
        if ik > j_star > i_v:
            acc -= a[ik]
    for k in range(s + 1, len(tpos) + 1):
        ik = inst.I[tpos[k - 1] - 1]
        if not (ik > j_star > i_v):
            acc += a[ik]
    return acc


def factorization_sides(
    inst: Instance, U: Sequence[int], i_v: int
) -> tuple[QPoly, QPoly, tuple[int, ...]]:
    """Both sides of the subset-sum factorization for floor i_v:

    left:  sum over supersets S of U within I with min S = i_v of
           (-1)^(|S|+|U|) q^(chain exponent of S + layer exponent of U in S)
    right: (-1)^[min U != i_v] q^(chain exponent of U+{i_v} + layer exponent
           of U in U+{i_v}) * prod over unselected indices past i_v of
           (1 - q^(removal exponent))

    The left side's terms are summed as integer weights by exponent and
    built as one ``QPoly``.  Returns (left, right, residual indices).
    """
    U = tuple(sorted(U))
    if not U:
        raise ValueError("subset must be nonempty")
    if not set(U) <= set(inst.I):
        raise ValueError("subset must consist of selected indices")
    if i_v not in inst.I or i_v > min(U):
        raise ValueError("floor must be a selected index at most min(U)")
    d = len(U)
    v = inst.position(i_v)

    fixed = set(U) | {i_v}
    candidates = [x for x in inst.I if x > i_v and x not in fixed]
    weights: dict[int, int] = {}  # the left side's coefficient at each q-exponent
    for r in range(len(candidates) + 1):
        for extra in itertools.combinations(candidates, r):
            s_l = tuple(sorted(fixed.union(extra)))
            sign = -1 if (len(s_l) + d) % 2 else 1
            exponent = chain_exponent(inst, s_l) + layer_exponent(U, inst, s_l)
            weights[exponent] = weights.get(exponent, 0) + sign
    low = min(weights)
    left = QPoly(low, [weights.get(e, 0) for e in range(low, max(weights) + 1)])

    base = tuple(sorted(fixed))
    base_exp = chain_exponent(inst, base) + layer_exponent(U, inst, base)
    sign = -1 if min(U) != i_v else 1
    right = q_power(base_exp, sign)
    tpos = _t_positions(inst, U)
    residual = tuple(inst.I[p - 1] for p in tpos if p > v)
    for s, p in enumerate(tpos, start=1):
        if p > v:
            right = right * one_minus_q(removal_exponent(inst, U, i_v, s))
    return left, right, residual


def verify_factorization(inst: Instance, U: Sequence[int], i_v: int) -> VerificationReport:
    """Exact equality of the factorization sides; additionally, under the
    no-crossing condition a nonempty residual forces the right side to
    vanish, which is checked as well."""
    t0 = time.perf_counter()
    left, right, residual = factorization_sides(inst, U, i_v)
    holds = left == right
    npc = npc_holds(inst.I, inst.J)
    if npc and residual:
        holds = holds and right.is_zero()
    return report(
        "factorization", inst.a, inst, t0, holds, left, right,
        lambda: {
            "U": list(U),
            "floor": i_v,
            "semantics": "multiset",
            "npc": npc,
            "residual": list(residual),
        },
    )


def tail_cancel_values(inst: Instance, h: int) -> tuple[int, int, int]:
    """Combined exponents for the tail subset U = {i_h, ..., i_m}: with the
    bare tail, with i_{h-1} joined in, and the predicted common value
    1 + total - sum of a over U."""
    if not 2 <= h <= inst.m:
        raise ValueError(f"tail start {h} out of range 2..{inst.m}")
    U = inst.I[h - 1 :]
    with_prev = inst.I[h - 2 :]
    bare = chain_exponent(inst, U) + layer_exponent(U, inst, U)
    joined = chain_exponent(inst, with_prev) + layer_exponent(U, inst, with_prev)
    expected = 1 + inst.total - sum(inst.a[u] for u in U)
    return bare, joined, expected


def verify_tail_cancel(inst: Instance, h: int) -> VerificationReport:
    """For the tail subset U = {i_h, ..., i_m} (2 <= h <= m), the combined
    exponent is the same whether or not i_{h-1} joins, and both equal
    1 + total - sum of a over U."""
    t0 = time.perf_counter()
    bare, joined, expected = tail_cancel_values(inst, h)
    return report(
        "tailcancel", inst.a, inst, t0, bare == joined == expected, f"{bare},{joined}", expected,
        lambda: {"h": h, "semantics": "multiset"},
    )


def matrix_choice_property(n: int) -> bool:
    """For an n-by-n array of symbols a(s, k), every monomial of
    prod_{s=1..n} sum_{k != s} a(s, k) is divisible by a product
    a(k, r) * a(s, l) with 1 <= r <= s < k <= l <= n.  Checked by
    enumerating all (n-1)^n choice functions."""
    if n < 2:
        raise ValueError("needs at least a 2x2 array")
    rows = range(1, n + 1)
    options = [[k for k in rows if k != s] for s in rows]
    for choice in itertools.product(*options):
        # choice[s-1] is the column picked in row s
        found = False
        for s in rows:
            l = choice[s - 1]
            for k in range(s + 1, n + 1):
                r = choice[k - 1]
                if r <= s and k <= l:
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True
