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
coefficients are one prefix sum over 0..n (``layer_levels``) and one
pass over the pairs, with no insertion counted.  The j-values an
insertion reads count with multiplicity: an index repeated in J counts once
per copy.  Collapsing the repeats fails the identity on 252 of the 3132
instances with n <= 3 and every a_k <= 2, so that reading is kept only in
the tests, as the oracle the gate refutes.  The reports still name the
multiset reading in a constant field, so their bytes are unchanged.
Every function here reads I and J as paired positionally, i_k with j_k:
the exponent formulas and the lemmas off one ``Instance``, the check off a
compiled ``Layout``.  The lemmas only ever add the chain exponent of a
subset S to the layer exponent of a subset U of S within the layer of S
(S with its paired j's), so ``chain_exponent(inst, S, U)`` returns that
sum: one ``layer_levels`` prefix sum of S and one pass over the pairs, as
the chain's -level_k and the layer's +level_k cancel outside S.

Both exponents are affine in a, with coefficients read off the layout
alone.  ``compile_layout`` writes one row per subset, with its flipped
layer monomial, sign and chain coefficients, the levels of I, which give
every layer exponent, and the verdict of ``npc_holds`` (a
``dyson.Layout``): 2^m prefix sums per layout.  A sweep compiles each of
its candidate layouts once, a single ``verify`` its one layout, and each
check of the layer identities reads its exponents by dot products with a,
and the verdict as a field.  The sweep's no-crossing filter and
``verify``'s rejection read that field too, so the verdict is computed
once per layout.

The naive q-analog of ``kadell`` has the same two sides, with the
q-Dyson product multiplied by the same signed layer monomials under
another weight, so ``check_layer_sum`` checks both: ``verify_paired``
with the chain exponents of the layout's rows, ``kadell.verify_q_kadell``
with the naive weights, which it reads off the same rows and the pairs.
It computes on the product's coefficients as the source keeps them,
packed into integers at q = 2^k, so both sides of the identity are
compared as two integers.  Its read rule ``paired_reads`` is the one
statement of what it reads: the layout's box, with the spare bits of k
that make the comparison exact, whatever the weights.  The check's one
guard, ``FactoredProduct.reads``, is called with that rule before
anything is read, and ``sweeps.IDENTITIES`` names the same rule for
``main``, so each coefficient is then a plain dict lookup.  The
``extra`` of a ``main`` report depends on the layout alone, so it is
built, and its JSON text encoded, once per (I, J) (``reports.Extra``).

The supporting combinatorial facts — the factorization of the subset sums, the
tail cancellation, and the inversion-pair property of choice products — are
implemented here as directly checkable statements.  They read each
combined exponent off one prefix sum.  The factorization reads I by
value, not by the paper's ranks of I \\ U: its residual, the indices of
I outside U above the floor, is both the set whose subsets the left side
joins and the right side's factors; each factor's removal exponent is one
walk over I; and the left side's first superset gives the right side's
power of q.  It sums its left side as integer weights by exponent into
one ``QPoly``, and a check whose sides agree renders that one polynomial
for both.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Callable, Sequence

from .dyson import Affine, Instance, Layout, evaluate
from .firstlayer import nonempty_subsets
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


def layer_levels(inst: Instance, X: Sequence[int]) -> tuple[list[int], int]:
    """([t + count_upto(k, X) - count_upto(k, J_X) for k = 0..n], t), with
    count_upto(k, V) = #{v in V : v <= k}, counted with multiplicity, J_X
    the j's paired with X and t = #{j in J_X : j < min X}: a prefix sum of
    +1 at each x in X and -1 at each paired j, started at t, and all zero
    for an empty X.  Raises ``ValueError`` on an index of X outside I."""
    I, J = inst.I, inst.J  # noqa: E741
    lo = min(X) if X else 0
    delta = [0] * (inst.n + 1)
    t = 0
    for x in X:
        try:
            j = J[I.index(x)]
        except ValueError:
            raise ValueError("subset must consist of selected indices") from None
        delta[x] += 1
        delta[j] -= 1
        t += j < lo
    delta[0] += t
    return list(itertools.accumulate(delta)), t


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
    k not in S (see ``dyson.Layout``).  So c0 = 1 - t, c_k = 0 on S, and
    c_k = 1 - level_k at every k that no step inserts, and at every
    inserted i < lo, whose step adds 0.  At an inserted i > lo, no j
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


def chain_exponent(inst: Instance, subset: Sequence[int], U: Sequence[int]) -> int:
    """For a nonempty U within S = ``subset``, the combined exponent
    chain(S) + layer(U in S) at inst.a: the chain exponent of S (that of
    ``chain_coefficients``) plus the layer exponent of U within the layer
    of S, from one ``layer_levels`` prefix sum.  With L the levels of S,
    lo = min S and total the sum of a, that sum is

        1 + total - sum over k in U of a_k
          + sum over k in S \\ U of (L_k - 1) * a_k
          + sum over i in I \\ S with i > lo of (L_i - [lo < j_i <= i]) * a_i

    Proof, from ``chain_coefficients`` and the layer exponent of U within
    the layer (S, J_S), t + sum over k not in U of L_k a_k, which read the
    same levels L and the same t: the constants add to 1 - t + t = 1.  On
    U the chain and the layer both give 0, which is 1 - 1.  On S \\ U the
    chain gives 0 and the layer L_k.  At an inserted i > lo the chain
    gives 1 - [lo < j_i <= i] and the layer L_i.  At every other k,
    outside S, the chain's 1 - L_k and the layer's +L_k cancel to 1.
    Raises ``ValueError`` unless U is a nonempty subset of S.
    """
    uset, sset = set(U), set(subset)
    if not uset or not uset <= sset:
        raise ValueError("U must be a nonempty subset of S")
    levels, _ = layer_levels(inst, subset)  # raises on an index outside I
    a, lo = inst.a, min(subset)
    e = 1 + inst.total
    for i, j in zip(inst.I, inst.J):
        if i in uset:
            e -= a[i]
        elif i in sset:
            e += (levels[i] - 1) * a[i]
        elif i > lo:
            e += (levels[i] - (lo < j <= i)) * a[i]
    return e


def compile_layout(n: int, I: Sequence[int], J: Sequence[int]) -> Layout:  # noqa: E741
    """Everything the layer identities read off the layout (I, J) over
    x_0..x_n, for every exponent vector at once: one ``layer_levels``
    prefix sum for the levels of I and one per nonempty subset for its
    chain coefficients.  The chain coefficients are looked up here when
    called, so rebinding ``chain_coefficients`` (as the tests do for the
    refuted reading) reaches every check."""
    inst = Instance(n, (0,) * (n + 1), I, J)
    levels, t = layer_levels(inst, inst.I)
    rows = [((), (0,) * (n + 1), 1, (0, (0,) * (n + 1)))] + [
        (S, tuple(-e for e in inst.layer_monomial(S)), (-1) ** len(S), chain_coefficients(inst, S))
        for S in nonempty_subsets(inst.I)
    ]
    target = rows[-1][1]
    return Layout(
        n, inst.I, inst.J,
        subsets=tuple(rows),
        levels=(t, tuple(levels)),
        box=(tuple(min(e, 0) for e in target), tuple(max(e, 0) for e in target)),
        npc=npc_holds(inst.I, inst.J),
    )


def correction_polynomial(a: tuple[int, ...], layout: Layout) -> LaurentPoly:
    """The multiplier of the identity at a, from the compiled layout: the
    sum over subsets S of I of (-1)^|S| q^(chain exponent of S) x_{J(S)}/x_S,
    with weight 1 on the empty one."""
    return LaurentPoly(layout.n, {
        tuple(-e for e in flipped): q_power(evaluate(chain, a), sign)
        for _, flipped, sign, chain in layout.subsets
    })


def paired_reads(layout: Layout) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """What ``check_layer_sum`` reads, for ``verify_paired`` and for
    ``kadell.verify_q_kadell`` alike, as the arguments (lo, hi, headroom)
    of its guard ``FactoredProduct.reads`` and of ``dyson.q_dyson_source``:
    the layout's box, which holds every flipped monomial, with 1 spare bit
    of k, for every layout and every weight of the subsets.

    The spare bit makes the packed comparison (``qpoly.packed_equal``)
    exact.  With B the bound of ``laurent.packed_in_box``,
    2^(k - 1 - headroom) > B.  The constant term is a signed, shifted sum
    of the product's coefficients at distinct monomials, so its
    q-coefficients have L1 norm at most B, however many subsets there are
    and whatever powers of q weight them; times (1 - q^A), at most 2B.
    The right side (1 - q^(1 + total)) qmult(a) has L1 norm
    2 multinomial(a), and multinomial(a) <=
    (n + 1)^total <= 2^(n total) = B, the product of the L1 norms
    2^(a_i + a_j) of the q-Dyson product's pair factors.  So
    |X_i| + |Y_i| <= 4B < 2^(k + 1 - headroom): headroom 1 puts it below
    2^k, and keeps the left side's and the constant term's coefficients
    below 2^(k - 1), so a failing check unpacks its left side, and the
    naive check its constant term.
    """
    return (*layout.box, 1)


@functools.lru_cache(maxsize=1024)
def _paired_rhs(a: tuple[int, ...], k: int) -> tuple[int, str]:
    """(1 - q^(1 + total)) qmult(a) at q = 2^k, v - (v << k (1 + total))
    for v = qmult(a) at 2^k, and its text: once per exponent vector in a
    sweep, whose tasks each keep one k.  The text is read back at this k,
    which is exact at the k of any source that ``check_layer_sum`` accepts,
    one packed with the spare bit of ``paired_reads``: by its bound each
    coefficient of the right side is at most its L1 norm
    2 multinomial(a) <= 2B < 2^(k - 1)."""
    v = q_multinomial_at(a, k)
    rhs = v - (v << k * (1 + sum(a)))
    return rhs, unpack(rhs, k, 0).render()


@functools.cache  # one entry per layout the process compiles
def _pairing(I: tuple[int, ...], J: tuple[int, ...]) -> Extra:  # noqa: E741
    """The ``extra`` of every report of the layout (I, J), with its text."""
    return Extra({"semantics": "multiset", "pairing": [[i, j] for i, j in zip(I, J)]})


def check_layer_sum(
    identity: str, layout: Layout, source: FactoredProduct,
    rows: Sequence[tuple[tuple[int, ...], tuple[int, ...], int, Affine]],
    extra: Callable[[int, int, int], dict],
) -> VerificationReport:
    """The identity

        (1 - q^(1 + total - sum of a over I)) * CT = (1 - q^(1 + total)) * qmult(a)

    for the q-Dyson product D(a) of the source's a times the multiplier
    sum over subsets S of I of (-1)^|S| q^(weight of S) x_{J(S)}/x_S.
    ``rows`` holds one row (S, flipped monomial, sign, weight) per subset,
    in the shape of the compiled layout's: ``layout.subsets``, weighted by
    the chain exponent, for ``main``, and the naive rows that
    ``kadell.naive_rows`` reads off it for ``qkadell``.  The
    constant term is, row by row, the signed weight times D(a)'s
    coefficient at the flipped monomial.  Both sides stay packed at
    q = 2^k, as ``source`` holds its coefficients: the sum over subsets
    adds shifted integers, the factor (1 - q^A) is one shift and
    subtraction, and the right side is packed and rendered once per a.  A
    check that holds prints the right side's text on both sides; only a
    failing one unpacks its left side.  The report's ``extra`` is
    ``extra(ct, k, base)``, with ct the constant term packed, q^base times
    the polynomial whose value at q = 2^k is ct.  The
    guard ``FactoredProduct.reads``, called with the read rule
    ``paired_reads``, refuses a source that holds no q-Dyson product, has
    less headroom than the rule names or does not hold ``layout.box``, with
    ``ValueError``, before anything is read."""
    packed = source.reads(*paired_reads(layout))
    t0 = time.perf_counter()
    a, k = source.a, source.k
    terms = [
        (sign, packed.get(flipped, 0), evaluate(weight, a)) for _, flipped, sign, weight in rows
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
        identity, a, layout, t0, holds, rhs_text if holds else unpack(lhs, k, base), rhs_text,
        lambda: extra(ct, k, base),
    )


def verify_paired(layout: Layout, source: FactoredProduct) -> VerificationReport:
    """The paired-layer identity for the product of the source's a on the
    compiled layout: ``check_layer_sum`` weighted by the chain exponents.
    Layers violating the no-crossing condition are rejected with
    ``NpcViolationError`` before the source is touched."""
    if not layout.npc:
        raise NpcViolationError(f"crossing pattern in pairing {tuple(zip(layout.I, layout.J))}")
    return check_layer_sum(
        "main", layout, source, layout.subsets, lambda *_: _pairing(layout.I, layout.J)
    )


# -- supporting combinatorial statements ------------------------------------


def removal_exponent(inst: Instance, U: Sequence[int], i_v: int, x: int) -> int:
    """Exponent gap g of the unselected index x, relative to floor i_v: the
    step that joining x adds to the combined exponent of a superset of
    U + {i_v} within I.  With j* the index paired with x,

        - sum over y in I \\ U with i_v < y < x of [y > j* > i_v] * a_y
        + sum over y in I \\ U with y > x of [not (y > j* > i_v)] * a_y

    The paper writes this with t_1 < ... < t_{m-d} the positions of I \\ U
    and v the position of i_v, summing over ranks k = v..s-1 and
    k = s+1..m-d for x = i_{t_s}.  Every index of I below i_v lies outside
    U, so the ranks k >= v run exactly over the y in I \\ U with y >= i_v;
    at y = i_v the bracket is false, so the sums above are the same.
    Requires a selected floor i_v <= min U and a selected x outside U with
    x > i_v.
    """
    uset = set(U)
    if i_v not in inst.I or (uset and i_v > min(uset)) or x in uset or x not in inst.I or x <= i_v:
        raise ValueError("needs a selected floor at most min U and a selected x > floor outside U")
    a = inst.a
    j_star = inst.J[inst.I.index(x)]
    g = 0
    for y in inst.I:
        if y <= i_v or y == x or y in uset:
            continue
        crossed = y > j_star > i_v
        if y < x and crossed:
            g -= a[y]
        elif y > x and not crossed:
            g += a[y]
    return g


def factorization_sides(
    inst: Instance, U: Sequence[int], i_v: int
) -> tuple[QPoly, QPoly, tuple[int, ...]]:
    """Both sides of the subset-sum factorization for floor i_v:

    left:  sum over supersets S of U within I with min S = i_v of
           (-1)^(|S|+|U|) q^(chain exponent of S + layer exponent of U in S)
    right: (-1)^[min U != i_v] q^(chain exponent of U+{i_v} + layer exponent
           of U in U+{i_v}) * prod over x in I \\ U with x > i_v of
           (1 - q^(removal exponent of x))

    The supersets are U + {i_v} joined by each subset of the residual, the
    indices x of I \\ U above i_v, which are also the right side's
    factors.  Each superset's combined exponent is computed once, as
    ``chain_exponent(inst, S, U)`` off one prefix sum; the first
    superset, U + {i_v} itself, gives the right side's power of q.  The
    left side's terms are summed as integer weights by exponent and built
    as one ``QPoly``.  Returns (left, right, residual).
    """
    U = tuple(sorted(U))
    if not U or not set(U) <= set(inst.I) or i_v not in inst.I or i_v > U[0]:
        raise ValueError("needs a nonempty subset U of I and a selected floor at most min U")
    residual = tuple(x for x in inst.I if x > i_v and x not in U)
    fixed = set(U) | {i_v}
    supersets = [
        tuple(sorted(fixed.union(extra)))
        for r in range(len(residual) + 1)
        for extra in itertools.combinations(residual, r)
    ]
    exponents = [chain_exponent(inst, S, U) for S in supersets]
    weights: dict[int, int] = {}  # the left side's coefficient at each q-exponent
    for S, exponent in zip(supersets, exponents):
        weights[exponent] = weights.get(exponent, 0) + (-1) ** (len(S) + len(U))
    low = min(weights)
    left = QPoly(low, [weights.get(e, 0) for e in range(low, max(weights) + 1)])
    right = q_power(exponents[0], -1 if U[0] != i_v else 1)
    for x in residual:
        right = right * one_minus_q(removal_exponent(inst, U, i_v, x))
    return left, right, residual


def verify_factorization(inst: Instance, U: Sequence[int], i_v: int) -> VerificationReport:
    """Exact equality of the factorization sides; additionally, under the
    no-crossing condition a nonempty residual forces the right side to
    vanish, which is checked as well.  Sides that agree are passed to
    ``report`` as one ``QPoly``, rendered once: equal canonical polynomials
    render the same text."""
    t0 = time.perf_counter()
    left, right, residual = factorization_sides(inst, U, i_v)
    holds = left == right
    if holds:
        right = left
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
    1 + total - sum of a over U.  The first two are
    ``chain_exponent(inst, S, U)`` at S = U and S = U + {i_{h-1}}, each
    off one prefix sum."""
    if not 2 <= h <= inst.m:
        raise ValueError(f"tail start {h} out of range 2..{inst.m}")
    U = inst.I[h - 1 :]
    with_prev = inst.I[h - 2 :]
    bare = chain_exponent(inst, U, U)
    joined = chain_exponent(inst, with_prev, U)
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
