"""The paired-layer q-analog of the corrected Dyson identity.

Instead of bumping factorial lengths (which breaks, see ``kadell``), the
working q-analog multiplies the q-Dyson product by a signed combination of
layer monomials

    1 + sum over nonempty subsets S of I of
        (-1)^|S| q^(chain exponent of S) * (prod of paired x_j) / (prod x_i)

and then the constant term satisfies

    (1 - q^(1 + total - sum of a over I)) * CT = (1 - q^(1 + total)) * qmult(a)

for every layer whose pairing avoids the crossing pattern
j_t < i_s < j_u < i_t (s < t < u).  The chain exponent of a subset rebuilds
the full selection by inserting the removed indices highest-position-first,
correcting by how many selected/paired indices each insertion passes.
Every function here reads I and J of one ``Instance`` as paired
positionally, i_k with j_k.

The supporting combinatorial facts — the factorization of the subset sums, the
tail cancellation, and the inversion-pair property of choice products — are
implemented here as directly checkable statements.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

from .dyson import Instance, q_dyson_source
from .firstlayer import count_upto, layer_exponent_general, nonempty_subsets
from .laurent import FactoredProduct, LaurentPoly
from .qpoly import ONE, QPoly, ZERO, one_minus_q, q_multinomial_poly, q_power
from .reports import VerificationReport, make_params

SEMANTICS = ("multiset", "set")


class NpcViolationError(ValueError):
    """The layer's pairing contains the crossing pattern the identity
    excludes (some s < t < u with j_t < i_s < j_u < i_t)."""


def _check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")


def npc_holds(I: Sequence[int], J: Sequence[int]) -> bool:  # noqa: E741
    """True unless some positions s < t < u of the layout (I, J) satisfy
    j_t < i_s < j_u < i_t.  Reads only the layout, never a."""
    for s, t, u in itertools.combinations(range(len(I)), 3):
        if J[t] < I[s] < J[u] < I[t]:
            return False
    return True


@dataclass(frozen=True)
class ChainData:
    """Subsets rebuilt from ``subset`` back up to the full selection.

    ``removed_positions`` lists (1-based, ascending) the positions of I not in
    the subset; ``chain[k-1]`` is the k-th set, starting from the full I at
    k = 1 down to the bare subset at k = m - l + 1.  Insertions happen
    highest-position-first.
    """

    subset: tuple[int, ...]
    removed_positions: tuple[int, ...]
    chain: tuple[frozenset, ...]


def insertion_chain(inst: Instance, subset: Sequence[int]) -> ChainData:
    subset = tuple(sorted(subset))
    sset = set(subset)
    if not sset <= set(inst.I):
        raise ValueError("subset must consist of selected indices")
    removed = tuple(p for p in range(1, inst.m + 1) if inst.I[p - 1] not in sset)
    steps = len(removed)
    sets: list[frozenset] = [frozenset()] * (steps + 1)
    sets[steps] = frozenset(subset)
    for k in range(steps, 0, -1):
        sets[k - 1] = sets[k] | {inst.I[removed[k - 1] - 1]}
    return ChainData(subset=subset, removed_positions=removed, chain=tuple(sets))


def chain_j_values(
    inst: Instance, subset: Sequence[int], k: int, semantics: str = "multiset"
) -> tuple[int, ...]:
    """j-values relevant to the k-th insertion: those among (paired j's of the
    subset) plus (the j paired with the inserted index) that exceed the
    minimum of the k-th chain set.  Under "set" semantics duplicates
    collapse."""
    _check_semantics(semantics)
    cd = insertion_chain(inst, subset)
    if not 1 <= k <= len(cd.removed_positions):
        raise ValueError(f"insertion step {k} out of range")
    pool = inst.paired_js(cd.subset) + [inst.J[cd.removed_positions[k - 1] - 1]]
    floor = min(cd.chain[k - 1])
    vals = [j for j in pool if j > floor]
    if semantics == "set":
        vals = sorted(set(vals))
    else:
        vals.sort()
    return tuple(vals)


def sub_layer(inst: Instance, subset: Sequence[int]) -> Instance:
    """The instance induced on a subset of I: the subset with its paired j's,
    and the same a."""
    subset = tuple(sorted(subset))
    return Instance(inst.n, inst.a, subset, inst.paired_js(subset))


def chain_exponent(inst: Instance, subset: Sequence[int], semantics: str = "multiset") -> int:
    """q-exponent attached to a nonempty subset S of the selection:

        1 + total - (sum of a over S)
          + sum over insertion steps k of
                (count_upto(i_rk, S) - count_upto(i_rk, step j-values)) * a_{i_rk}
          - (general layer exponent of S within its own induced layer)
    """
    _check_semantics(semantics)
    a = inst.a
    subset = tuple(sorted(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    cd = insertion_chain(inst, subset)
    acc = 1 + inst.total - sum(a[u] for u in subset)
    for k, pos in enumerate(cd.removed_positions, start=1):
        inserted = inst.I[pos - 1]
        jvals = chain_j_values(inst, subset, k, semantics)
        acc += (count_upto(inserted, subset) - count_upto(inserted, jvals)) * a[inserted]
    acc -= layer_exponent_general(subset, sub_layer(inst, subset))
    return acc


def correction_polynomial(inst: Instance, semantics: str = "multiset") -> LaurentPoly:
    """1 plus the signed layer monomials: each nonempty subset S of I
    contributes (-1)^|S| q^(chain exponent) * prod_{k: i_k in S} x_{j_k}/x_{i_k}."""
    _check_semantics(semantics)
    n = inst.n
    width = n + 1
    partner = dict(inst.pairs)
    terms: dict[tuple[int, ...], QPoly] = {(0,) * width: ONE}
    for subset in nonempty_subsets(inst.I):
        exps = [0] * width
        for u in subset:
            exps[u] -= 1
            exps[partner[u]] += 1
        sign = -1 if len(subset) % 2 else 1
        coeff = q_power(chain_exponent(inst, subset, semantics), sign)
        key = tuple(exps)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return LaurentPoly(n, terms)


def verify_paired(
    inst: Instance, semantics: str = "multiset", source: FactoredProduct | None = None
) -> VerificationReport:
    """The paired-layer identity for one instance.  Layers violating the
    no-crossing condition are rejected with ``NpcViolationError``."""
    _check_semantics(semantics)
    if not npc_holds(inst.I, inst.J):
        raise NpcViolationError(f"crossing pattern in pairing {inst.pairs}")
    t0 = time.perf_counter()
    if source is None:
        source = q_dyson_source(inst)
    ct = source.ct_times(correction_polynomial(inst, semantics))
    lhs = one_minus_q(1 + inst.total - inst.selected_total) * ct
    rhs = one_minus_q(1 + inst.total) * q_multinomial_poly(inst.a)
    holds = lhs == rhs
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="main",
        params=make_params(
            inst, extra={"semantics": semantics, "pairing": [list(p) for p in inst.pairs]}
        ),
        holds=holds,
        lhs=lhs.render(),
        rhs=rhs.render(),
        elapsed_ms=round(elapsed, 3),
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
    inst: Instance, U: Sequence[int], i_v: int, semantics: str = "multiset"
) -> tuple[QPoly, QPoly, tuple[int, ...]]:
    """Both sides of the subset-sum factorization for floor i_v:

    left:  sum over supersets S of U within I with min S = i_v of
           (-1)^(|S|+|U|) q^(chain exponent of S + layer exponent of U in S)
    right: (-1)^[min U != i_v] q^(chain exponent of U+{i_v} + layer exponent
           of U in U+{i_v}) * prod over unselected indices past i_v of
           (1 - q^(removal exponent))

    Returns (left, right, residual indices).
    """
    _check_semantics(semantics)
    U = tuple(sorted(U))
    if not U:
        raise ValueError("subset must be nonempty")
    if not set(U) <= set(inst.I):
        raise ValueError("subset must consist of selected indices")
    if i_v not in inst.I or i_v > min(U):
        raise ValueError("floor must be a selected index at most min(U)")
    d = len(U)
    v = inst.position(i_v)

    candidates = [x for x in inst.I if x > i_v and x not in set(U)]
    left = ZERO
    for r in range(len(candidates) + 1):
        for extra in itertools.combinations(candidates, r):
            s_l = tuple(sorted(set(U) | {i_v} | set(extra)))
            sign = -1 if (len(s_l) + d) % 2 else 1
            exponent = chain_exponent(inst, s_l, semantics) + layer_exponent_general(
                U, sub_layer(inst, s_l)
            )
            left = left + q_power(exponent, sign)

    base = tuple(sorted(set(U) | {i_v}))
    base_exp = chain_exponent(inst, base, semantics) + layer_exponent_general(
        U, sub_layer(inst, base)
    )
    sign = -1 if min(U) != i_v else 1
    right = q_power(base_exp, sign)
    tpos = _t_positions(inst, U)
    residual = tuple(inst.I[p - 1] for p in tpos if p > v)
    for s, p in enumerate(tpos, start=1):
        if p > v:
            right = right * one_minus_q(removal_exponent(inst, U, i_v, s))
    return left, right, residual


def verify_factorization(
    inst: Instance, U: Sequence[int], i_v: int, semantics: str = "multiset"
) -> VerificationReport:
    """Exact equality of the factorization sides; additionally, under the
    no-crossing condition a nonempty residual forces the right side to
    vanish, which is checked as well."""
    t0 = time.perf_counter()
    left, right, residual = factorization_sides(inst, U, i_v, semantics)
    holds = left == right
    npc = npc_holds(inst.I, inst.J)
    if npc and residual:
        holds = holds and right.is_zero()
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="factorization",
        params=make_params(
            inst,
            extra={
                "U": list(U),
                "floor": i_v,
                "semantics": semantics,
                "npc": npc,
                "residual": list(residual),
            },
        ),
        holds=holds,
        lhs=left.render(),
        rhs=right.render(),
        elapsed_ms=round(elapsed, 3),
    )


def tail_cancel_values(
    inst: Instance, h: int, semantics: str = "multiset"
) -> tuple[int, int, int]:
    """Combined exponents for the tail subset U = {i_h, ..., i_m}: with the
    bare tail, with i_{h-1} joined in, and the predicted common value
    1 + total - sum of a over U."""
    if not 2 <= h <= inst.m:
        raise ValueError(f"tail start {h} out of range 2..{inst.m}")
    U = inst.I[h - 1 :]
    with_prev = inst.I[h - 2 :]
    bare = chain_exponent(inst, U, semantics) + layer_exponent_general(U, sub_layer(inst, U))
    joined = chain_exponent(inst, with_prev, semantics) + layer_exponent_general(
        U, sub_layer(inst, with_prev)
    )
    expected = 1 + inst.total - sum(inst.a[u] for u in U)
    return bare, joined, expected


def verify_tail_cancel(
    inst: Instance, h: int, semantics: str = "multiset"
) -> VerificationReport:
    """For the tail subset U = {i_h, ..., i_m} (2 <= h <= m), the combined
    exponent is the same whether or not i_{h-1} joins, and both equal
    1 + total - sum of a over U."""
    bare, joined, expected = tail_cancel_values(inst, h, semantics)
    return VerificationReport(
        identity="tailcancel",
        params=make_params(inst, extra={"h": h, "semantics": semantics}),
        holds=bare == joined == expected,
        lhs=f"{bare},{joined}",
        rhs=str(expected),
        elapsed_ms=0.0,
    )


def cancellation_sum(inst: Instance, U: Sequence[int], semantics: str = "multiset") -> QPoly:
    """Inner sum of the expanded identity for a fixed nonempty subset U: the
    left factorization sides summed over all floors i_v <= min U.  Under the
    no-crossing condition this vanishes for every U except the full
    selection."""
    floors = [i_v for i_v in inst.I if i_v <= min(U)]
    return sum((factorization_sides(inst, U, i_v, semantics)[0] for i_v in floors), ZERO)


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
