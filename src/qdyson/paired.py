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

The supporting combinatorial facts — the factorization of the subset sums, the
tail cancellation, and the inversion-pair property of choice products — are
implemented here as directly checkable statements.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dyson import DysonSpec, q_dyson_source
from .firstlayer import (
    LayerSpec,
    count_upto,
    layer_exponent_general,
    nonempty_subsets,
)
from .laurent import FactoredProduct, LaurentPoly
from .qpoly import ONE, QPoly, QRat, ZERO, one_minus_q, q_multinomial, q_multinomial_poly, q_power
from .reports import VerificationReport, make_params

SEMANTICS = ("multiset", "set")


class NpcViolationError(ValueError):
    """The layer's pairing contains the crossing pattern the identity
    excludes (some s < t < u with j_t < i_s < j_u < i_t)."""


def _check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")


@dataclass(frozen=True)
class PairedLayer:
    """A layer whose I and J are read as positionally paired:
    i_k partners j_k for k = 1..m."""

    spec: LayerSpec

    @staticmethod
    def of(n: int, I: Iterable[int], J: Iterable[int]) -> "PairedLayer":  # noqa: E741
        return PairedLayer(LayerSpec(n, tuple(I), tuple(J)))

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def I(self) -> tuple[int, ...]:  # noqa: E741
        return self.spec.I

    @property
    def J(self) -> tuple[int, ...]:
        return self.spec.J

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.spec.I, self.spec.J))

    def position(self, value: int) -> int:
        """1-based position of a selected index within I."""
        return self.spec.I.index(value) + 1

    def j_at(self, pos: int) -> int:
        return self.spec.J[pos - 1]

    def paired_js(self, subset: Sequence[int]) -> list[int]:
        """The j-values paired with the given selected indices (with
        multiplicity, sorted)."""
        return sorted(self.j_at(self.position(u)) for u in subset)


def npc_holds(layer: PairedLayer) -> bool:
    """True unless some positions s < t < u satisfy j_t < i_s < j_u < i_t."""
    I, J = layer.I, layer.J  # noqa: E741
    m = layer.m
    for s, t, u in itertools.combinations(range(m), 3):
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


def insertion_chain(layer: PairedLayer, subset: Sequence[int]) -> ChainData:
    subset = tuple(sorted(subset))
    sset = set(subset)
    if not sset <= set(layer.I):
        raise ValueError("subset must consist of selected indices")
    removed = tuple(p for p in range(1, layer.m + 1) if layer.I[p - 1] not in sset)
    steps = len(removed)
    sets: list[frozenset] = [frozenset()] * (steps + 1)
    sets[steps] = frozenset(subset)
    for k in range(steps, 0, -1):
        sets[k - 1] = sets[k] | {layer.I[removed[k - 1] - 1]}
    return ChainData(subset=subset, removed_positions=removed, chain=tuple(sets))


def chain_j_values(
    layer: PairedLayer, subset: Sequence[int], k: int, semantics: str = "multiset"
) -> tuple[int, ...]:
    """j-values relevant to the k-th insertion: those among (paired j's of the
    subset) plus (the j paired with the inserted index) that exceed the
    minimum of the k-th chain set.  Under "set" semantics duplicates
    collapse."""
    _check_semantics(semantics)
    cd = insertion_chain(layer, subset)
    if not 1 <= k <= len(cd.removed_positions):
        raise ValueError(f"insertion step {k} out of range")
    pool = layer.paired_js(cd.subset) + [layer.j_at(cd.removed_positions[k - 1])]
    floor = min(cd.chain[k - 1])
    vals = [j for j in pool if j > floor]
    if semantics == "set":
        vals = sorted(set(vals))
    else:
        vals.sort()
    return tuple(vals)


def sub_layer(layer: PairedLayer, subset: Sequence[int]) -> LayerSpec:
    """The layer induced on a subset of I: the subset with its paired j's."""
    subset = tuple(sorted(subset))
    return LayerSpec(layer.n, subset, tuple(layer.paired_js(subset)))


def chain_exponent(
    layer: PairedLayer, subset: Sequence[int], a: Sequence[int], semantics: str = "multiset"
) -> int:
    """q-exponent attached to a nonempty subset S of the selection:

        1 + total - (sum of a over S)
          + sum over insertion steps k of
                (count_upto(i_rk, S) - count_upto(i_rk, step j-values)) * a_{i_rk}
          - (general layer exponent of S within its own induced layer)
    """
    _check_semantics(semantics)
    a = tuple(a)
    subset = tuple(sorted(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    cd = insertion_chain(layer, subset)
    total = sum(a)
    acc = 1 + total - sum(a[u] for u in subset)
    for k, pos in enumerate(cd.removed_positions, start=1):
        inserted = layer.I[pos - 1]
        jvals = chain_j_values(layer, subset, k, semantics)
        acc += (count_upto(inserted, subset) - count_upto(inserted, jvals)) * a[inserted]
    acc -= layer_exponent_general(subset, sub_layer(layer, subset), a)
    return acc


def correction_polynomial(
    layer: PairedLayer, a: Sequence[int], semantics: str = "multiset"
) -> LaurentPoly:
    """1 plus the signed layer monomials: each nonempty subset S of I
    contributes (-1)^|S| q^(chain exponent) * prod_{k: i_k in S} x_{j_k}/x_{i_k}."""
    _check_semantics(semantics)
    n = layer.n
    width = n + 1
    terms: dict[tuple[int, ...], QPoly] = {(0,) * width: ONE}
    for subset in nonempty_subsets(layer.I):
        exps = [0] * width
        for u in subset:
            exps[u] -= 1
            exps[layer.j_at(layer.position(u))] += 1
        sign = -1 if len(subset) % 2 else 1
        coeff = q_power(chain_exponent(layer, subset, a, semantics), sign)
        key = tuple(exps)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return LaurentPoly(n, terms)


def verify_paired(
    layer: PairedLayer,
    a: Sequence[int],
    semantics: str = "multiset",
    source: FactoredProduct | None = None,
) -> VerificationReport:
    """The paired-layer identity for one instance.  Layers violating the
    no-crossing condition are rejected with ``NpcViolationError``."""
    _check_semantics(semantics)
    if not npc_holds(layer):
        raise NpcViolationError(f"crossing pattern in pairing {layer.pairs}")
    t0 = time.perf_counter()
    spec = DysonSpec(layer.n, a)
    a = spec.a
    total = sum(a)
    s_i = sum(a[i] for i in layer.I)
    if source is None:
        source = q_dyson_source(spec)
    ct = source.ct_times(correction_polynomial(layer, a, semantics))
    lhs = one_minus_q(1 + total - s_i) * ct
    rhs = QRat(one_minus_q(1 + total)) * q_multinomial(a)
    holds = QRat(lhs) == rhs
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="main",
        params=make_params(
            layer.n,
            a,
            layer.I,
            layer.J,
            extra={"semantics": semantics, "pairing": [list(p) for p in layer.pairs]},
        ),
        holds=holds,
        lhs=lhs.render(),
        rhs=(one_minus_q(1 + total) * q_multinomial_poly(a)).render(),
        elapsed_ms=round(elapsed, 3),
    )


# -- supporting combinatorial statements ------------------------------------


def _t_positions(layer: PairedLayer, U: Sequence[int]) -> list[int]:
    """1-based positions of I \\ U, ascending."""
    uset = set(U)
    return [p for p in range(1, layer.m + 1) if layer.I[p - 1] not in uset]


def removal_exponent(
    layer: PairedLayer, U: Sequence[int], i_v: int, s: int, a: Sequence[int]
) -> int:
    """Exponent gap g for the s-th unselected index, relative to floor i_v.

    With t_1 < ... < t_{m-d} the positions of I \\ U and v the position of
    i_v, writing j* for the j paired at position t_s:

        - sum_{k=v..s-1}   [i_{t_k} > j* > i_v] * a_{i_{t_k}}
        + sum_{k=s+1..m-d} [not (i_{t_k} > j* > i_v)] * a_{i_{t_k}}
    """
    a = tuple(a)
    uset = set(U)
    if i_v not in layer.I:
        raise ValueError("floor index must be selected")
    if uset and i_v > min(uset):
        raise ValueError("floor index must not exceed the subset minimum")
    tpos = _t_positions(layer, U)
    if not 1 <= s <= len(tpos):
        raise ValueError(f"index {s} out of range")
    target = layer.I[tpos[s - 1] - 1]
    if target in uset or target == i_v:
        raise ValueError("indexed element must lie outside the subset and floor")
    v = layer.position(i_v)
    j_star = layer.j_at(tpos[s - 1])
    acc = 0
    for k in range(v, s):
        ik = layer.I[tpos[k - 1] - 1]
        if ik > j_star > i_v:
            acc -= a[ik]
    for k in range(s + 1, len(tpos) + 1):
        ik = layer.I[tpos[k - 1] - 1]
        if not (ik > j_star > i_v):
            acc += a[ik]
    return acc


def factorization_sides(
    layer: PairedLayer,
    U: Sequence[int],
    i_v: int,
    a: Sequence[int],
    semantics: str = "multiset",
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
    a = tuple(a)
    U = tuple(sorted(U))
    if not U:
        raise ValueError("subset must be nonempty")
    if not set(U) <= set(layer.I):
        raise ValueError("subset must consist of selected indices")
    if i_v not in layer.I or i_v > min(U):
        raise ValueError("floor must be a selected index at most min(U)")
    d = len(U)
    v = layer.position(i_v)

    candidates = [x for x in layer.I if x > i_v and x not in set(U)]
    left = ZERO
    for r in range(len(candidates) + 1):
        for extra in itertools.combinations(candidates, r):
            s_l = tuple(sorted(set(U) | {i_v} | set(extra)))
            sign = -1 if (len(s_l) + d) % 2 else 1
            exponent = chain_exponent(layer, s_l, a, semantics) + layer_exponent_general(
                U, sub_layer(layer, s_l), a
            )
            left = left + q_power(exponent, sign)

    base = tuple(sorted(set(U) | {i_v}))
    base_exp = chain_exponent(layer, base, a, semantics) + layer_exponent_general(
        U, sub_layer(layer, base), a
    )
    sign = -1 if min(U) != i_v else 1
    right = q_power(base_exp, sign)
    tpos = _t_positions(layer, U)
    residual = tuple(
        layer.I[p - 1] for p in tpos if p > v
    )
    for s, p in enumerate(tpos, start=1):
        if p > v:
            right = right * one_minus_q(removal_exponent(layer, U, i_v, s, a))
    return left, right, residual


def verify_factorization(
    layer: PairedLayer,
    U: Sequence[int],
    i_v: int,
    a: Sequence[int],
    semantics: str = "multiset",
) -> VerificationReport:
    """Exact equality of the factorization sides; additionally, under the
    no-crossing condition a nonempty residual forces the right side to
    vanish, which is checked as well."""
    t0 = time.perf_counter()
    left, right, residual = factorization_sides(layer, U, i_v, a, semantics)
    holds = left == right
    npc = npc_holds(layer)
    if npc and residual:
        holds = holds and right.is_zero()
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="factorization",
        params=make_params(
            layer.n,
            a,
            layer.I,
            layer.J,
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
    layer: PairedLayer, h: int, a: Sequence[int], semantics: str = "multiset"
) -> tuple[int, int, int]:
    """Combined exponents for the tail subset U = {i_h, ..., i_m}: with the
    bare tail, with i_{h-1} joined in, and the predicted common value
    1 + total - sum of a over U."""
    if not 2 <= h <= layer.m:
        raise ValueError(f"tail start {h} out of range 2..{layer.m}")
    a = tuple(a)
    U = layer.I[h - 1 :]
    with_prev = layer.I[h - 2 :]
    bare = chain_exponent(layer, U, a, semantics) + layer_exponent_general(
        U, sub_layer(layer, U), a
    )
    joined = chain_exponent(layer, with_prev, a, semantics) + layer_exponent_general(
        U, sub_layer(layer, with_prev), a
    )
    expected = 1 + sum(a) - sum(a[u] for u in U)
    return bare, joined, expected


def verify_tail_cancel(
    layer: PairedLayer, h: int, a: Sequence[int], semantics: str = "multiset"
) -> bool:
    """For the tail subset U = {i_h, ..., i_m} (2 <= h <= m), the combined
    exponent is the same whether or not i_{h-1} joins, and both equal
    1 + total - sum of a over U."""
    bare, joined, expected = tail_cancel_values(layer, h, a, semantics)
    return bare == joined == expected


def cancellation_sum(
    layer: PairedLayer, U: Sequence[int], a: Sequence[int], semantics: str = "multiset"
) -> QPoly:
    """Inner sum of the expanded identity for a fixed nonempty subset U:
    over all floors i_v <= min U and all supersets S of U with min S = i_v,
    the signed q-powers of (chain exponent of S + layer exponent of U in S).
    Under the no-crossing condition this vanishes for every U except the
    full selection."""
    _check_semantics(semantics)
    a = tuple(a)
    U = tuple(sorted(U))
    d = len(U)
    total = ZERO
    for i_v in layer.I:
        if i_v > min(U):
            continue
        candidates = [x for x in layer.I if x > i_v and x not in set(U)]
        for r in range(len(candidates) + 1):
            for extra in itertools.combinations(candidates, r):
                s_l = tuple(sorted(set(U) | {i_v} | set(extra)))
                sign = -1 if (len(s_l) + d) % 2 else 1
                exponent = chain_exponent(layer, s_l, a, semantics) + layer_exponent_general(
                    U, sub_layer(layer, s_l), a
                )
                total = total + q_power(exponent, sign)
    return total


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
