"""Paired-layer identity, its exponent machinery, and the supporting
combinatorial statements."""

import itertools
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyson import paired
from qdyson.dyson import Instance, evaluate, q_dyson_source
from qdyson.firstlayer import nonempty_subsets
from qdyson.kadell import naive_rows
from qdyson.paired import (
    NpcViolationError,
    chain_exponent,
    compile_layout,
    correction_polynomial,
    factorization_sides,
    matrix_choice_property,
    npc_holds,
    removal_exponent,
    tail_cancel_values,
    verify_factorization,
    verify_paired,
    verify_tail_cancel,
)
from qdyson.qpoly import QPoly, ZERO, one_minus_q, q_multinomial_poly, q_power
from qdyson.reports import report
from qdyson.sweeps import layout_grid, verify
from tests.test_dyson import compiled, layer_box, layer_sum, shared_source
from tests.test_firstlayer import (
    all_layouts,
    count_upto,
    layer_exponent,
    oracle_avecs,
    paired_js,
    paper_layer_exponent,
    seeded_layouts,
)


@st.composite
def paired_layers(draw, nmax=6, mmin=1, amax=5):
    """A random instance: a paired layer and an exponent vector."""
    n = draw(st.integers(max(2, mmin), nmax))
    m = draw(st.integers(mmin, n))
    I = tuple(
        sorted(
            draw(st.lists(st.integers(0, n), min_size=m, max_size=m, unique=True))
        )
    )
    rest = sorted(set(range(n + 1)) - set(I))
    J = tuple(sorted(draw(st.lists(st.sampled_from(rest), min_size=m, max_size=m))))
    a = tuple(draw(st.integers(0, amax)) for _ in range(n + 1))
    return Instance(n, a, I, J)


def exponent_within(inst, U, X):
    """Oracle for the layer exponent of U within the layer of X: the split
    form on the instance of X with its paired j's and the same a."""
    X = tuple(sorted(X))
    return paper_layer_exponent(U, Instance(inst.n, inst.a, X, paired_js(inst, X)))


class TestPairedLayer:
    def test_pairing_is_positional(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 3))
        assert inst.pairs == ((0, 1), (2, 3))
        assert inst.J[inst.I.index(2)] == 3
        assert paired_js(inst, (2, 0)) == [1, 3]

    def test_paired_js_keeps_multiplicity(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        assert paired_js(inst, (0, 1)) == [2, 2]


class TestNpc:
    def test_short_pairings_always_pass(self):
        for n in (2, 3):
            for inst in all_layouts(n, (0,) * (n + 1), mmin=0, mmax=2):
                assert npc_holds(inst.I, inst.J)

    def test_known_instances(self):
        assert npc_holds((2, 5, 6), (0, 3, 4))
        assert not npc_holds((2, 5, 6), (0, 1, 3))

    def test_crossing_definition(self):
        # j_2 = 1 < i_1 = 2 < j_3 = 3 < i_2 = 5 realises the excluded pattern
        I, J = (2, 5, 6), (0, 1, 3)
        assert J[1] < I[0] < J[2] < I[1]


def chain_at(inst, subset):
    """The chain exponent of ``subset`` at inst.a: its ``chain_coefficients``,
    looked up through the module global as ``compile_layout`` looks them
    up, evaluated at a."""
    return evaluate(paired.chain_coefficients(inst, subset), inst.a)


def insertion_chain_exponent(inst, subset, semantics="multiset"):
    """The chain exponent as an insertion chain: rebuild the selection from
    the subset by inserting the indices of I outside it highest position
    first, keep every intermediate set, and read each step's j-values off
    the set that step produces.  The reference ``chain_at`` is checked
    against.  ``semantics="set"`` collapses each step's repeated
    j-values: the reading the gate refutes, which the program does not
    offer."""
    a = inst.a
    subset = tuple(sorted(subset))
    removed = [p for p in range(inst.m) if inst.I[p] not in subset]
    chain = [frozenset(subset)]
    for p in reversed(removed):
        chain.insert(0, chain[0] | {inst.I[p]})
    acc = 1 + inst.total - sum(a[u] for u in subset)
    for step, p in enumerate(removed):
        inserted = inst.I[p]
        pool = paired_js(inst, subset) + [inst.J[p]]
        jvals = [j for j in pool if j > min(chain[step])]
        if semantics == "set":
            jvals = set(jvals)
        acc += (count_upto(inserted, subset) - count_upto(inserted, jvals)) * a[inserted]
    return acc - exponent_within(inst, subset, subset)


def set_reading_coefficients(inst, subset):
    """The refuted "set" reading of the chain exponent as (c0, c): its
    insertion chain read at a = 0 for c0, and at each unit vector e_k for
    c0 + c_k.  Like the program's coefficients it reads only n, I and J."""
    n = inst.n

    def at(a):
        return insertion_chain_exponent(Instance(n, a, inst.I, inst.J), subset, "set")

    c0 = at((0,) * (n + 1))
    return c0, tuple(at(tuple(int(v == k) for v in range(n + 1))) - c0 for k in range(n + 1))


def use_set_reading(monkeypatch):
    """Swap the refuted "set" reading, which collapses repeated j-values, in
    for the program's chain coefficients.  ``compile_layout`` and
    ``chain_at`` reach them through the module global, so every layout a
    ``--jobs 1`` sweep or a ``verify`` compiles afterwards is checked under
    it."""
    monkeypatch.setattr("qdyson.paired.chain_coefficients", set_reading_coefficients)


def assert_matches_insertion_chain(inst):
    """``chain_at`` against the insertion chain, for every nonempty
    subset of the selection of inst."""
    for S in nonempty_subsets(inst.I):
        assert chain_at(inst, S) == insertion_chain_exponent(inst, S), (inst, S)


class TestChainExponent:
    def test_known_value(self):
        inst = Instance(2, (1, 1, 1), (0,), (2,))
        assert chain_at(inst, (0,)) == 2

    def test_rejects_empty_subset(self):
        inst = Instance(2, (1, 1, 1), (0,), (2,))
        with pytest.raises(ValueError):
            chain_at(inst, ())

    def test_rejects_foreign_indices(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        with pytest.raises(ValueError):
            chain_at(inst, (2,))
        with pytest.raises(ValueError):
            chain_at(inst, (0, 2))

    def test_semantics_differ_on_repeated_j(self):
        """Inserting 2 (paired with 1) into S = (0,) meets the j-values 1, 1:
        two with multiplicity, as the program counts them, one under the
        refuted "set" reading."""
        inst = Instance(2, (1, 1, 1), (0, 2), (1, 1))
        assert chain_at(inst, (0,)) == insertion_chain_exponent(inst, (0,)) == 2
        assert insertion_chain_exponent(inst, (0,), "set") == 3

    def test_matches_insertion_chain(self):
        """The one-pass form equals the insertion chain on every layout with
        n <= 5, for every nonempty subset."""
        for n in range(1, 6):
            for a in oracle_avecs(n):
                for inst in all_layouts(n, a):
                    assert_matches_insertion_chain(inst)

    def test_matches_insertion_chain_at_the_lemma_suite_n(self):
        """The same on seeded random layouts at n = 6 and 7, the largest n
        the pinned lemma suites draw."""
        for n in (6, 7):
            for I, J in seeded_layouts(n, 12):
                for a in oracle_avecs(n):
                    assert_matches_insertion_chain(Instance(n, a, I, J))

    def test_combined_exponent_is_chain_plus_layer(self):
        """Given U, ``chain_exponent(inst, S, U)`` is the chain exponent of
        S plus the layer exponent of U within the layer of S, on every
        layout of ``layout_grid(n, 1, n)`` with n <= 5, crossing ones
        included, for every nonempty S within I and nonempty U within S, at
        a = (1, ..., 1), (0, 1, ..., n), its reverse and ((3k + 1) mod 5)_k."""
        cases = 0
        for n in range(1, 6):
            avecs = oracle_avecs(n) + [tuple((3 * k + 1) % 5 for k in range(n + 1))]
            for I, J in layout_grid(n, 1, n):
                for a in avecs:
                    inst = Instance(n, a, I, J)
                    for S in nonempty_subsets(I):
                        chain = chain_at(inst, S)
                        for U in nonempty_subsets(S):
                            expected = chain + layer_exponent(U, inst, S)
                            assert chain_exponent(inst, S, U) == expected, (inst, S, U)
                            cases += 1
        assert cases == 49308

    def test_combined_exponent_needs_a_nonempty_subset_of_s(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        for U in ((), (1,), (0, 1)):
            with pytest.raises(ValueError, match="nonempty subset of S"):
                chain_exponent(inst, (0,), U)
        with pytest.raises(ValueError, match="selected indices"):
            chain_exponent(inst, (0, 2), (0,))

    @given(paired_layers())
    @settings(max_examples=100, deadline=None)
    def test_full_selection_combined_exponent(self, inst):
        """C(I) + L*(I|I) collapses to 1 + total - sum of a over I."""
        a = inst.a
        combined = chain_at(inst, inst.I) + exponent_within(inst, inst.I, inst.I)
        assert combined == 1 + sum(a) - sum(a[i] for i in inst.I)


class TestCompiledLayout:
    def test_matches_the_oracles(self):
        """On every layout with n <= 4: the rows are the subsets of I, the
        empty one first, then in ``nonempty_subsets`` order, with the
        monomials and signs of the signed layer sum, in its order, and the
        box is the layer box; and for every a in {0,1,2}^(n+1) each
        compiled chain exponent, evaluated at a, is the insertion chain,
        and each layer exponent read off the levels, t + sum of L_k a_k
        less the sum over T, is the split form.  So the exponents are
        affine in a, with the compiled coefficients."""
        for n in range(1, 5):
            avecs = list(itertools.product(range(3), repeat=n + 1))
            for base in all_layouts(n, (0,) * (n + 1), mmin=0):
                layout = compile_layout(n, base.I, base.J)
                assert (layout.I, layout.J, layout.box) == (base.I, base.J, layer_box(base))
                signed = layer_sum(base, lambda S: q_power(0, (-1) ** len(S)))
                unflipped = [
                    (tuple(-e for e in flipped), q_power(0, sign))
                    for _, flipped, sign, _ in layout.subsets
                ]
                assert unflipped == list(signed.terms.items()), base
                rows = layout.subsets[1:]
                assert [T for T, _, _, _ in rows] == list(nonempty_subsets(base.I)), base
                assert layout.subsets[0] == ((), (0,) * (n + 1), 1, (0, (0,) * (n + 1)))
                assert layout.npc == npc_holds(base.I, base.J), base
                if not base.I:
                    assert layout.levels == (0, (0,) * (n + 1))
                L = layout.levels[1]
                for a in avecs:
                    inst = Instance(n, a, base.I, base.J)
                    top = evaluate(layout.levels, a)
                    for T, _, _, chain in rows:
                        assert evaluate(chain, a) == insertion_chain_exponent(inst, T), (inst, T)
                        layer = top - sum(L[k] * a[k] for k in T)
                        assert layer == paper_layer_exponent(T, inst), (inst, T)

    def test_compiling_makes_one_prefix_sum_per_subset(self, monkeypatch):
        """Compiling a layout with m selected indices builds 2^m
        ``layer_levels`` prefix sums, for m = 0..3: one for the levels of
        I, all zero for the empty layer, and one per nonempty subset for
        its chain coefficients."""
        calls, original = [], paired.layer_levels

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(paired, "layer_levels", counting)
        for m in range(4):
            calls.clear()
            compile_layout(3, tuple(range(m)), (3,) * m)
            assert len(calls) == 2**m, m

    def test_known_layout(self):
        """x_2/x_0 over x_0..x_2: chain exponent 1 + a_2 and layer exponent
        a_1, read off the layout alone (2 and 1 at a = (1, 1, 1), as in
        ``test_known_value`` and ``test_known_values``), and naive weight
        1 + a_2, as 2 > 0; x_0/x_2 has naive weight a_0.  Compiling
        validates I and J as an instance does."""
        layout = compile_layout(2, (0,), (2,))
        assert layout.subsets == (
            ((), (0, 0, 0), 1, (0, (0, 0, 0))),
            ((0,), (1, 0, -1), -1, (1, (0, 0, 1))),
        )
        assert layout.levels == (0, (1, 1, 0))  # the layer exponent of (0,): a_1
        assert naive_rows(layout) == [
            ((), (0, 0, 0), 1, (0, (0, 0, 0))),
            ((0,), (1, 0, -1), -1, (1, (0, 0, 1))),
        ]
        assert naive_rows(compile_layout(2, (2,), (0,)))[1][3] == (0, (1, 0, 0))
        assert layout.box == ((0, 0, -1), (1, 0, 0))
        assert layout.npc
        with pytest.raises(ValueError):
            compile_layout(2, (0,), (0,))


class TestCorrectionPolynomial:
    def test_empty_selection_is_one(self):
        inst = Instance(2, (1, 1, 1))
        assert correction_polynomial(inst.a, compiled(inst)).terms == {(0, 0, 0): QPoly(0, (1,))}

    def test_single_pair(self):
        inst = Instance(2, (1, 1, 1), (0,), (2,))
        poly = correction_polynomial(inst.a, compiled(inst))
        assert poly.num_terms() == 2
        assert poly.coeff((0, 0, 0)) == QPoly(0, (1,))
        assert poly.coeff((-1, 0, 1)) == q_power(2, -1)

    def test_two_pairs_signs(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        poly = correction_polynomial(inst.a, compiled(inst))
        assert poly.num_terms() == 4
        assert poly.coeff((0, 0, 0)) == QPoly(0, (1,))
        assert poly.coeff((-1, 0, 1)) == q_power(chain_at(inst, (0,)), -1)
        assert poly.coeff((0, -1, 1)) == q_power(chain_at(inst, (1,)), -1)
        assert poly.coeff((-1, -1, 2)) == q_power(chain_at(inst, (0, 1)), 1)


def verify_paired_oracle(a, layout, source):
    """The paired check with ``QPoly`` arithmetic, reading the whole box of
    ``source`` unpacked at once: the signed sum over subsets, the product by
    (1 - q^A) and the right side as polynomials, each side rendered.  The
    packed ``verify_paired`` must give the same report, ``elapsed_ms``
    apart."""
    t0 = time.perf_counter()
    ct = ZERO
    for _, flipped, sign, chain in layout.subsets:
        term = source.expanded.coeff(flipped).shifted(evaluate(chain, a))
        ct = ct + term if sign > 0 else ct - term
    lhs = one_minus_q(1 + sum(a) - sum(a[i] for i in layout.I)) * ct
    rhs = one_minus_q(1 + sum(a)) * q_multinomial_poly(a)
    pairs = Instance(layout.n, a, layout.I, layout.J).pairs
    return report(
        "main", a, layout, t0, lhs == rhs, lhs, rhs,
        lambda: {"semantics": "multiset", "pairing": [list(p) for p in pairs]},
    )


def crossing_triples(layout):
    """The selected indices (i_s, i_t, i_u) of each crossing triple of the
    layout: positions s < t < u with j_t < i_s < j_u < i_t."""
    I, J = layout.I, layout.J  # noqa: E741
    return [
        (I[s], I[t], I[u])
        for s, t, u in itertools.combinations(range(len(I)), 3)
        if J[t] < I[s] < J[u] < I[t]
    ]


class TestVerifyPaired:
    def test_known_holding_instances(self):
        a = (1, 1, 1)
        for I, J in (((0,), (1,)), ((0, 1), (2, 2))):
            assert verify("main", 2, a, I, J).holds

    def test_empty_selection_reduces_to_plain_identity(self):
        rep = verify("main", 2, (2, 1, 1))
        assert rep.holds
        assert rep.identity == "main"
        assert rep.params["extra"]["pairing"] == []

    def test_small_grid(self):
        for n in (1, 2):
            for a in itertools.product(range(3), repeat=n + 1):
                insts = list(all_layouts(n, a, mmin=0))
                source = shared_source(insts)
                for inst in insts:
                    rep = verify_paired(compiled(inst), source)
                    assert rep.holds, inst

    def test_semantics_divergence_instance(self, monkeypatch):
        """An instance that holds, and fails under the refuted "set" reading."""
        instance = (2, (1, 0, 1), (0, 2), (1, 1))
        rep = verify("main", *instance)
        assert rep.holds
        assert rep.params["extra"]["semantics"] == "multiset"
        use_set_reading(monkeypatch)
        assert not verify("main", *instance).holds

    def test_rejects_crossing_pairing(self):
        inst = Instance(6, (1,) * 7, (2, 5, 6), (0, 1, 3))
        with pytest.raises(NpcViolationError):
            verify_paired(compiled(inst), shared_source([inst]))

    def test_reads_the_verdict_compiled_into_the_layout(self, monkeypatch):
        """The check reads ``Layout.npc``, which ``compile_layout`` set,
        and runs no crossing test of its own; a crossing layout is rejected
        before the source is touched."""

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"read {name}")

        crossing = compile_layout(6, (2, 5, 6), (0, 1, 3))
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        layout, source = compiled(inst), shared_source([inst])
        assert layout.npc and not crossing.npc
        monkeypatch.setattr("qdyson.paired.npc_holds", None)
        assert verify_paired(layout, source).holds
        with pytest.raises(NpcViolationError):
            verify_paired(crossing, Untouchable())

    def test_where_main_holds_without_the_no_crossing_condition(self):
        """Conjecture: on a layout with the crossing pattern, ``main`` holds
        at a if and only if no crossing triple, positions s < t < u with
        j_t < i_s < j_u < i_t, has a_(i_s), a_(i_t) and a_(i_u) all
        positive.  The check is forced past its refusal by compiling the
        layout with ``npc`` set; the headroom bound of ``paired_reads``
        does not use the condition, so these checks stay exact.  Every
        crossing layout of two grids, one source per a over the union of
        their boxes: n = 4 with a_k <= 2 (one layout, 171 hold, 72 fail)
        and n = 5 with a_k <= 1 (11 layouts, 604 hold, 100 fail)."""
        for n, amax, counts in ((4, 2, (1, 171, 72)), (5, 1, (11, 604, 100))):
            crossing = [replace(compile_layout(n, I, J), npc=True)
                        for I, J in layout_grid(n, 1, n) if not npc_holds(I, J)]
            triples = [crossing_triples(layout) for layout in crossing]
            los, his = zip(*(layout.box for layout in crossing))
            lo, hi = tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))
            held = failed = 0
            for a in itertools.product(range(amax + 1), repeat=n + 1):
                source = q_dyson_source(Instance(n, a), lo, hi, 1)
                for layout, crossed in zip(crossing, triples):
                    rep = verify_paired(layout, source)
                    rule = not any(a[x] and a[y] and a[z] for x, y, z in crossed)
                    assert rep.holds == rule, (layout.I, layout.J, a)
                    held += rep.holds
                    failed += not rep.holds
            assert (len(crossing), held, failed) == counts

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Instance(2, (1, 1), (0,), (1,))
        inst = Instance(2, (1, 1, 1), (0,), (1,))
        layout = compiled(inst)
        with pytest.raises(ValueError):  # packed without the check's headroom
            verify_paired(layout, q_dyson_source(inst, *layout.box))


def positional_removal_exponent(inst, U, i_v, s):
    """The removal exponent in the paper's positional form, for the s-th
    unselected index: with t_1 < ... < t_{m-d} the 1-based positions of
    I \\ U, v the position of i_v and j* the j paired at position t_s,

        - sum_{k=v..s-1}   [i_{t_k} > j* > i_v] * a_{i_{t_k}}
        + sum_{k=s+1..m-d} [not (i_{t_k} > j* > i_v)] * a_{i_{t_k}}

    The oracle the by-value ``removal_exponent`` is checked against."""
    uset = set(U)
    tpos = [p for p in range(1, inst.m + 1) if inst.I[p - 1] not in uset]
    v = inst.I.index(i_v) + 1
    j_star = inst.J[tpos[s - 1] - 1]
    acc = 0
    for k in range(v, s):
        ik = inst.I[tpos[k - 1] - 1]
        if ik > j_star > i_v:
            acc -= inst.a[ik]
    for k in range(s + 1, len(tpos) + 1):
        ik = inst.I[tpos[k - 1] - 1]
        if not (ik > j_star > i_v):
            acc += inst.a[ik]
    return acc


class TestRemovalExponent:
    def test_single_unselected_index_gives_zero(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 3))
        assert removal_exponent(inst, (0,), 0, 2) == 0

    def test_preconditions(self):
        """Each call breaks exactly one precondition of the valid first one."""
        inst = Instance(4, (1,) * 5, (0, 2, 3), (1, 4, 4))
        removal_exponent(inst, (2,), 0, 3)
        with pytest.raises(ValueError):
            removal_exponent(inst, (2,), 1, 3)  # floor not selected
        with pytest.raises(ValueError):
            removal_exponent(inst, (0,), 2, 3)  # floor above min U
        with pytest.raises(ValueError):
            removal_exponent(inst, (2, 3), 0, 3)  # x in U
        with pytest.raises(ValueError):
            removal_exponent(inst, (3,), 2, 0)  # x not above the floor

    def test_matches_the_positional_form(self):
        """On every layout with 2 <= m <= n <= 5, for every nonempty U, floor
        i_v <= min U and unselected x above it, at a = (1, ..., 1),
        (0, 1, ..., n) and its reverse, the by-value exponent is the
        positional one at the rank s of x in I \\ U."""
        cases = 0
        for n in range(2, 6):
            avecs = ((1,) * (n + 1), tuple(range(n + 1)), tuple(range(n, -1, -1)))
            for I, J in layout_grid(n, 2, n):
                for a in avecs:
                    inst = Instance(n, a, I, J)
                    for U in nonempty_subsets(I):
                        rest = [y for y in I if y not in U]
                        for i_v in (i for i in I if i <= min(U)):
                            for x in (y for y in rest if y > i_v):
                                s = rest.index(x) + 1
                                g = removal_exponent(inst, U, i_v, x)
                                assert g == positional_removal_exponent(inst, U, i_v, s), (
                                    inst, U, i_v, x,
                                )
                                cases += 1
        assert cases == 14121

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_is_the_exponent_increment(self, data):
        """Joining one unselected index to any eligible superset shifts the
        combined exponent by exactly the removal exponent."""
        inst = data.draw(paired_layers(mmin=2))
        m = inst.m
        d = data.draw(st.integers(1, m - 1))
        U = tuple(sorted(data.draw(st.permutations(inst.I))[:d]))
        floors = [i for i in inst.I if i <= min(U)]
        i_v = data.draw(st.sampled_from(floors))
        later = [y for y in inst.I if y > i_v and y not in U]
        if not later:
            return
        x = data.draw(st.sampled_from(later))
        cands = [y for y in later if y != x]
        extra = data.draw(st.permutations(cands))[
            : data.draw(st.integers(0, len(cands)))
        ]
        without = tuple(sorted(set(U) | {i_v} | set(extra)))
        joined = tuple(sorted(set(without) | {x}))

        def combined(S):
            return chain_at(inst, S) + exponent_within(inst, U, S)

        g = removal_exponent(inst, U, i_v, x)
        assert combined(joined) - combined(without) == g


class TestFactorization:
    def test_empty_residual_right_side_is_one_power(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        left, right, residual = factorization_sides(inst, (1,), 0)
        assert residual == ()
        assert right.coeffs in ((1,), (-1,))
        assert left == right

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sides_agree(self, data):
        inst = data.draw(paired_layers(mmin=2))
        m = inst.m
        d = data.draw(st.integers(1, m - 1))
        U = tuple(sorted(data.draw(st.permutations(inst.I))[:d]))
        floors = [i for i in inst.I if i <= min(U)]
        i_v = data.draw(st.sampled_from(floors))
        rep = verify_factorization(inst, U, i_v)
        assert rep.holds, rep.to_dict()

    def test_report_flags_residual_vanishing(self):
        # NPC layer with a strictly later unselected index: product must vanish
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 1))
        rep = verify_factorization(inst, (0,), 0)
        assert rep.params["extra"]["npc"] is True
        assert rep.params["extra"]["residual"] == [2]
        assert rep.holds
        assert rep.rhs == "0"


class TestTailCancel:
    def test_values_match_prediction(self):
        a = (1, 2, 1, 1)
        inst = Instance(3, a, (0, 1, 2), (3, 3, 3))
        for h in (2, 3):
            bare, joined, expected = tail_cancel_values(inst, h)
            assert bare == joined == expected
            U = inst.I[h - 1 :]
            assert expected == 1 + sum(a) - sum(a[u] for u in U)
            rep = verify_tail_cancel(inst, h)
            assert rep.holds
            assert (rep.lhs, rep.rhs) == (f"{bare},{joined}", str(expected))

    def test_needs_room_for_the_previous_index(self):
        inst = Instance(2, (1, 1, 1), (0,), (1,))
        with pytest.raises(ValueError):
            tail_cancel_values(inst, 2)

    @given(paired_layers(mmin=2))
    @settings(max_examples=80, deadline=None)
    def test_holds_on_random_layers(self, inst):
        for h in range(2, inst.m + 1):
            assert verify_tail_cancel(inst, h).holds


def cancellation_sum(inst, U):
    """Inner sum of the expanded identity for a fixed nonempty subset U: the
    left factorization sides summed over all floors i_v <= min U.  Under the
    no-crossing condition this vanishes for every U except the full
    selection."""
    floors = [i_v for i_v in inst.I if i_v <= min(U)]
    return sum((factorization_sides(inst, U, i_v)[0] for i_v in floors), ZERO)


class TestCancellationSum:
    def test_only_the_full_selection_survives(self):
        """Under the no-crossing condition, the inner sum vanishes for every
        proper nonempty subset and leaves a single q-power for the full one."""
        for a in itertools.product(range(3), repeat=3):
            for inst in all_layouts(2, a):
                for U in nonempty_subsets(inst.I):
                    total = cancellation_sum(inst, U)
                    if U == inst.I:
                        expected = q_power(1 + sum(a) - sum(a[i] for i in inst.I))
                        assert total == expected, (inst, U)
                    else:
                        assert total.is_zero(), (inst, U)

    @given(paired_layers(nmax=5, amax=3))
    @settings(max_examples=40, deadline=None)
    def test_random_layers(self, inst):
        if not npc_holds(inst.I, inst.J):
            return
        a = inst.a
        for U in nonempty_subsets(inst.I):
            total = cancellation_sum(inst, U)
            if U == inst.I:
                assert total == q_power(1 + sum(a) - sum(a[i] for i in inst.I))
            else:
                assert total.is_zero()


class TestChoiceProducts:
    def test_holds_for_small_sizes(self):
        for n in (2, 3, 4, 5):
            assert matrix_choice_property(n)

    def test_too_small(self):
        with pytest.raises(ValueError):
            matrix_choice_property(1)
