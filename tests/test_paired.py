"""Paired-layer identity, its exponent machinery, and the supporting
combinatorial statements."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyson.dyson import Instance, q_dyson_source
from qdyson.firstlayer import layer_exponent_general, nonempty_subsets
from qdyson.paired import (
    NpcViolationError,
    cancellation_sum,
    chain_exponent,
    chain_j_values,
    correction_polynomial,
    factorization_sides,
    insertion_chain,
    matrix_choice_property,
    npc_holds,
    removal_exponent,
    sub_layer,
    tail_cancel_values,
    verify_factorization,
    verify_paired,
    verify_tail_cancel,
    _t_positions,
)
from qdyson.qpoly import QPoly, q_power
from tests.test_firstlayer import all_layouts


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


class TestPairedLayer:
    def test_pairing_is_positional(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 3))
        assert inst.pairs == ((0, 1), (2, 3))
        assert inst.position(2) == 2
        assert inst.J[2 - 1] == 3
        assert inst.paired_js((2, 0)) == [1, 3]

    def test_paired_js_keeps_multiplicity(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        assert inst.paired_js((0, 1)) == [2, 2]


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


class TestInsertionChain:
    def test_structure(self):
        inst = Instance(4, (1,) * 5, (0, 2, 3), (1, 1, 4))
        cd = insertion_chain(inst, (2,))
        assert cd.removed_positions == (1, 3)
        assert cd.chain == (
            frozenset({0, 2, 3}),
            frozenset({2, 3}),
            frozenset({2}),
        )

    def test_full_subset_has_empty_chain_tail(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        cd = insertion_chain(inst, (0, 1))
        assert cd.removed_positions == ()
        assert cd.chain == (frozenset({0, 1}),)

    def test_rejects_foreign_indices(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        with pytest.raises(ValueError):
            insertion_chain(inst, (2,))

    @given(paired_layers())
    @settings(max_examples=60, deadline=None)
    def test_chain_descends_to_subset(self, inst):
        for subset in nonempty_subsets(inst.I):
            cd = insertion_chain(inst, subset)
            assert cd.chain[0] == frozenset(inst.I)
            assert cd.chain[-1] == frozenset(subset)
            for k, pos in enumerate(cd.removed_positions, start=1):
                assert cd.chain[k - 1] == cd.chain[k] | {inst.I[pos - 1]}


class TestChainJValues:
    def test_semantics_differ_on_repeated_j(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        assert chain_j_values(inst, (1,), 1, "multiset") == (2, 2)
        assert chain_j_values(inst, (1,), 1, "set") == (2,)

    def test_values_below_floor_are_dropped(self):
        inst = Instance(3, (1, 1, 1, 1), (2, 3), (0, 1))
        assert chain_j_values(inst, (3,), 1) == ()

    def test_step_out_of_range(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        with pytest.raises(ValueError):
            chain_j_values(inst, (0, 1), 1)
        with pytest.raises(ValueError):
            chain_j_values(inst, (1,), 2)

    def test_bad_semantics(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        with pytest.raises(ValueError):
            chain_j_values(inst, (1,), 1, "bag")


class TestChainExponent:
    def test_known_value(self):
        inst = Instance(2, (1, 1, 1), (0,), (2,))
        assert chain_exponent(inst, (0,)) == 2

    def test_rejects_empty_subset(self):
        inst = Instance(2, (1, 1, 1), (0,), (2,))
        with pytest.raises(ValueError):
            chain_exponent(inst, ())

    @given(paired_layers())
    @settings(max_examples=100, deadline=None)
    def test_full_selection_combined_exponent(self, inst):
        """C(I) + L*(I|I) collapses to 1 + total - sum of a over I."""
        a = inst.a
        combined = chain_exponent(inst, inst.I) + layer_exponent_general(
            inst.I, sub_layer(inst, inst.I)
        )
        assert combined == 1 + sum(a) - sum(a[i] for i in inst.I)


class TestCorrectionPolynomial:
    def test_empty_selection_is_one(self):
        poly = correction_polynomial(Instance(2, (1, 1, 1)))
        assert poly.render() == "(1)"

    def test_single_pair(self):
        poly = correction_polynomial(Instance(2, (1, 1, 1), (0,), (2,)))
        assert poly.num_terms() == 2
        assert poly.coeff((0, 0, 0)) == QPoly(0, (1,))
        assert poly.coeff((-1, 0, 1)) == q_power(2, -1)

    def test_two_pairs_signs(self):
        inst = Instance(2, (1, 1, 1), (0, 1), (2, 2))
        poly = correction_polynomial(inst)
        assert poly.num_terms() == 4
        assert poly.coeff((0, 0, 0)) == QPoly(0, (1,))
        assert poly.coeff((-1, 0, 1)) == q_power(chain_exponent(inst, (0,)), -1)
        assert poly.coeff((0, -1, 1)) == q_power(chain_exponent(inst, (1,)), -1)
        assert poly.coeff((-1, -1, 2)) == q_power(chain_exponent(inst, (0, 1)), 1)


class TestVerifyPaired:
    def test_known_holding_instances(self):
        a = (1, 1, 1)
        assert verify_paired(Instance(2, a, (0,), (1,))).holds
        assert verify_paired(Instance(2, a, (0, 1), (2, 2))).holds

    def test_empty_selection_reduces_to_plain_identity(self):
        rep = verify_paired(Instance(2, (2, 1, 1)))
        assert rep.holds
        assert rep.identity == "main"
        assert rep.params["extra"]["pairing"] == []

    def test_small_grid(self):
        for n in (1, 2):
            for a in itertools.product(range(3), repeat=n + 1):
                source = q_dyson_source(Instance(n, a), expand=True)
                for inst in all_layouts(n, a, mmin=0):
                    rep = verify_paired(inst, source=source)
                    assert rep.holds, inst

    def test_semantics_divergence_instance(self):
        inst = Instance(2, (1, 0, 1), (0, 2), (1, 1))
        assert verify_paired(inst, "multiset").holds
        rep = verify_paired(inst, "set")
        assert not rep.holds
        assert rep.params["extra"]["semantics"] == "set"

    def test_rejects_crossing_pairing(self):
        inst = Instance(6, (1,) * 7, (2, 5, 6), (0, 1, 3))
        with pytest.raises(NpcViolationError):
            verify_paired(inst)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            verify_paired(Instance(2, (1, 1, 1), (0,), (1,)), semantics="bag")
        with pytest.raises(ValueError):
            verify_paired(Instance(2, (1, 1), (0,), (1,)))


class TestRemovalExponent:
    def test_single_unselected_index_gives_zero(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 3))
        assert removal_exponent(inst, (0,), 0, 1) == 0

    def test_preconditions(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 3))
        with pytest.raises(ValueError):
            removal_exponent(inst, (0,), 1, 1)  # floor not selected
        with pytest.raises(ValueError):
            removal_exponent(inst, (0,), 2, 1)  # floor above min U
        with pytest.raises(ValueError):
            removal_exponent(inst, (0,), 0, 2)  # s out of range

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
        v = inst.position(i_v)
        tpos = _t_positions(inst, U)
        later = [(s, p) for s, p in enumerate(tpos, start=1) if p > v]
        if not later:
            return
        s, p = data.draw(st.sampled_from(later))
        x = inst.I[p - 1]
        cands = [y for y in inst.I if y > i_v and y not in set(U) and y != x]
        extra = data.draw(st.permutations(cands))[
            : data.draw(st.integers(0, len(cands)))
        ]
        without = tuple(sorted(set(U) | {i_v} | set(extra)))
        joined = tuple(sorted(set(without) | {x}))

        def combined(S):
            return chain_exponent(inst, S) + layer_exponent_general(U, sub_layer(inst, S))

        g = removal_exponent(inst, U, i_v, s)
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
