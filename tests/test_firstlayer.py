"""Layer coefficients: exponent formulas, closed forms, q = 1 specialisation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyson.dyson import Instance, q_dyson_source
from qdyson.firstlayer import (
    count_upto,
    first_layer_brute,
    first_layer_closed,
    first_layer_closed_q1,
    first_layer_target,
    layer_exponent,
    layer_exponent_general,
    nonempty_subsets,
    verify_first_layer,
    weight_vector,
)
from qdyson.qpoly import QPoly, QRat
from tests.test_dyson import classical_source


def all_layouts(n, a, mmin=1, mmax=None):
    """The instance of a with every valid (I, J) pair over x_0..x_n with
    mmin <= m <= mmax."""
    if mmax is None:
        mmax = n
    indices = range(n + 1)
    for m in range(mmin, mmax + 1):
        for I in itertools.combinations(indices, m):
            rest = sorted(set(indices) - set(I))
            for J in itertools.combinations_with_replacement(rest, m):
                yield Instance(n, a, I, J)


class TestLayerSpec:
    """Layer checks of ``Instance``; the checks on n and a are
    ``test_dyson::test_spec_validation``."""

    def test_valid(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 1))
        assert inst.m == 2

    @pytest.mark.parametrize(
        "n,I,J",
        [
            (2, (0, 1), (2,)),  # length mismatch
            (2, (0, 1, 2), (0, 1, 2)),  # m > n (and overlap)
            (2, (1, 0), (2, 2)),  # I not increasing
            (2, (0,), (3,)),  # out of range
            (3, (0, 1), (3, 2)),  # J decreasing
            (2, (0,), (0,)),  # overlap
            (2, (0, 0), (1, 2)),  # repeated I
        ],
    )
    def test_invalid(self, n, I, J):
        with pytest.raises(ValueError):
            Instance(n, (1,) * (n + 1), I, J)

    def test_m_zero_is_a_valid_layout(self):
        assert Instance(2, (1, 1, 1), (), ()).m == 0


def test_count_upto():
    assert count_upto(2, (0, 1, 3)) == 2
    assert count_upto(2, (2, 2, 3)) == 2
    assert count_upto(-1, (0, 1)) == 0


def test_weight_vector():
    assert weight_vector((1, 2, 3), ()) == (1, 2, 3)
    assert weight_vector((1, 2, 3), (1,)) == (1, 0, 3)
    assert weight_vector((1, 2, 3), (0, 1, 2)) == (0, 0, 0)


def test_nonempty_subsets_order():
    assert list(nonempty_subsets((0, 2, 5))) == [
        (0,), (2,), (5,), (0, 2), (0, 5), (2, 5), (0, 2, 5),
    ]


class TestExponents:
    def test_known_values(self):
        a = (1, 1, 1)
        assert layer_exponent((0,), Instance(2, a, (0,), (1,))) == 0
        assert layer_exponent((0,), Instance(2, a, (0,), (2,))) == 1

    def test_known_values_general(self):
        a = (1, 1, 1)
        assert layer_exponent_general((1,), Instance(2, a, (1,), (0,))) == 2
        assert layer_exponent_general((2,), Instance(2, a, (2,), (0,))) == 1

    def test_requires_nonempty_subset(self):
        inst = Instance(2, (1, 1, 1), (0,), (1,))
        with pytest.raises(ValueError):
            layer_exponent((), inst)
        with pytest.raises(ValueError):
            layer_exponent_general((), inst)

    def test_restricted_form_needs_zero_start(self):
        with pytest.raises(ValueError):
            layer_exponent((1,), Instance(2, (1, 1, 1), (1,), (0,)))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_general_form_extends_restricted(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, n))
        others = data.draw(
            st.lists(
                st.integers(1, n), min_size=m - 1, max_size=m - 1, unique=True
            )
        )
        I = tuple(sorted([0] + others))
        rest = sorted(set(range(n + 1)) - set(I))
        J = tuple(
            sorted(
                data.draw(
                    st.lists(st.sampled_from(rest), min_size=m, max_size=m)
                )
            )
        )
        a = tuple(data.draw(st.integers(0, 5)) for _ in range(n + 1))
        inst = Instance(n, a, I, J)
        for T in nonempty_subsets(I):
            assert layer_exponent(T, inst) == layer_exponent_general(T, inst)


def test_target_vector():
    assert first_layer_target(Instance(3, (1, 1, 1, 1), (0, 2), (1, 1))) == (1, -2, 1, 0)
    assert first_layer_target(Instance(2, (1, 1, 1))) == (0, 0, 0)


class TestClosedForm:
    def test_rejects_empty_layer(self):
        inst = Instance(2, (1, 1, 1))
        with pytest.raises(ValueError):
            first_layer_closed(inst)
        with pytest.raises(ValueError):
            first_layer_closed_q1(inst)

    def test_verify_rejects_empty_layer_before_extraction(self):
        class Unreadable:
            def coeff(self, target):
                raise AssertionError("extracted a coefficient")

        with pytest.raises(ValueError):
            verify_first_layer(Instance(2, (1, 1, 1)), Unreadable())

    def test_known_coefficient(self):
        inst = Instance(2, (1, 1, 1), (0,), (1,))
        brute = first_layer_brute(inst)
        assert brute == QPoly(0, (-1, -1))
        assert brute.render() == "-1 - 1*q"
        assert QRat(brute) == first_layer_closed(inst)

    def test_known_coefficient_with_offset_start(self):
        # smallest selected index > 0 exercises the t > 0 branch
        inst = Instance(2, (1, 1, 1), (1,), (0,))
        brute = first_layer_brute(inst)
        assert brute == QPoly(2, (-1, -1))
        assert QRat(brute) == first_layer_closed(inst)

    def test_brute_matches_closed_small_grid(self):
        for n in (1, 2):
            for a in itertools.product(range(3), repeat=n + 1):
                source = q_dyson_source(Instance(n, a), expand=True)
                for inst in all_layouts(n, a):
                    brute = first_layer_brute(inst, source)
                    assert QRat(brute) == first_layer_closed(inst), inst


class TestQ1:
    def test_known_values(self):
        a = (1, 1, 1)
        classical = classical_source(Instance(2, a))
        for inst, value in ((Instance(2, a, (0,), (1,)), -2), (Instance(2, a, (0, 1), (2, 2)), 2)):
            assert first_layer_closed_q1(inst) == Fraction(value)
            assert first_layer_brute(inst).at_q1() == value
            assert classical.coeff(first_layer_target(inst)).as_int() == value

    def test_independent_of_j(self):
        """At q = 1 the coefficient depends on the layout only through I."""
        for n in (2, 3):
            for a in itertools.product(range(3), repeat=n + 1):
                source = classical_source(Instance(n, a), expand=True)
                seen = {}
                for inst in all_layouts(n, a):
                    value = source.coeff(first_layer_target(inst)).as_int()
                    closed = first_layer_closed_q1(inst)
                    assert value == closed, inst
                    if inst.I in seen:
                        assert seen[inst.I] == value, inst
                    else:
                        seen[inst.I] = value


def test_verify_report():
    rep = verify_first_layer(Instance(2, (1, 1, 1), (0,), (1,)))
    assert rep.holds
    assert rep.identity == "firstlayer"
    assert rep.lhs == "-1 - 1*q"
    assert rep.params["extra"] == {"q1_brute": "-2", "q1_closed": "-2"}
