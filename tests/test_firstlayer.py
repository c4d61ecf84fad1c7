"""Layer coefficients: exponent formulas, closed forms, q = 1 specialisation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyson.dyson import DysonSpec, q_dyson_source
from qdyson.firstlayer import (
    LayerSpec,
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


def all_layouts(n, mmin=1, mmax=None):
    """Every valid (I, J) pair over x_0..x_n with mmin <= m <= mmax."""
    if mmax is None:
        mmax = n
    indices = range(n + 1)
    for m in range(mmin, mmax + 1):
        for I in itertools.combinations(indices, m):
            rest = sorted(set(indices) - set(I))
            for J in itertools.combinations_with_replacement(rest, m):
                yield LayerSpec(n, I, J)


class TestLayerSpec:
    def test_valid(self):
        spec = LayerSpec(3, (0, 2), (1, 1))
        assert spec.m == 2

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
            LayerSpec(n, I, J)

    def test_m_zero_is_a_valid_layout(self):
        assert LayerSpec(2, (), ()).m == 0


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
        assert layer_exponent((0,), LayerSpec(2, (0,), (1,)), a) == 0
        assert layer_exponent((0,), LayerSpec(2, (0,), (2,)), a) == 1

    def test_known_values_general(self):
        a = (1, 1, 1)
        assert layer_exponent_general((1,), LayerSpec(2, (1,), (0,)), a) == 2
        assert layer_exponent_general((2,), LayerSpec(2, (2,), (0,)), a) == 1

    def test_requires_nonempty_subset(self):
        spec = LayerSpec(2, (0,), (1,))
        with pytest.raises(ValueError):
            layer_exponent((), spec, (1, 1, 1))
        with pytest.raises(ValueError):
            layer_exponent_general((), spec, (1, 1, 1))

    def test_restricted_form_needs_zero_start(self):
        with pytest.raises(ValueError):
            layer_exponent((1,), LayerSpec(2, (1,), (0,)), (1, 1, 1))

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
        spec = LayerSpec(n, I, J)
        for T in nonempty_subsets(I):
            assert layer_exponent(T, spec, a) == layer_exponent_general(T, spec, a)


def test_target_vector():
    assert first_layer_target(LayerSpec(3, (0, 2), (1, 1))) == (1, -2, 1, 0)
    assert first_layer_target(LayerSpec(2, (), ())) == (0, 0, 0)


class TestClosedForm:
    def test_rejects_empty_layer(self):
        spec = LayerSpec(2, (), ())
        with pytest.raises(ValueError):
            first_layer_closed(spec, (1, 1, 1))
        with pytest.raises(ValueError):
            first_layer_closed_q1(spec, (1, 1, 1))

    def test_known_coefficient(self):
        spec = LayerSpec(2, (0,), (1,))
        a = (1, 1, 1)
        brute = first_layer_brute(spec, a)
        assert brute == QPoly(0, (-1, -1))
        assert brute.render() == "-1 - 1*q"
        assert QRat(brute) == first_layer_closed(spec, a)

    def test_known_coefficient_with_offset_start(self):
        # smallest selected index > 0 exercises the t > 0 branch
        spec = LayerSpec(2, (1,), (0,))
        a = (1, 1, 1)
        brute = first_layer_brute(spec, a)
        assert brute == QPoly(2, (-1, -1))
        assert QRat(brute) == first_layer_closed(spec, a)

    def test_brute_matches_closed_small_grid(self):
        for n in (1, 2):
            for a in itertools.product(range(3), repeat=n + 1):
                source = q_dyson_source(DysonSpec(n, a), expand=True)
                for spec in all_layouts(n):
                    brute = first_layer_brute(spec, a, source)
                    assert QRat(brute) == first_layer_closed(spec, a), (spec, a)


class TestQ1:
    def test_known_values(self):
        a = (1, 1, 1)
        classical = classical_source(DysonSpec(2, a))
        for spec, value in ((LayerSpec(2, (0,), (1,)), -2), (LayerSpec(2, (0, 1), (2, 2)), 2)):
            assert first_layer_closed_q1(spec, a) == Fraction(value)
            assert first_layer_brute(spec, a).at_q1() == value
            assert classical.coeff(first_layer_target(spec)).as_int() == value

    def test_independent_of_j(self):
        """At q = 1 the coefficient depends on the layout only through I."""
        for n in (2, 3):
            for a in itertools.product(range(3), repeat=n + 1):
                source = classical_source(DysonSpec(n, a), expand=True)
                seen = {}
                for spec in all_layouts(n):
                    value = source.coeff(first_layer_target(spec)).as_int()
                    closed = first_layer_closed_q1(spec, a)
                    assert value == closed, (spec, a)
                    if spec.I in seen:
                        assert seen[spec.I] == value, (spec, a)
                    else:
                        seen[spec.I] = value


def test_verify_report():
    rep = verify_first_layer(LayerSpec(2, (0,), (1,)), (1, 1, 1))
    assert rep.holds
    assert rep.identity == "firstlayer"
    assert rep.lhs == "-1 - 1*q"
    assert rep.params["extra"] == {"q1_brute": "-2", "q1_closed": "-2"}
