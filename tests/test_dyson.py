"""Dyson products: constructors, constant terms, q = 1 specialisation.

``classical_source`` builds the classical product from repeated binomials.
The program reads classical values off the q-product at q = 1 instead, so this
is the independent oracle the tests compare those values with."""

import itertools

import pytest

from qdyson.dyson import (
    DysonSpec,
    dyson_factors,
    q_dyson_factors,
    q_dyson_source,
    verify_dyson,
    verify_q_dyson,
)
from qdyson.laurent import FactoredProduct, ct_of_factor_list, homogeneous_degree
from qdyson.qpoly import QPoly, QRat, multinomial, q_multinomial


def classical_source(spec, expand=False):
    """The classical Dyson product, built from ``dyson_factors``."""
    return FactoredProduct(spec.n, dyson_factors(spec), expand=expand)


def test_spec_validation():
    with pytest.raises(ValueError):
        DysonSpec(1, (1,))
    with pytest.raises(ValueError):
        DysonSpec(1, (1, -1))
    with pytest.raises(ValueError):
        DysonSpec(-1, ())
    assert DysonSpec(2, (1, 0, 2)).a_total == 3


def test_factor_counts():
    spec = DysonSpec(2, (2, 1, 0))
    assert len(q_dyson_factors(spec)) == 6  # two per unordered pair
    # classical: a_i binomials for each ordered pair (i, j)
    assert len(dyson_factors(spec)) == 2 * 2 + 1 * 2


def test_constant_terms_small():
    values = {
        (1, 1): QPoly(0, (1, 1)),
        (2, 1): QPoly(0, (1, 1, 1)),
        (1, 1, 1): QPoly(0, (1, 2, 2, 1)),
        (2, 1, 1): QPoly(0, (1, 2, 3, 3, 2, 1)),
    }
    for a, expected in values.items():
        spec = DysonSpec(len(a) - 1, a)
        assert q_dyson_source(spec).constant_term() == expected
        assert QRat(expected) == q_multinomial(a)


def test_empty_exponents_give_one():
    spec = DysonSpec(2, (0, 0, 0))
    assert q_dyson_source(spec).constant_term() == QPoly(0, (1,))
    assert classical_source(spec).constant_term() == QPoly(0, (1,))


def test_single_variable_product_is_empty():
    spec = DysonSpec(0, (3,))
    assert q_dyson_factors(spec) == []
    assert verify_dyson(spec).holds
    assert verify_q_dyson(spec).holds


def test_classical_ct_is_multinomial():
    for n in (1, 2):
        for a in itertools.product(range(3), repeat=n + 1):
            spec = DysonSpec(n, a)
            ct = classical_source(spec).constant_term()
            assert ct == QPoly(0, (multinomial(a),)), a


def test_classical_ct_symmetric_in_a():
    for a in itertools.product(range(3), repeat=3):
        base = classical_source(DysonSpec(2, a)).constant_term()
        for perm in itertools.permutations(a):
            assert classical_source(DysonSpec(2, perm)).constant_term() == base


def test_products_are_homogeneous_degree_zero():
    for a in [(1, 1), (2, 1, 1), (1, 0, 2)]:
        spec = DysonSpec(len(a) - 1, a)
        expanded = q_dyson_source(spec, expand=True).expanded
        assert homogeneous_degree(expanded) == 0


def test_q1_specialisation_matches_multinomial():
    """Setting q = 1 factor by factor turns the q-analog into the classical
    product, so the constant term drops to the plain multinomial."""
    grids = [(1, 3), (2, 3), (3, 2)]
    for n, amax_plus_one in grids:
        for a in itertools.product(range(amax_plus_one), repeat=n + 1):
            spec = DysonSpec(n, a)
            factors = [f.eval_q1() for f in q_dyson_factors(spec)]
            ct = ct_of_factor_list(factors, (0,) * (n + 1))
            assert ct.as_int() == multinomial(a), (n, a)


def test_verify_reports():
    rep = verify_q_dyson(DysonSpec(2, (1, 1, 1)))
    assert rep.holds
    assert rep.identity == "qdyson"
    assert rep.lhs == "1 + 2*q + 2*q^2 + 1*q^3"
    assert rep.lhs == rep.rhs
    rep = verify_dyson(DysonSpec(2, (2, 1, 1)))
    assert rep.holds and rep.lhs == "12"

