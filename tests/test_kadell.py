"""Corrected Dyson constant terms and the failure of the q-modification."""

import itertools
import json
import time

import pytest

from qdyson.dyson import Instance, q_dyson_factors
from qdyson.kadell import (
    corrected_ct,
    corrected_ct_closed,
    corrected_dyson_rhs,
    modified_q_product,
    reproduce_counterexample,
    verify_q_kadell,
)
from qdyson.laurent import ct_of_factor_list, expand_product
from qdyson.paired import compile_layout
from qdyson.qpoly import QPoly, q_multinomial_poly, q_power
from qdyson.reports import dumps, report
from qdyson.sweeps import verify
from tests.test_dyson import (
    as_int,
    classical_product,
    compiled,
    correction_factors,
    ct_times,
    layer_sum,
    shared_source,
)
from tests.test_firstlayer import all_layouts


def verify_kadell_oracle(a, layout, source):
    """The kadell check reading the whole box of ``source`` unpacked at
    once and adding the coefficients at the flipped monomials at q = 1, one
    by one.  ``verify_kadell``, which adds them packed and unpacks the sum,
    must give the same report, ``elapsed_ms`` apart."""
    t0 = time.perf_counter()
    ct = sum(sign * source.expanded.coeff(flipped).at_q1() for flipped, sign, _ in layout.subsets)
    lhs = (1 + sum(a) - sum(a[i] for i in layout.I)) * ct
    closed = corrected_ct_closed(a, layout) if layout.I else None
    holds = lhs == corrected_dyson_rhs(a) and (closed is None or closed == ct)
    extra = {"ct": str(ct)} if closed is None else {"ct": str(ct), "ct_closed": str(closed)}
    return report("kadell", a, layout, t0, holds, lhs, corrected_dyson_rhs(a), lambda: extra)


def test_positional_pairs():
    assert Instance(3, (1, 1, 1, 1), (0, 2), (1, 3)).pairs == ((0, 1), (2, 3))
    assert Instance(2, (1, 1, 1)).pairs == ()


def test_correction_factors_terms():
    (factor,) = correction_factors(Instance(2, (1, 1, 1), (0,), (1,)))
    assert factor.terms == {(0, 0, 0): QPoly(0, (1,)), (-1, 1, 0): QPoly(0, (-1,))}


def test_layer_sum_is_the_expanded_correction():
    """With the sign (-1)^|S| the layer sum is the correction binomials
    multiplied out, on every layout with n <= 4."""
    for n in range(5):
        for inst in all_layouts(n, (1,) * (n + 1), mmin=0):
            signed = layer_sum(inst, lambda S: q_power(0, (-1) ** len(S)))
            assert signed == expand_product(correction_factors(inst), n), inst
            assert signed.num_terms() == 2 ** inst.m


def test_layer_monomial():
    inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 1))
    assert inst.layer_monomial(()) == (0, 0, 0, 0)
    assert inst.layer_monomial((2,)) == (0, 1, -1, 0)
    assert inst.layer_monomial((0, 2)) == (-1, 2, -1, 0)
    with pytest.raises(ValueError):
        inst.layer_monomial((1,))


def test_corrected_ct_known_values():
    a = (1, 1, 1)
    for I, J, value in (((0,), (1,), 8), ((0, 1), (2, 2), 12)):
        inst = Instance(2, a, I, J)
        assert corrected_ct(a, compiled(inst), shared_source([inst])) == value
    assert corrected_ct_closed(a, compile_layout(2, (0,), (1,))) == 8
    assert corrected_ct_closed(a, compile_layout(2, (0, 1), (2, 2))) == 12


def test_closed_form_rejects_empty_layer():
    with pytest.raises(ValueError):
        corrected_ct_closed((1, 1, 1), compile_layout(2, (), ()))


def test_empty_layer_reduces_to_plain_product():
    # no correction factors: the scaled identity becomes (1+a) * CT = (1+a) * mult
    inst = Instance(2, (2, 1, 0))
    rep = verify("kadell", inst.n, inst.a)
    assert rep.lhs == rep.rhs == str(corrected_dyson_rhs(inst.a))
    assert rep.holds and "ct_closed" not in rep.params["extra"]


def test_identity_small_grid():
    """corrected_ct reads its value off the q-product at q = 1; it must equal
    the corrected constant term of the binomial product, and satisfy the
    identity."""
    for n in (1, 2, 3):
        for a in itertools.product(range(3 if n < 3 else 2), repeat=n + 1):
            insts = list(all_layouts(n, a, mmin=0))
            source = shared_source(insts)
            classical = classical_product(Instance(n, a))
            for inst in insts:
                ct = corrected_ct(a, compiled(inst), source)
                correction = expand_product(correction_factors(inst), n)
                assert ct == as_int(ct_times(classical, correction)), inst
                scale = 1 + sum(a) - sum(a[i] for i in inst.I)
                assert scale * ct == corrected_dyson_rhs(a), inst
                if inst.m > 0:
                    assert corrected_ct_closed(a, compiled(inst)) == ct, inst


def test_verify_report_fields():
    rep = verify("kadell", 2, (1, 1, 1), (0,), (1,))
    assert rep.holds
    assert rep.identity == "kadell"
    assert rep.lhs == "24" and rep.rhs == "24"
    assert rep.params["extra"] == {"ct": "8", "ct_closed": "8"}


class TestQModification:
    def test_factor_lengths_without_pairs_match_plain_product(self):
        inst = Instance(2, (1, 2, 1))
        ct = ct_of_factor_list(modified_q_product(inst), (0, 0, 0))
        assert ct == q_multinomial_poly(inst.a)

    def test_empty_layer_gives_the_q_dyson_factors(self):
        """Without pairs no length is raised: factor by factor, the modified
        product is the q-Dyson product, for every a in {0,1,2}^(n+1), n <= 3."""
        for n in range(4):
            for a in itertools.product(range(3), repeat=n + 1):
                inst = Instance(n, a)
                assert modified_q_product(inst) == q_dyson_factors(inst), a

    def test_holds_for_empty_layer(self):
        rep = verify_q_kadell(Instance(2, (1, 1, 1)))
        assert rep.holds
        assert rep.identity == "qkadell"

    def test_fails_on_pinned_instance(self):
        rep = verify_q_kadell(Instance(2, (1, 1, 1), (0,), (1,)))
        assert not rep.holds

    def test_counterexample_exact_values(self):
        rep = reproduce_counterexample()
        assert not rep.holds
        assert rep.params["extra"]["confirmed"] is True
        assert rep.params["extra"]["expected_failure"] is True
        assert rep.params["extra"]["ct"] == "1 + 2*q + 3*q^2 + 2*q^3"
        assert rep.lhs == "1 + 2*q + 3*q^2 + 1*q^3 - 2*q^4 - 3*q^5 - 2*q^6"
        assert rep.rhs == "1 + 2*q + 2*q^2 + 1*q^3 - 1*q^4 - 2*q^5 - 2*q^6 - 1*q^7"

    def test_counterexample_leaves_the_checked_report_as_built(self, monkeypatch):
        """The expected failure goes on a new report: the one
        ``verify_q_kadell`` built keeps only ``ct`` in ``extra``, and a
        line it kept stays its own."""
        built = []

        def recording(inst):
            rep = verify_q_kadell(inst)
            built.append((rep, rep.to_json()))
            return rep

        monkeypatch.setattr("qdyson.kadell.verify_q_kadell", recording)
        rep = reproduce_counterexample()
        ((checked, line),) = built
        assert checked.params["extra"] == {"ct": "1 + 2*q + 3*q^2 + 2*q^3"}
        assert checked.to_json() == dumps(checked.to_dict()) == line
        assert rep is not checked and rep.params["extra"]["confirmed"] is True
        assert json.loads(rep.to_json())["params"]["extra"]["expected_failure"] is True

    def test_counterexample_ct_recomputed_from_product(self):
        factors = modified_q_product(Instance(2, (1, 1, 1), (0,), (1,)))
        ct = ct_of_factor_list(factors, (0, 0, 0))
        assert ct == QPoly(0, (1, 2, 3, 2))
