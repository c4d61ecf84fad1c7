"""Corrected Dyson constant terms and the failure of the q-modification."""

import itertools
import json
import time
from fractions import Fraction

import pytest

from qdyson import cli, kadell
from qdyson.dyson import Instance, q_dyson_factors, q_dyson_source
from qdyson.kadell import (
    corrected_ct,
    corrected_dyson_rhs,
    modified_q_product,
    reproduce_counterexample,
    verify_q_kadell,
)
from qdyson.laurent import FactoredProduct, ct_of_factor_list, expand_product
from qdyson.paired import compile_layout, paired_reads
from qdyson.qpoly import QPoly, one_minus_q, q_multinomial_poly, q_power
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
from tests.test_sweeps import _Unread


def corrected_ct_closed(a, layout):
    """Closed form of the corrected constant term itself, at a on the
    compiled layout:

        (1 + (sum of a over I) / (1 + total - sum of a over I)) * multinomial(a)

    Only defined for nonempty I.  The check compares the scaled identity
    instead, and renders this value's text in ``extra``.
    """
    if not layout.I:
        raise ValueError("layer must select at least one index")
    return Fraction(corrected_dyson_rhs(a), 1 + sum(a) - sum(a[i] for i in layout.I))


def verify_kadell_oracle(a, layout, source):
    """The kadell check reading the whole box of ``source`` unpacked at
    once and adding the coefficients at the flipped monomials at q = 1, one
    by one.  ``verify_kadell``, which adds them packed and unpacks the sum,
    must give the same report, ``elapsed_ms`` apart."""
    t0 = time.perf_counter()
    ct = sum(sign * source.expanded.coeff(flipped).at_q1() for _, flipped, sign, _ in layout.subsets)
    lhs = (1 + sum(a) - sum(a[i] for i in layout.I)) * ct
    closed = corrected_ct_closed(a, layout) if layout.I else None
    holds = lhs == corrected_dyson_rhs(a) and (closed is None or closed == ct)
    extra = {"ct": str(ct)} if closed is None else {"ct": str(ct), "ct_closed": str(closed)}
    return report("kadell", a, layout, t0, holds, lhs, corrected_dyson_rhs(a), lambda: extra)


def verify_q_kadell_oracle(inst):
    """The naive q-analog on the modified product itself: its factors built
    with the raised lengths, its own box pass to the origin, and both sides
    as ``QPoly`` products.  ``verify_q_kadell``, which reads the q-Dyson
    product's flipped monomials under the naive weights, must give the
    same report, ``elapsed_ms`` apart."""
    t0 = time.perf_counter()
    ct = ct_of_factor_list(modified_q_product(inst), (0,) * (inst.n + 1))
    lhs = one_minus_q(1 + inst.total - sum(inst.a[i] for i in inst.I)) * ct
    rhs = one_minus_q(1 + inst.total) * q_multinomial_poly(inst.a)
    return report("qkadell", inst.a, inst, t0, lhs == rhs, lhs, rhs, lambda: {"ct": ct.render()})


def naive_check(inst):
    """``verify_q_kadell`` on the instance's layout, on the q-Dyson product
    of its a packed as ``paired_reads`` names."""
    layout = compiled(inst)
    return verify_q_kadell(layout, q_dyson_source(inst, *paired_reads(layout)))


def naive_grid(n, amax, mmin=1):
    """(instance, ``verify_q_kadell`` report) for every layout over
    x_0..x_n with m >= mmin, crossing ones included, and every a with each
    a_k <= amax: one q-Dyson source per a, over the bounding box of the
    layouts' boxes, with the headroom ``paired_reads`` names."""
    layouts = [compiled(inst) for inst in all_layouts(n, (0,) * (n + 1), mmin)]
    lo = tuple(map(min, zip(*(lay.box[0] for lay in layouts))))
    hi = tuple(map(max, zip(*(lay.box[1] for lay in layouts))))
    headroom = max(paired_reads(lay)[2] for lay in layouts)
    for a in itertools.product(range(amax + 1), repeat=n + 1):
        source = q_dyson_source(Instance(n, a), lo, hi, headroom)
        for lay in layouts:
            yield Instance(n, a, lay.I, lay.J), verify_q_kadell(lay, source)


def stripped(rep):
    """The report's JSON line without ``elapsed_ms``."""
    fields = rep.to_dict()
    del fields["elapsed_ms"]
    return dumps(fields)


def cyclic_arc_rule(inst):
    """Whether the naive q-analog holds at inst by the conjectured rule of
    ``test_where_the_naive_q_analog_holds``."""
    size, a, partner = inst.n + 1, inst.a, dict(inst.pairs)

    def arc(lo, hi):  # the open cyclic arc lo + 1, ..., hi - 1 modulo n + 1
        return {(lo + d) % size for d in range(1, (hi - lo) % size)}

    return all(
        a[x] == 0 or (x in partner and partner[x] not in arc(x, i))
        for i, j in inst.pairs
        if a[i] > 0
        for x in arc(j, i)
    )


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
        packed, _, k = shared_source([inst]).reads(*compiled(inst).box)
        assert corrected_ct(compiled(inst), packed, k) == value
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
                packed, _, k = source.reads(*compiled(inst).box)
                ct = corrected_ct(compiled(inst), packed, k)
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
        rep = naive_check(Instance(2, (1, 1, 1)))
        assert rep.holds
        assert rep.identity == "qkadell"

    def test_fails_on_pinned_instance(self):
        rep = naive_check(Instance(2, (1, 1, 1), (0,), (1,)))
        assert not rep.holds

    def test_matches_the_oracle(self):
        """On every layout, crossing ones and the empty one included, of
        n <= 3 with each a_k <= 2 and of n = 2 with each a_k <= 3, the
        check on the shared q-Dyson source gives the report of the modified
        product's own pass, ``elapsed_ms`` apart."""
        compared = 0
        for n, amax in ((0, 2), (1, 2), (2, 3), (3, 2)):
            for inst, rep in naive_grid(n, amax, mmin=0):
                assert stripped(rep) == stripped(verify_q_kadell_oracle(inst)), inst
                compared += 1
        assert compared == 3 * 1 + 9 * 3 + 64 * 10 + 81 * 35

    def test_refuses_a_source_it_may_not_read_before_any_read(self):
        """The check raises ``ValueError`` before it reads a coefficient
        from the modified product of the same a over the same box, which
        records no a, and from the q-Dyson product packed with no spare
        bit; the q-Dyson product packed as ``paired_reads`` names serves
        it."""
        inst = Instance(3, (1, 2, 1, 1), (0, 2), (1, 1))
        layout = compiled(inst)
        *box, headroom = paired_reads(layout)
        assert headroom == 1
        sources = [
            (FactoredProduct(3, modified_q_product(inst), *box, headroom), "no q-Dyson product"),
            (q_dyson_source(inst, *box, 0), "spare bits"),
        ]
        for source, message in sources:
            source.packed = _Unread(source.packed)
            with pytest.raises(ValueError, match=message):
                verify_q_kadell(layout, source)
        assert naive_check(inst).identity == "qkadell"

    def test_another_ct_of_the_modified_product_is_not_confirmed(self, monkeypatch, capsys):
        """The modified product's own pass is the counterexample's
        independent path: were its constant term another, the failure
        would not be confirmed, and ``qdyson counterexample`` exits 1."""
        monkeypatch.setattr(kadell, "ct_of_factor_list", lambda pairs, target: QPoly(0, (1, 2, 3)))
        assert reproduce_counterexample().extra["confirmed"] is False
        assert cli.main(["counterexample"]) == 1
        assert "UNEXPECTED" in capsys.readouterr().out

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

        def recording(layout, source):
            rep = verify_q_kadell(layout, source)
            built.append((rep, rep.to_json()))
            return rep

        monkeypatch.setattr("qdyson.kadell.verify_q_kadell", recording)
        rep = reproduce_counterexample()
        ((checked, line),) = built
        assert checked.params["extra"] == {"ct": "1 + 2*q + 3*q^2 + 2*q^3"}
        assert checked.to_json() == dumps(checked.to_dict()) == line
        assert rep is not checked and rep.params["extra"]["confirmed"] is True
        assert json.loads(rep.to_json())["params"]["extra"]["expected_failure"] is True

    @pytest.mark.parametrize(
        "n, amax, held, instances",
        [(2, 2, 207, 243), (2, 3, 468, 576), (3, 2, 1878, 2754), (4, 1, 2762, 4000),
         (2, 5, 1494, 1944)],
    )
    def test_where_the_naive_q_analog_holds(self, n, amax, held, instances):
        """Where the naive q-analog fails: over every layout with m >= 1,
        crossing or not, and every a with each a_k <= amax, it holds on
        ``held`` of the ``instances``, and on each of them exactly as a
        cyclic-arc rule predicts.

        Conjecture (the cyclic-arc rule).  Read indices modulo n + 1, and
        for a pair (i, j) of the layer let A(i, j) be the open cyclic arc
        j + 1, j + 2, ..., i - 1.  The naive identity holds at a if and
        only if, for every pair (i, j) with a_i > 0, every x in A(i, j)
        with a_x > 0 is in I, and its own partner j_x is not in the open
        arc x + 1, ..., i - 1.

        It holds on every instance of three families, which the rule
        contains:

        - the sum of a over I is 0;
        - at most one a_k is nonzero;
        - m = n.  Then I is every index but one, j, and J = (j, ..., j),
          as J avoids I.  The pairs are (i, j) for every i != j, so the
          modified product raises by one the length a_j of each factor
          (x_j/x_i; q) or (q x_j/x_i; q), i != j, and no other length: it
          is the q-Dyson product D(a + e_j).  Its constant term is the
          q-multinomial of a + e_j, qmult(a) (1 - q^(1 + total)) /
          (1 - q^(1 + a_j)).  As 1 + total - (sum of a over I) = 1 + a_j,
          the left side is (1 - q^(1 + a_j)) times that, which is the
          right side (1 - q^(1 + total)) qmult(a).  In the rule, every
          arc A(i, j) lies in I and every partner is j, which lies past i.
        """
        count = holding = 0
        for inst, rep in naive_grid(n, amax):
            a = inst.a
            count, holding = count + 1, holding + rep.holds
            assert rep.holds == cyclic_arc_rule(inst), inst
            family = sum(a[i] for i in inst.I) == 0 or sum(map(bool, a)) <= 1 or inst.m == n
            assert rep.holds or not family, inst
        assert (holding, count) == (held, instances)

    def test_counterexample_ct_recomputed_from_product(self):
        factors = modified_q_product(Instance(2, (1, 1, 1), (0,), (1,)))
        ct = ct_of_factor_list(factors, (0, 0, 0))
        assert ct == QPoly(0, (1, 2, 3, 2))
