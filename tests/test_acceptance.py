"""End-to-end acceptance gate for the identity-verification stack.

Each criterion prints exactly one summary line (visible with ``pytest -s``):

    criterion N: PASS - <detail>

Every comparison is exact symbolic equality; there are no tolerances.  The
program reads classical values off the q-product at q = 1; criteria 2-5 and
9(c) compare them with the classical product built from repeated binomials
(``classical_product``), an independent path.  The oracles of criteria 2-5
and 9 are expanded outright, without pruning; where the program's source is
shared across layouts, it is read over the box a sweep reads
(``shared_source``), and each check gets its layout compiled (``compiled``).  The
grids are the largest ones that stay desk-checkable: exhaustive small
parameter ranges for the identities themselves, plus seeded randomized suites
for the supporting combinatorial statements.
"""

import ast
import json
import pathlib
import random
import sys
import time

import pytest

from qdyson import cli, sweeps
from qdyson.dyson import Instance, q_dyson_factors
from qdyson.firstlayer import first_layer_closed_q1, verify_first_layer
from qdyson.kadell import reproduce_counterexample, verify_kadell
from qdyson.laurent import FactoredProduct, LaurentPoly, ct_of_factor_list, expand_product
from qdyson.paired import correction_polynomial, npc_holds
from qdyson.qpoly import ONE, QPoly, one_minus_q, q_multinomial_poly
from qdyson.sweeps import SweepConfig, a_grid, layout_grid, run_sweep, verify
from tests.test_dyson import (
    as_int,
    classical_product,
    compiled,
    correction_factors,
    ct_times,
    first_layer_target,
    oracle_factors,
    shared_source,
)
from tests.test_firstlayer import verify_first_layer_oracle
from tests.test_kadell import stripped, verify_kadell_oracle
from tests.test_paired import use_set_reading, verify_paired_oracle

# (n, amax) grids named by the criteria below
Q_GRIDS = ((2, 3), (3, 2))                       # criterion 1
CLASSICAL_GRIDS = ((1, 2), (2, 2), (3, 2), (4, 1))  # criterion 2 (n=0 direct)
MAIN_GRIDS = ((1, 2), (2, 2), (3, 2))            # criterion 7, with (4, 1)


def pi_action(f, k=1):
    """Apply the index rotation x_i -> x_{i+k} k times, where stepping past
    x_n wraps to x_{i+k-n-1} at the price of one factor 1/q per wrap.

    Rotating n+1 times is the identity on homogeneous polynomials of
    degree 0 (criterion 9(a)).
    """
    if k < 0:
        raise ValueError("negative rotation")
    if k == 0 or not f.terms:
        return f
    width = f.n + 1
    out = {}
    for exps, coeff in f.terms.items():
        new = [0] * width
        shift = 0
        for i, e in enumerate(exps):
            wraps, pos = divmod(i + k, width)
            new[pos] = e
            shift -= wraps * e
        out[tuple(new)] = coeff.shifted(shift)
    return LaurentPoly(f.n, out)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- shared computations -------------------------------------------------------


@pytest.fixture(scope="module")
def q_sweeps(tmp_path_factory):
    """CLI q-Dyson sweeps (pruned kernel) with parsed JSON output."""
    runs = {}
    base = tmp_path_factory.mktemp("qsweeps")
    for n, amax in Q_GRIDS:
        path = base / f"q{n}_{amax}.jsonl"
        t0 = time.perf_counter()
        code = cli.main(
            ["sweep", "qdyson", "--n", str(n), "--amax", str(amax), "--json", str(path)]
        )
        elapsed = time.perf_counter() - t0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        runs[(n, amax)] = (code, lines[:-1], lines[-1], elapsed)
    return runs


@pytest.fixture(scope="module")
def classical_sweeps(tmp_path_factory):
    """CLI classical sweeps (pruned kernel) with parsed JSON output."""
    runs = {}
    base = tmp_path_factory.mktemp("csweeps")
    for n, amax in CLASSICAL_GRIDS:
        path = base / f"d{n}_{amax}.jsonl"
        t0 = time.perf_counter()
        code = cli.main(
            ["sweep", "dyson", "--n", str(n), "--amax", str(amax), "--json", str(path)]
        )
        elapsed = time.perf_counter() - t0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        runs[(n, amax)] = (code, lines[:-1], lines[-1], elapsed)
    return runs


@pytest.fixture(scope="module")
def q_expanded():
    """Unpruned q-products, each pair multiplied out from its two
    q-shifted factorials (the oracle of criterion 9(c)), for every (n, a)
    of criterion 1."""
    out = {}
    for n, amax in Q_GRIDS:
        for a in a_grid(n, amax):
            out[(n, a)] = expand_product(oracle_factors(n, q_dyson_factors(Instance(n, a))), n)
    return out


@pytest.fixture(scope="module")
def classical_expanded():
    """Unpruned classical products (the oracle) for criteria 2-5."""
    out = {}
    for n, amax in ((0, 2),) + CLASSICAL_GRIDS:
        for a in a_grid(n, amax):
            out[(n, a)] = classical_product(Instance(n, a))
    return out


def _layouts(n, a, mmin, mmax):
    return [Instance(n, a, I, J) for I, J in layout_grid(n, mmin, mmax)]


# -- the nine criteria ----------------------------------------------------------


def test_criterion_1_q_dyson_constant_terms(q_sweeps):
    ok = True
    details = []
    elapsed = 0.0
    for (n, amax), (code, reports, summary, secs) in sorted(q_sweeps.items()):
        expected = (amax + 1) ** (n + 1)
        ok = ok and code == 0 and summary["failed"] == 0 and summary["total"] == expected
        elapsed += secs
        details.append(f"n={n},a<={amax}: {summary['passed']}/{summary['total']}")
    ok = ok and elapsed < 120.0
    _report(1, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_2_dyson_constant_terms(classical_sweeps, classical_expanded):
    ok = True
    details = []
    elapsed = 0.0
    for (n, amax), (code, reports, summary, secs) in sorted(classical_sweeps.items()):
        expected = (amax + 1) ** (n + 1)
        ok = ok and code == 0 and summary["failed"] == 0 and summary["total"] == expected
        elapsed += secs
        details.append(f"n={n},a<={amax}: {summary['passed']}/{summary['total']}")
    # single-variable edge: the product is empty, the constant term is 1
    t0 = time.perf_counter()
    n0 = 0
    for a0 in range(3):
        rep = verify("dyson", 0, (a0,))
        oracle = classical_expanded[(0, (a0,))].coeff((0,)).render()
        ok = ok and rep.holds and rep.lhs == oracle
        n0 += 1
    elapsed += time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    details.append(f"n=0: {n0}/{n0}")
    _report(2, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_3_first_layer_closed_form(classical_expanded):
    t0 = time.perf_counter()
    layouts = layout_grid(3, 1, 2)
    offset_layouts = [(I, J) for I, J in layouts if I[0] > 0]
    assert offset_layouts, "grid must exercise layouts that start past x0"
    checked = failed = 0
    for a in a_grid(3, 2):
        insts = _layouts(3, a, 1, 2)
        qsrc = shared_source(insts)
        csrc = classical_expanded[(3, a)]
        for inst in insts:
            rep = verify_first_layer(compiled(inst), qsrc)
            oracle = as_int(csrc.coeff(first_layer_target(inst)))
            checked += 1
            failed += 0 if rep.holds and rep.params["extra"]["q1_brute"] == str(oracle) else 1
    elapsed = time.perf_counter() - t0
    ok = failed == 0 and checked == len(layouts) * 81 and elapsed < 600.0
    _report(
        3,
        ok,
        f"{checked - failed}/{checked} layer coefficients (incl. "
        f"{len(offset_layouts)} offset layouts) in {elapsed:.1f}s",
    )


def test_criterion_4_q1_value_is_layout_independent(classical_expanded):
    t0 = time.perf_counter()
    checked = failed = 0
    for n in (1, 2, 3):
        for a in a_grid(n, 2):
            insts = _layouts(n, a, 1, n)
            qsrc = shared_source(insts)
            src = classical_expanded[(n, a)]
            values_by_i: dict = {}
            for inst in insts:
                value = as_int(src.coeff(first_layer_target(inst)))
                checked += 1
                if first_layer_closed_q1(a, compiled(inst)) != value:
                    failed += 1
                elif qsrc.coeff(first_layer_target(inst)).at_q1() != value:
                    failed += 1
                values_by_i.setdefault(inst.I, set()).add(value)
            if any(len(vals) != 1 for vals in values_by_i.values()):
                failed += 1
    elapsed = time.perf_counter() - t0
    ok = failed == 0
    _report(
        4,
        ok,
        f"{checked - failed}/{checked} q=1 values constant across J and "
        f"equal to the closed sum in {elapsed:.1f}s",
    )


def test_criterion_5_corrected_constant_terms(classical_expanded):
    t0 = time.perf_counter()
    checked = failed = 0
    for n in (0, 1, 2, 3):
        for a in a_grid(n, 2):
            insts = _layouts(n, a, 0, n)
            qsrc = shared_source(insts)
            src = classical_expanded[(n, a)]
            for inst in insts:
                rep = verify_kadell(compiled(inst), qsrc)
                correction = expand_product(correction_factors(inst), n)
                oracle = as_int(ct_times(src, correction))
                checked += 1
                failed += 0 if rep.holds and rep.params["extra"]["ct"] == str(oracle) else 1
    elapsed = time.perf_counter() - t0
    ok = failed == 0
    _report(
        5,
        ok,
        f"{checked - failed}/{checked} scaled identities (closed form "
        f"cross-checked) in {elapsed:.1f}s",
    )


def test_criterion_6_exact_counterexample(capsys):
    rep = reproduce_counterexample()
    lhs_expected = (one_minus_q(3) * QPoly(0, (1, 2, 3, 2))).render()
    rhs_expected = (
        one_minus_q(4) * QPoly(0, (1, 1)) * QPoly(0, (1, 1, 1))
    ).render()
    ok = (
        not rep.holds
        and rep.params["extra"]["confirmed"] is True
        and rep.params["extra"]["ct"] == "1 + 2*q + 3*q^2 + 2*q^3"
        and rep.lhs == lhs_expected
        and rep.lhs == "1 + 2*q + 3*q^2 + 1*q^3 - 2*q^4 - 3*q^5 - 2*q^6"
        and rep.rhs == rhs_expected
        and rep.rhs == "1 + 2*q + 2*q^2 + 1*q^3 - 1*q^4 - 2*q^5 - 2*q^6 - 1*q^7"
    )
    exit_code = cli.main(["counterexample"])
    capsys.readouterr()
    ok = ok and exit_code == 0
    _report(6, ok, "pinned failing instance reproduced character-for-character")


def _main_totals(grids):
    """[total, failed, rejected] of the ``main`` sweeps over the grids."""
    totals = [0, 0, 0]
    for n, amax in grids:
        _, summary = run_sweep(SweepConfig(identity="main", n=n, amax=amax))
        totals[0] += summary["total"]
        totals[1] += summary["failed"]
        totals[2] += summary["rejected"]
    return totals


def test_criterion_7_paired_identity_full_grid(monkeypatch):
    t0 = time.perf_counter()
    multi = _main_totals(MAIN_GRIDS)
    crossing = _main_totals(((4, 1),))  # the one crossing layout is rejected
    use_set_reading(monkeypatch)
    refuted = _main_totals(MAIN_GRIDS)
    elapsed = time.perf_counter() - t0
    ok = (
        multi == [3132, 0, 0]
        and crossing == [4000, 0, 32]
        and refuted == [3132, 252, 0]  # the "set" reading demonstrably fails
        and elapsed < 900.0
    )
    _report(
        7,
        ok,
        f"n<=3,a<=2: {multi[0] - multi[1]}/{multi[0]}; n=4,a<=1: "
        f"{crossing[0] - crossing[1]}/{crossing[0]} with {crossing[2]} crossing "
        f"instances rejected; the refuted set reading fails {refuted[1]} as "
        f"recorded; in {elapsed:.1f}s",
    )


def test_criterion_8_combinatorial_lemma_suite():
    t0 = time.perf_counter()
    reports, summary = run_sweep(SweepConfig(identity="lemmas", n=6, amax=5, seed=0))
    elapsed = time.perf_counter() - t0
    kinds = [r.identity for r in reports]
    ok = (
        summary["failed"] == 0
        and kinds.count("factorization") == 500
        and kinds.count("tailcancel") >= 100
        and kinds.count("choiceproduct") == 4
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"{summary['passed']}/{summary['total']} lemma instances "
        f"({kinds.count('factorization')} factorizations, "
        f"{kinds.count('tailcancel')} tail cancellations, sizes 2-5 choice "
        f"products) in {elapsed:.1f}s",
    )


def test_criterion_9_kernel_properties(q_sweeps, classical_sweeps, q_expanded, classical_expanded):
    t0 = time.perf_counter()
    ok = True

    # (a) rotating n+1 times is the identity on degree-0 homogeneous inputs
    rng = random.Random(9)
    rotation_checks = 0
    for n in (1, 2, 3):
        width = n + 1
        for _ in range(20):
            terms: dict = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * width
                for _ in range(rng.randint(1, 3)):
                    i = rng.randrange(width)
                    j = rng.randrange(width)
                    exps[i] += 1
                    exps[j] -= 1
                coeff = QPoly(rng.randint(-2, 2), (rng.choice((-3, -2, -1, 1, 2, 3)),))
                key = tuple(exps)
                terms[key] = terms.get(key, QPoly(0, ())) + coeff
            f = LaurentPoly(n, terms)
            ok = ok and pi_action(f, width) == f
            rotation_checks += 1

    # (b) rotating the multiplier compensates rotating the exponent vector
    shift_checks = 0
    for n in (1, 2):
        for a in a_grid(n, 2):
            src = expand_product(oracle_factors(n, q_dyson_factors(Instance(n, a))), n)
            rotated = tuple([a[-1]] + list(a[:-1]))
            src_rot = expand_product(oracle_factors(n, q_dyson_factors(Instance(n, rotated))), n)
            for _ in range(4):
                exps = tuple(rng.choice((-1, 0, 1)) for _ in range(n + 1))
                L = LaurentPoly(n, {exps: ONE})
                ok = ok and ct_times(src, L) == ct_times(src_rot, pi_action(L))
                shift_checks += 1

    # (c) pruned extraction agrees with full expansion on every instance of
    # criteria 1-3
    pruned_checks = 0
    for (n, _), (_, reports, _, _) in q_sweeps.items():
        for rep in reports:
            a = tuple(rep["params"]["a"])
            expanded_ct = q_expanded[(n, a)].coeff((0,) * (n + 1)).render()
            ok = ok and rep["lhs"] == expanded_ct
            pruned_checks += 1
    for (n, _), (_, reports, _, _) in classical_sweeps.items():
        for rep in reports:
            a = tuple(rep["params"]["a"])
            expanded_ct = classical_expanded[(n, a)].coeff((0,) * (n + 1)).render()
            ok = ok and rep["lhs"] == expanded_ct
            pruned_checks += 1
    targets = sorted({first_layer_target(s) for s in _layouts(3, (0,) * 4, 1, 2)})
    for a in a_grid(3, 2):
        factors = q_dyson_factors(Instance(3, a))
        expanded = q_expanded[(3, a)]
        for target in targets:
            ok = ok and ct_of_factor_list(factors, target) == expanded.coeff(target)
            pruned_checks += 1

    elapsed = time.perf_counter() - t0
    _report(
        9,
        ok,
        f"{rotation_checks} rotation orders, {shift_checks} cyclic shifts, "
        f"{pruned_checks} pruned-vs-expanded coefficients in {elapsed:.1f}s",
    )


def test_paired_layouts_under_n3_never_cross():
    """Companion fact to criterion 7: the n <= 3 grid has no rejected
    layouts, so the sweep above really covers every layout."""
    for n in (1, 2, 3):
        for I, J in layout_grid(n, 0, n):
            assert npc_holds(I, J)



def _crossing_failures(n):
    """Each crossing layout over x_0..x_n, with the a in {0,1}^(n+1) on which
    the paired identity fails once the guard of ``verify_paired`` is
    bypassed."""
    crossing = [(I, J) for I, J in layout_grid(n, 0, n) if not npc_holds(I, J)]
    failing = {layout: [] for layout in crossing}
    for a in a_grid(n, 1):
        insts = [Instance(n, a, I, J) for I, J in crossing]
        source = shared_source(insts)
        for inst in insts:
            ct = ct_times(source, correction_polynomial(a, compiled(inst)))
            lhs = one_minus_q(1 + inst.total - sum(a[i] for i in inst.I)) * ct
            if lhs != one_minus_q(1 + inst.total) * q_multinomial_poly(a):
                failing[inst.I, inst.J].append(a)
    return failing


def test_crossing_layouts_fail_without_the_guard():
    """Companion fact to criterion 7: the no-crossing hypothesis is needed.
    Every crossing layout with n <= 5 fails the paired identity for some a
    in {0,1}^(n+1): the one layout with n = 4 on exactly four a, the 11 with
    n = 5 on 100 of their 704 instances."""
    assert _crossing_failures(4) == {
        ((1, 3, 4), (0, 0, 2)): [(0, 1, 0, 1, 1), (0, 1, 1, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 1, 1)]
    }
    five = _crossing_failures(5)
    assert len(five) == 11
    assert all(five.values())
    assert sum(map(len, five.values())) == 100


# -- the packed checks against the QPoly checks they replaced ------------------


def _compare_with(monkeypatch, oracle):
    """Make every sweep task, and so every ``verify``, compare the report of
    each of its checks with ``oracle(a, layout, source)`` on the product
    that check read, byte for byte with ``elapsed_ms`` stripped: the task's
    one pass for the first member of its orbit, and one more step of
    rotation for each next member.  Returns a counter of the compared
    reports."""
    members, compared = [], [0]
    build, rotated, run_task = sweeps.q_dyson_source, FactoredProduct.rotated, sweeps._run_task

    def passing(*args):
        members.append(build(*args))
        return members[-1]

    def stepping(source):
        assert source is members[-1]
        members.append(rotated(source))
        return members[-1]

    def checked(task):
        members.clear()
        reports = run_task(task)
        (_, _, layouts, _), orbit = task
        assert list(reports) == list(orbit)
        for a, source in zip(orbit, members, strict=True):
            expected = [oracle(a, lay, source) for lay in layouts]
            assert list(map(stripped, reports[a])) == list(map(stripped, expected))
        compared[0] += sum(map(len, reports.values()))
        return reports

    monkeypatch.setattr("qdyson.sweeps.q_dyson_source", passing)
    monkeypatch.setattr(FactoredProduct, "rotated", stepping)
    monkeypatch.setattr("qdyson.sweeps._run_task", checked)
    return compared


@pytest.mark.parametrize("criterion", [3, 5, 7])
def test_packed_checks_match_the_qpoly_checks(criterion, monkeypatch):
    """On the grids of criteria 3, 5 and 7, every report of the packed checks
    is, ``elapsed_ms`` apart, the report of the ``QPoly`` check it replaced.
    Criterion 7 includes the refuted set reading, whose 252 failures take
    the path that unpacks and renders the left side."""
    if criterion == 3:
        compared = _compare_with(monkeypatch, verify_first_layer_oracle)
        _, summary = run_sweep(SweepConfig(identity="firstlayer", n=3, amax=2, mmax=2))
        assert summary["failed"] == 0
        assert compared[0] == summary["total"] == len(layout_grid(3, 1, 2)) * 81
    elif criterion == 5:
        compared = _compare_with(monkeypatch, verify_kadell_oracle)
        assert all(verify("kadell", 0, (a0,)).holds for a0 in range(3))
        totals = 3
        for n in (1, 2, 3):
            _, summary = run_sweep(SweepConfig(identity="kadell", n=n, amax=2))
            assert summary["failed"] == 0
            totals += summary["total"]
        assert compared[0] == totals
        assert totals == 3 + sum(len(layout_grid(n, 0, n)) * 3 ** (n + 1) for n in (1, 2, 3))
    else:
        compared = _compare_with(monkeypatch, verify_paired_oracle)
        held = _main_totals(MAIN_GRIDS + ((4, 1),))
        assert held == [3132 + 4000, 0, 32]
        use_set_reading(monkeypatch)
        refuted = _main_totals(MAIN_GRIDS)
        assert refuted == [3132, 252, 0]
        assert compared[0] == held[0] + refuted[0]


def test_the_runtime_has_no_dependencies():
    """Every absolute import of the package's modules names the standard
    library or the package itself, so the runtime installs with no
    dependencies (``pyproject.toml`` lists none)."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "qdyson"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 10
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                (path.name, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"qdyson"}
            ]
    assert foreign == []
