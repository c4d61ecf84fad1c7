"""Grid enumeration, sweep summaries, and the randomized lemma suite."""

import json
import multiprocessing
import os
import pickle
import random
from dataclasses import replace
from multiprocessing.connection import Connection

import pytest

from benchmark.tracing import Tracer
from benchmark.workloads import GRID_SETS
from qdyson import cli, dyson, firstlayer, kadell, laurent, paired, qpoly, reports, sweeps
from qdyson.dyson import Instance, q_dyson_source
from qdyson.paired import compile_layout, npc_holds
from qdyson.reports import ReportRow
from qdyson.sweeps import (
    SweepConfig,
    a_grid,
    cyclic_orbits,
    layout_grid,
    lemma_suite_reports,
    pool_workers,
    random_instance,
    run_sweep,
    verify,
)
from tests.test_cli import two_usable_cpus

CHECKED = [name for name, row in sweeps.IDENTITIES.items() if row.check]


def test_a_grid():
    assert a_grid(1, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(a_grid(2, 2)) == 27


@pytest.mark.parametrize(
    "n, amax, orbits", [(1, 3, 10), (3, 2, 24), (4, 1, 8), (4, 2, 51), (2, 5, 76)]
)
def test_cyclic_orbits(n, amax, orbits):
    """The grid falls into cyclic orbits (a, rot(a), ...) of distinct
    vectors, each led by its first vector in grid order."""
    grid = a_grid(n, amax)
    out = cyclic_orbits(grid)
    assert len(out) == orbits
    assert sorted(a for orbit in out for a in orbit) == grid
    assert [orbit[0] for orbit in out] == sorted(orbit[0] for orbit in out)
    for orbit in out:
        assert orbit[0] == min(orbit)
        assert [b[-1:] + b[:-1] for b in orbit] == list(orbit[1:] + orbit[:1])


@pytest.mark.parametrize(
    "identity, n, amax, passes",
    [
        ("dyson", 3, 2, 81),
        ("qdyson", 3, 2, 81),
        ("firstlayer", 3, 2, 24),
        ("kadell", 3, 2, 24),
        ("main", 3, 2, 24),
        ("main", 4, 1, 8),
    ],
)
def test_sweeps_count_their_passes(identity, n, amax, passes, monkeypatch):
    """The constant-term sweeps run one pass per a, so each product is
    checked on its own; the layer sweeps one per cyclic orbit of a."""
    build, calls = sweeps.q_dyson_source, []

    def counting(*args):
        calls.append(args[0].a)
        return build(*args)

    monkeypatch.setattr("qdyson.sweeps.q_dyson_source", counting)
    _, summary = run_sweep(SweepConfig(identity=identity, n=n, amax=amax))
    assert summary["failed"] == 0
    assert len(calls) == passes
    if passes < len(a_grid(n, amax)):
        assert calls == [orbit[0] for orbit in cyclic_orbits(a_grid(n, amax))]


def test_layout_grid_counts():
    # n=2: the empty layout, six m=1 layouts, three m=2 layouts
    assert len(layout_grid(2, 0, 2)) == 10
    assert layout_grid(2, 0, 0) == [((), ())]
    # m is capped at n even if the bound allows more
    assert len(layout_grid(2, 0, 5)) == 10
    assert len(layout_grid(3, 0, 3)) == 35
    assert len(layout_grid(6, 0, 6)) == 1716


def test_layout_grid_entries_are_valid():
    from qdyson.dyson import Instance

    for I, J in layout_grid(3, 0, 3):
        Instance(3, (1, 1, 1, 1), I, J)  # must not raise


def test_config_validation():
    SweepConfig(identity="qdyson", n=1, amax=0).validate()
    for bad in [
        SweepConfig(identity="nosuch", n=1, amax=1),
        SweepConfig(identity="qdyson", n=0, amax=1),
        SweepConfig(identity="qdyson", n=1, amax=-1),
        SweepConfig(identity="qdyson", n=1, amax=1, jobs=0),
        SweepConfig(identity="main", n=1, amax=1, mmax=-1),
        SweepConfig(identity="lemmas", n=1, amax=1),
        SweepConfig(identity="firstlayer", n=3, amax=2, mmax=0),  # no layer has m = 0
        SweepConfig(identity="qdyson", n=1, amax=1, mmax=5),  # no layer to bound
        SweepConfig(identity="lemmas", n=2, amax=1, mmax=2),
    ]:
        with pytest.raises(ValueError):
            bad.validate()


@pytest.mark.parametrize(
    "identity, n, amax, mmax",
    [("dyson", 2, 2, None), ("kadell", 3, 1, None), ("firstlayer", 3, 2, 2), ("main", 4, 1, 3),
     ("main", 2, 0, 7), ("kadell", 6, 0, None)],
)
def test_grid_checks_counts_the_grid(identity, n, amax, mmax):
    """The count by formula is the grid's vectors times its candidate
    layouts, crossing ones included, as the sweep enumerates them."""
    config = SweepConfig(identity=identity, n=n, amax=amax, mmax=mmax)
    mmin = sweeps.IDENTITIES[identity].mmin
    layouts = 1 if mmin is None else len(layout_grid(n, mmin, n if mmax is None else mmax))
    assert config.grid_checks() == len(a_grid(n, amax)) * layouts


def test_a_grid_over_the_limit_fails_before_enumerating(monkeypatch, capsys):
    """A sweep whose count passes MAX_SWEEP_CHECKS exits 2 naming the
    limit, before any grid is built; a sweep at the limit runs.  A huge n
    is refused at once, its power and binomials never built."""
    monkeypatch.setattr("qdyson.sweeps.a_grid", None)
    monkeypatch.setattr("qdyson.sweeps.layout_grid", None)
    for argv in (["sweep", "dyson", "--n", "30", "--amax", "1"],
                 ["sweep", "main", "--n", "1000000000", "--amax", "0"],
                 ["sweep", "qdyson", "--n", "1000000000", "--amax", "5"],
                 ["sweep", "firstlayer", "--n", "1000000000", "--amax", "1", "--m", "1"]):
        assert cli.main(argv) == 2
        assert "MAX_SWEEP_CHECKS = 1,000,000" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr("qdyson.sweeps.MAX_SWEEP_CHECKS", 79)  # main n=2 amax=1 makes 8 x 10
    assert cli.main(["sweep", "main", "--n", "2", "--amax", "1"]) == 2
    assert "MAX_SWEEP_CHECKS = 79 " in capsys.readouterr().err
    monkeypatch.setattr("qdyson.sweeps.MAX_SWEEP_CHECKS", 80)
    assert cli.main(["sweep", "main", "--n", "2", "--amax", "1"]) == 0
    assert "total=80" in capsys.readouterr().out


def test_pool_workers_are_capped(monkeypatch):
    """No more workers than tasks or usable CPUs, whatever --jobs asks for;
    checked without starting a process.  The usable CPUs are the affinity
    set where the platform has one, however many the machine has, and the
    CPU count elsewhere."""
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool_workers(8, 40) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
    assert pool_workers(100000, 1000) == 3
    assert pool_workers(100000, 2) == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert pool_workers(100000, 1000) == 4
    assert pool_workers(100000, 3) == 3
    assert pool_workers(2, 1000) == 2
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert pool_workers(100000, 1000) == 1


# firstlayer must read its target alone, not the layout's whole box: reading
# the box measured 10.2 -> 20.7 ms per verify call on the benchmark's
# firstlayer-n4 cell and 2.3 -> 3.3 ms on firstlayer-n3 (min of 3 passes over
# each cell, 2-core Xeon VM, Python 3.11).
@pytest.mark.parametrize(
    "name, layer, box",
    [
        ("dyson", ((), ()), ((0, 0, 0, 0), (0, 0, 0, 0))),
        ("qdyson", ((), ()), ((0, 0, 0, 0), (0, 0, 0, 0))),
        ("firstlayer", ((0, 2), (1, 1)), ((1, -2, 1, 0), (1, -2, 1, 0))),
        ("kadell", ((0, 2), (1, 1)), ((0, -2, 0, 0), (1, 0, 1, 0))),
        ("main", ((0, 2), (1, 1)), ((0, -2, 0, 0), (1, 0, 1, 0))),
    ],
)
def test_verify_reads_the_box_of_its_identity(name, layer, box, monkeypatch):
    """The plain constant terms read the origin, firstlayer its target alone,
    kadell and main the layout's box."""
    build = sweeps.q_dyson_source
    boxes = []

    def recording(inst, lo, hi, headroom):
        boxes.append((tuple(lo), tuple(hi)))
        return build(inst, lo, hi, headroom)

    monkeypatch.setattr("qdyson.sweeps.q_dyson_source", recording)
    assert verify(name, 3, (1, 1, 1, 1), *layer).holds
    assert boxes == [box]


@pytest.mark.parametrize("name, layer", [("main", ((0, 2), (1, 1))), ("qdyson", ((), ()))])
def test_verify_keeps_the_line_of_its_report(name, layer, monkeypatch):
    """``verify`` times its whole task into ``elapsed_ms`` of a new report, so its
    JSON line carries that time even when the check's report was encoded
    first, as a pool sweep's child encodes it."""
    run_task = sweeps._run_task

    def encoding(task):
        reports = run_task(task)
        for reps in reports.values():
            for rep in reps:
                rep.to_json()
        return reports

    monkeypatch.setattr("qdyson.sweeps._run_task", encoding)
    rep = verify(name, 3, (1, 1, 1, 1), *layer)
    assert json.loads(rep.to_json())["elapsed_ms"] == rep.elapsed_ms


@pytest.mark.parametrize("name", CHECKED)
def test_a_check_reports_the_layer_of_its_layout(name, monkeypatch):
    """For every layout of ``layout_grid(3, 0, 3)`` the identity's row
    accepts, its check of a on that compiled layout holds, and the report's
    n, a, I and J are a and the layout's: a check reads (n, I, J) from its
    layout and nowhere else.  Each check calls its guard
    ``FactoredProduct.reads`` once, with the (lo, hi, headroom) of its
    row's read rule, so what it reads is stated once."""
    identity, a = sweeps.IDENTITIES[name], (1, 2, 1, 1)
    mmin, checked, guarded = identity.mmin, 0, []
    guard = laurent.FactoredProduct.reads

    def recording(source, lo, hi, headroom=0):
        guarded.append((tuple(lo), tuple(hi), headroom))
        return guard(source, lo, hi, headroom)

    monkeypatch.setattr(laurent.FactoredProduct, "reads", recording)
    for I, J in layout_grid(3, 0, 3):  # noqa: E741
        layout = compile_layout(3, I, J)
        if (len(I) > 0 if mmin is None else len(I) < mmin) or not identity.admissible(layout):
            continue
        rule = identity.reads(layout)
        rep = identity.check(layout, q_dyson_source(Instance(3, a), *rule))
        assert guarded == [rule], (I, J)
        guarded.clear()
        assert rep.holds and rep.identity == name, (I, J)
        assert (rep.n, rep.a, rep.I, rep.J) == (layout.n, a, layout.I, layout.J) == (3, a, I, J)
        checked += 1
    assert checked == {None: 1, 0: 35, 1: 34}[mmin]


def test_a_sweep_validates_one_instance_per_orbit(monkeypatch):
    """During ``_execute`` of ``sweep main --n 3 --amax 2`` the only
    ``Instance`` built is one per cyclic orbit, for its first member, the
    product's a: no check builds one."""
    built, post_init = [], Instance.__post_init__

    def counting(inst):
        built.append(inst.a)
        post_init(inst)

    execute, during = sweeps._execute, []

    def executing(orbits, context, jobs):
        built.clear()
        out = execute(orbits, context, jobs)
        during.append(list(built))
        return out

    monkeypatch.setattr(Instance, "__post_init__", counting)
    monkeypatch.setattr("qdyson.sweeps._execute", executing)
    _, summary = run_sweep(SweepConfig(identity="main", n=3, amax=2))
    assert summary["failed"] == 0 and summary["total"] == 35 * 81
    assert during == [[orbit[0] for orbit in cyclic_orbits(a_grid(3, 2))]]
    assert len(during[0]) == 24


def test_a_lemma_suite_over_a_limit_fails_before_drawing(monkeypatch, capsys):
    """A lemma suite with n past MAX_LEMMA_N or amax past MAX_LEMMA_AMAX
    exits 2 naming the limit, before anything is drawn; a suite at both
    limits runs."""
    suite = sweeps.lemma_suite_reports
    monkeypatch.setattr("qdyson.sweeps.lemma_suite_reports", None)
    for argv, limit in (
        (["--n", "1000000000", "--amax", "5"], "MAX_LEMMA_N = 16"),
        (["--n", "7", "--amax", "1000000000"], "MAX_LEMMA_AMAX = 256"),
    ):
        assert cli.main(["sweep", "lemmas", *argv]) == 2
        assert limit in capsys.readouterr().err
    monkeypatch.setattr("qdyson.sweeps.MAX_LEMMA_N", 4)
    monkeypatch.setattr("qdyson.sweeps.MAX_LEMMA_AMAX", 3)
    for argv, limit in ((["--n", "5", "--amax", "3"], "MAX_LEMMA_N = 4"),
                        (["--n", "4", "--amax", "4"], "MAX_LEMMA_AMAX = 3")):
        assert cli.main(["sweep", "lemmas", *argv]) == 2
        assert limit in capsys.readouterr().err
    monkeypatch.setattr("qdyson.sweeps.lemma_suite_reports", suite)
    assert cli.main(["sweep", "lemmas", "--n", "4", "--amax", "3"]) == 0
    assert "failed=0" in capsys.readouterr().out


@pytest.mark.parametrize("a", [(True, 1, 1), (1.5, 1, 1)])
def test_verify_refuses_an_exponent_that_is_not_an_int(a, monkeypatch):
    """An entry of a that is a bool or a float is refused with
    ``ValueError`` before any product is built.  Unrefused, True was
    checked as 1 and written into the JSON line as ``True``, which is not
    JSON, and 1.5 raised ``TypeError`` inside the pass.  So are n and
    every entry of I and J."""
    monkeypatch.setattr("qdyson.sweeps.q_dyson_source", None)
    with pytest.raises(ValueError, match="must be integers"):
        verify("qdyson", 2, a)
    for n, I, J in [(2.0, (), ()), (2, (0.0,), (1,)), (2, (0,), (True,))]:  # noqa: E741
        with pytest.raises(ValueError, match="must be integers"):
            Instance(n, (1, 1, 1), I, J)


@pytest.mark.parametrize(
    "field, value", [("n", True), ("n", 2.0), ("amax", 1.0), ("mmax", False), ("jobs", 1.0),
                     ("seed", None)],
)
def test_a_sweep_refuses_a_number_that_is_not_an_int(field, value, monkeypatch):
    """A sweep whose n, amax, m bound, jobs or seed is not an ``int`` is
    refused by ``SweepConfig.validate`` with ``ValueError`` before any
    task runs.  Unrefused, n = True swept n = 1 and wrote ``"n":True``
    lines, and n = 2.0 raised ``TypeError`` while the checks were
    counted."""
    monkeypatch.setattr("qdyson.sweeps._execute", None)
    config = replace(SweepConfig(identity="main", n=2, amax=1), **{field: value})
    with pytest.raises(ValueError, match="must be integers"):
        run_sweep(config)


class _GuardOnly:
    """A source that exposes its two guarded reads, ``reads`` and
    ``coeff``, and nothing else."""

    __slots__ = ("reads", "coeff")

    def __init__(self, source):
        self.reads, self.coeff = source.reads, source.coeff


@pytest.mark.parametrize("name", [*CHECKED, "qkadell"])
def test_a_check_reads_its_source_only_through_its_guard(name):
    """Every check of ``IDENTITIES``, and the naive q-analog, gives the same
    report, ``elapsed_ms`` apart, from a source that exposes only its
    guarded reads as from the source itself: what a check knows of its
    product, a included, is what its guard hands it.  The naive q-analog
    fails on some of these, so its failing path is covered too."""
    if name == "qkadell":
        check, rule = kadell.verify_q_kadell, paired.paired_reads
        layers = [((0,), (1,)), ((0, 2), (1, 1))]
    else:
        identity = sweeps.IDENTITIES[name]
        check, rule = identity.check, identity.reads
        layers = ([((), ())] if identity.mmin is None else
                  [((), ()), ((0,), (1,)), ((0, 2), (1, 1)), ((1, 3), (0, 2))][identity.mmin:])
    failed = 0
    for I, J in layers:  # noqa: E741
        layout = compile_layout(3, I, J)
        for a in [(1, 2, 1, 1), (0, 1, 2, 0), (2, 0, 1, 1)]:
            source = q_dyson_source(Instance(3, a), *rule(layout))
            rep = check(layout, source)
            failed += not rep.holds
            assert replace(check(layout, _GuardOnly(source)), elapsed_ms=rep.elapsed_ms) == rep
    assert (failed > 0) == (name == "qkadell")


def test_verify_rejects_what_only_sweeps(monkeypatch):
    """The lemma suite and unknown names fail with ValueError, and build no
    product."""
    monkeypatch.setattr("qdyson.sweeps.q_dyson_source", None)
    for name in ("lemmas", "nosuch"):
        with pytest.raises(ValueError):
            verify(name, 2, (1, 1, 1))


# The most spare bits a check of each benchmark grid needs: 1 for main,
# 0 for kadell, m + 2^m - 2 for firstlayer at its largest m, 3 by default
# and 2 under the held-out grid's m bound.
UNITED_HEADROOM = {
    ("default", "main"): 1, ("default", "firstlayer"): 9, ("default", "kadell"): 0,
    ("default", "npc"): 1, ("heldout", "main"): 1, ("heldout", "firstlayer"): 4,
    ("heldout", "kadell"): 0, ("heldout", "npc"): 1,
}


@pytest.mark.parametrize("grid_set, slot", list(UNITED_HEADROOM))
def test_sweep_reads_the_union_of_its_read_boxes(grid_set, slot, monkeypatch):
    """Every task of a benchmark grid reads the cube [-min(m bound, n), 1]^(n+1),
    the union of the boxes its layouts' checks read, with the most headroom
    any of their read rules names.  No check runs."""
    tasks = []

    def collect(orbits, context, jobs):
        tasks.extend((context, orbit) for orbit in orbits)
        return {a: [] for orbit in orbits for a in orbit}

    monkeypatch.setattr("qdyson.sweeps._execute", collect)
    args = cli.build_parser().parse_args(dict(GRID_SETS[grid_set])[slot])
    run_sweep(SweepConfig(identity=args.identity, n=args.n, amax=args.amax, mmax=args.m))
    depth = min(args.n if args.m is None else args.m, args.n)
    reads = ((-depth,) * (args.n + 1), (1,) * (args.n + 1), UNITED_HEADROOM[grid_set, slot])
    assert tasks and all(context[-1] == reads for context, _ in tasks)
    assert sorted(UNITED_HEADROOM) == sorted(
        (name, slot) for name, grids in GRID_SETS.items() for slot, _ in grids
    )


def _without_elapsed(line):
    obj = json.loads(line)
    obj.pop("elapsed_ms")
    return obj


def test_a_pool_task_sends_rows_back(monkeypatch):
    """A child's share, run in process, sends one message of (holds, JSON
    line) rows alone, keyed by the members of its orbits: the verdicts and
    lines of the serial reports of each member, apart from ``elapsed_ms``,
    in layout order."""
    tasks = []
    monkeypatch.setattr(
        "qdyson.sweeps._execute",
        lambda orbits, context, jobs: tasks.extend((context, orbit) for orbit in orbits)
        or {a: [] for orbit in orbits for a in orbit},
    )
    run_sweep(SweepConfig(identity="main", n=2, amax=1))
    context, orbit = max(tasks, key=lambda task: len(task[1]))
    receive, send = multiprocessing.Pipe(duplex=False)
    with receive:
        sweeps._run_share(context, [orbit], send)
        rows = receive.recv()
    serial = sweeps._run_task((context, orbit))
    assert len(orbit) == 3 and list(rows) == list(serial) == list(orbit)
    for a in orbit:
        assert len(rows[a]) == len(serial[a]) == len(context[2])
        assert all(
            type(row) is tuple and len(row) == 2 and type(row[0]) is bool and type(row[1]) is str
            for row in rows[a]
        )
        assert [holds for holds, _ in rows[a]] == [rep.holds for rep in serial[a]]
        assert all(json.loads(line)["params"]["a"] == list(a) for _, line in rows[a])
        assert [_without_elapsed(line) for _, line in rows[a]] == [
            _without_elapsed(rep.to_json()) for rep in serial[a]
        ]


def test_a_row_parses_its_line_once_and_only_when_read(monkeypatch):
    """``holds`` and ``to_json`` read the row as it is; any other read
    parses the line once, into the report it was encoded from.  A row
    pickles without being parsed."""
    rep = verify("kadell", 2, (1, 0, 1), (0,), (1,))
    parsed = []
    loads = json.loads

    def counting(line):
        parsed.append(line)
        return loads(line)

    monkeypatch.setattr(json, "loads", counting)
    line = rep.to_json()
    row = ReportRow(rep.holds, line)
    again = pickle.loads(pickle.dumps(row))
    assert row.holds is again.holds is True
    assert row.to_json() is line and again.to_json() == line
    assert parsed == []
    assert row.params == rep.params and row.lhs == rep.lhs and row.rhs == rep.rhs
    assert row.elapsed_ms == rep.elapsed_ms and row.engine == rep.engine
    assert row.to_dict() == rep.to_dict()
    assert row.summary_line() == rep.summary_line()
    assert parsed == [line]


def test_random_layer_draws_are_deterministic():
    """A seed fixes the draws, and each draw selects at least the two
    indices the lemmas need."""
    one = [random_instance(random.Random(5), 5, 3).pairs for _ in range(5)]
    two = [random_instance(random.Random(5), 5, 3).pairs for _ in range(5)]
    assert one == two and all(len(pairs) >= 2 for pairs in one)


def test_crossing_layouts_are_rejected_not_failed():
    """n=6 admits 78 crossing layouts; the sweep counts them as rejected and
    never emits a failing report for them."""
    layouts = layout_grid(6, 0, 6)
    crossing = [lay for lay in layouts if not npc_holds(*lay)]
    assert len(crossing) == 78

    reports, summary = run_sweep(SweepConfig(identity="main", n=6, amax=0))
    assert summary == {
        "total": 1638,
        "passed": 1638,
        "failed": 0,
        "rejected": 78,
        "seed": 0,
    }
    assert len(reports) == 1638


def test_a_layer_sweep_judges_each_candidate_layout_once(monkeypatch):
    """``sweep main --n 4 --amax 1`` calls ``paired.npc_holds`` once per
    candidate layout, 126 times: ``compile_layout`` keeps the verdict, and
    the row admits the compiled layout off it.  The sweep still rejects
    the 32 checks of its one crossing layout, and ``verify main`` on that
    layout raises ``NpcViolationError`` before any pass is built."""
    calls, judge = [], paired.npc_holds

    def counting(I, J):  # noqa: E741
        calls.append((I, J))
        return judge(I, J)

    monkeypatch.setattr(paired, "npc_holds", counting)
    _, summary = run_sweep(SweepConfig(identity="main", n=4, amax=1))
    assert len(calls) == len(layout_grid(4, 0, 4)) == 126
    assert summary["rejected"] == 32 and summary["failed"] == 0
    passes = []
    monkeypatch.setattr("qdyson.sweeps.q_dyson_source", lambda *args: passes.append(args))
    with pytest.raises(paired.NpcViolationError):
        verify("main", 4, (1,) * 5, (1, 3, 4), (0, 0, 2))
    assert passes == []


def test_small_grids_all_pass():
    for identity, n in [("qdyson", 2), ("dyson", 2), ("firstlayer", 2), ("kadell", 2), ("main", 2)]:
        reports, summary = run_sweep(SweepConfig(identity=identity, n=n, amax=1))
        assert summary["failed"] == 0, (identity, summary)
        assert summary["total"] == len(reports)


def test_sweep_reports_follow_grid_order():
    reports, _ = run_sweep(SweepConfig(identity="qdyson", n=1, amax=2))
    seen = [tuple(r.params["a"]) for r in reports]
    assert seen == a_grid(1, 2)


def test_layer_sweep_reports_follow_grid_order():
    """A layer sweep runs by orbits, yet reports a by a in grid order, and
    the layouts of each a in layout order."""
    reports, _ = run_sweep(SweepConfig(identity="main", n=2, amax=2))
    layouts = [lay for lay in layout_grid(2, 0, 2) if npc_holds(*lay)]
    seen = [(tuple(r.params["a"]), tuple(r.params["I"]), tuple(r.params["J"])) for r in reports]
    assert seen == [(a, I, J) for a in a_grid(2, 2) for I, J in layouts]  # noqa: E741


def test_lemma_suite_shapes(monkeypatch):
    monkeypatch.setattr(sweeps, "FACTORIZATION_DRAWS", 25)
    monkeypatch.setattr(sweeps, "TAIL_CANCEL_DRAWS", 10)
    reports = lemma_suite_reports(nmax=4, amax=3, seed=3)
    kinds = [r.identity for r in reports]
    assert kinds.count("factorization") == 25
    assert kinds.count("choiceproduct") == 4
    assert kinds.count("tailcancel") >= 10  # one per tail position per draw
    assert all(r.holds for r in reports)


def test_lemma_suite_seed_changes_draws(monkeypatch):
    monkeypatch.setattr(sweeps, "FACTORIZATION_DRAWS", 5)
    monkeypatch.setattr(sweeps, "TAIL_CANCEL_DRAWS", 1)
    one = lemma_suite_reports(4, 3, seed=1)
    two = lemma_suite_reports(4, 3, seed=2)
    params_one = [r.params for r in one if r.identity == "factorization"]
    params_two = [r.params for r in two if r.identity == "factorization"]
    assert params_one != params_two


def test_tracer_binds_every_traced_name(tmp_path):
    """``benchmark/tracing.py`` installs on this program: ``install`` raises
    if any name it traces is bound nowhere.  Installed, it wraps the
    product builders, the box pass's entry point and the ``LaurentPoly``
    multiplication and ``FactoredProduct.coeff`` it counts, and one traced
    q-Dyson check counts one build of three merged factors of three terms
    each.  A traced serial sweep counts one task per cyclic orbit of its
    grid, as the tracer reads the task count off ``_execute``'s first
    argument.  ``uninstall`` puts every original back."""
    traced = [
        (laurent.LaurentPoly, "__mul__"), (laurent, "expand_product"),
        (dyson, "dyson_factors"), (dyson, "q_dyson_factors"), (kadell, "modified_q_product"),
        (laurent.FactoredProduct, "coeff"), (laurent, "ct_of_factor_list"),
    ]
    originals = [vars(space)[name] for space, name in traced]
    assert "expanded" in vars(laurent.FactoredProduct)  # read by the lookup counter
    tracer = Tracer(str(tmp_path / "spool"))
    tracer.install()
    try:
        for (space, name), original in zip(traced, originals):
            assert vars(space)[name].__wrapped__ is original, name
        assert verify("qdyson", 2, (1, 1, 1)).holds
        built, terms = tracer.agg["dyson.build_calls"], tracer.agg["dyson.factor_terms"]
        _, summary = sweeps.run_sweep(SweepConfig(identity="main", n=2, amax=1))
    finally:
        tracer.uninstall()
    assert [vars(space)[name] for space, name in traced] == originals
    assert built == 1
    assert terms == 9
    assert summary["failed"] == 0
    assert tracer.agg["sweeps.tasks"] == len(cyclic_orbits(a_grid(2, 1)))


# -- the per-check hot path, guarded by counts ---------------------------------


def test_a_pool_sweep_forks_once_and_reads_one_message(monkeypatch):
    """With two usable CPUs, ``sweep main --n 4 --amax 1 --jobs 2`` starts
    exactly one child and reads exactly one message, and the parent runs
    ``_run_task`` itself on its own share: the pool costs one fork and one
    message per extra worker, not a round trip per orbit."""
    parent, starts, messages, own = os.getpid(), [], [], []
    start, recv, run_task = multiprocessing.Process.start, Connection.recv, sweeps._run_task

    def starting(process):
        starts.append(process)
        start(process)

    def receiving(conn):
        messages.append(recv(conn))
        return messages[-1]

    def running(task):
        if os.getpid() == parent:
            own.append(task[1])
        return run_task(task)

    two_usable_cpus(monkeypatch)
    monkeypatch.setattr(multiprocessing.Process, "start", starting)
    monkeypatch.setattr(Connection, "recv", receiving)
    monkeypatch.setattr("qdyson.sweeps._run_task", running)
    assert cli.main(["sweep", "main", "--n", "4", "--amax", "1", "--jobs", "2"]) == 0
    assert len(starts) == 1 and len(messages) == 1
    mine = [a for orbit in own for a in orbit]
    assert mine and sorted(mine + list(messages[0])) == a_grid(4, 1)


def test_main_encodes_its_extra_once_per_layout(tmp_path, monkeypatch):
    """``sweep main --n 4 --amax 1 --json PATH`` writes 4,000 lines, but
    encodes ``main``'s extra, which reads the layout alone, at most once
    per layout, and every line still carries its layout's pairing.  So
    does ``sweep main --n 5 --amax 1 --m 3``, whose 374 layouts are more
    than a cache sized for the 125 of n = 4 would hold."""
    encoded, dumps = [], reports.dumps

    def counting(obj):
        if isinstance(obj, dict) and "pairing" in obj:
            encoded.append(obj)
        return dumps(obj)

    monkeypatch.setattr(reports, "dumps", counting)
    path = tmp_path / "main.jsonl"
    for argv, checks, layouts in [
        (("--n", "4", "--amax", "1"), 4000, 125),
        (("--n", "5", "--amax", "1", "--m", "3"), 23936, 374),
    ]:
        encoded.clear()
        paired._pairing.cache_clear()
        assert cli.main(["sweep", "main", *argv, "--json", str(path)]) == 0
        *lines, summary = path.read_text(encoding="utf-8").splitlines()
        total = json.loads(summary)["total"]
        assert total == len(lines) == checks == layouts * 2 ** (int(argv[1]) + 1)
        assert 0 < len(encoded) <= layouts
        for line in lines:
            params = json.loads(line)["params"]
            pairing = [list(p) for p in zip(params["I"], params["J"])]
            assert params["extra"] == {"semantics": "multiset", "pairing": pairing}


def _counting_everywhere(monkeypatch, name, calls, home=qpoly):
    """Rebind the function ``name`` of the module ``home`` in every
    ``qdyson`` module that binds it, to a wrapper that appends its
    arguments to calls."""
    original = getattr(home, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (qpoly, laurent, dyson, firstlayer, kadell, paired, sweeps):
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counting)


def test_kadell_sweep_unpacks_nothing(monkeypatch):
    """Every check of ``sweep kadell --n 3 --amax 2`` holds, and none unpacks
    a packed integer: the corrected constant term is read at q = 1 by one
    residue.  The counter itself counts, as a ``coeff`` read shows."""
    calls = []
    _counting_everywhere(monkeypatch, "unpack", calls)
    _, summary = run_sweep(SweepConfig(identity="kadell", n=3, amax=2))
    assert summary["failed"] == 0 and summary["passed"] == 35 * 81
    assert calls == []
    q_dyson_source(Instance(2, (1, 1, 1)), (0,) * 3, (0,) * 3).coeff((0,) * 3)
    assert len(calls) == 1


class _Unread(dict):
    """A packed map no check may read."""

    def get(self, key, default=None):
        raise AssertionError(f"read {key!r}")

    __getitem__ = get


@pytest.mark.parametrize("name", CHECKED)
def test_a_read_outside_the_source_box_raises_before_any_read(name):
    """A check whose read box is not inside its source's box raises
    ``ValueError`` before it reads a coefficient: a source over the point
    (1, 0, -1, 0), or over the far corner of the layout's box, serves no
    check of (I, J) = ((0, 2), (1, 1))."""
    identity, a = sweeps.IDENTITIES[name], (1, 2, 1, 1)
    layout = compile_layout(3, *(((), ()) if identity.mmin is None else ((0, 2), (1, 1))))
    lo, hi, headroom = identity.reads(layout)
    for box in (((1, 0, -1, 0),) * 2, (hi, hi), (lo, lo)):
        if box == (lo, hi):
            continue
        source = q_dyson_source(Instance(3, a), *box, headroom)
        source.packed = _Unread(source.packed)
        with pytest.raises(ValueError, match="outside the box"):
            identity.check(layout, source)


@pytest.mark.parametrize("name", CHECKED)
def test_a_check_refuses_a_source_of_another_width_before_any_read(name):
    """A check of a layout over x_0..x_2 raises ``AmbientMismatchError``
    before it reads a coefficient from a q-Dyson product over x_0..x_3
    whose box is the check's own with a zero appended.  Comparing the boxes
    coordinatewise alone would stop at the shorter and pass them, and the
    check would read no coefficient and report a false failure."""
    identity = sweeps.IDENTITIES[name]
    layout = compile_layout(2, *(((), ()) if identity.mmin is None else ((0,), (1,))))
    lo, hi, headroom = identity.reads(layout)
    source = q_dyson_source(Instance(3, (1, 1, 1, 1)), (*lo, 0), (*hi, 0), headroom)
    source.packed = _Unread(source.packed)
    with pytest.raises(laurent.AmbientMismatchError, match="does not fit 4 variables"):
        identity.check(layout, source)


def test_lemma_suite_adds_no_polynomials_and_reaches_its_traced_names(monkeypatch):
    """``lemma_suite_reports(7, 5, 0)``, a pinned suite, sums each
    factorization's left side as integer weights by exponent, so
    ``factorization_sides`` calls ``QPoly.__add__`` zero times.  It still
    reaches, through their module globals, the names whose calls the
    tracer's ``paired.*`` metrics count: the chain exponent, once per
    superset of each factorization (its first superset also gives the
    right side's power) and twice per tail cancellation, and the three
    lemma checks.  Each chain exponent, which there adds a layer exponent
    of the same superset, builds one ``layer_levels`` prefix sum.  The
    counters count, as one sum in the tracked scope shows."""
    names = ("chain_exponent", "verify_factorization", "tail_cancel_values",
             "matrix_choice_property")
    calls = {name: [] for name in names}
    for name in names:
        _counting_everywhere(monkeypatch, name, calls[name], home=paired)
    levels = []
    _counting_everywhere(monkeypatch, "layer_levels", levels, home=paired)
    adds, inside = [], []
    add, sides = qpoly.QPoly.__add__, paired.factorization_sides

    def counting_add(self, other):
        if inside:
            adds.append(other)
        return add(self, other)

    def tracked_sides(*args):
        inside.append(args)
        try:
            return sides(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(qpoly.QPoly, "__add__", counting_add)
    monkeypatch.setattr(qpoly.QPoly, "__radd__", counting_add)
    monkeypatch.setattr(paired, "factorization_sides", tracked_sides)
    reps = lemma_suite_reports(7, 5, 0)
    assert len(reps) == 717 and all(rep.holds for rep in reps)
    assert adds == []
    assert {name: len(seen) for name, seen in calls.items()} == {
        "chain_exponent": 1819,
        "verify_factorization": sweeps.FACTORIZATION_DRAWS,
        "tail_cancel_values": 213,
        "matrix_choice_property": len(sweeps.CHOICE_PRODUCT_SIZES),
    }
    assert len(levels) == 1819
    inside.append(())
    assert qpoly.ONE + qpoly.ONE == qpoly.q_power(0, 2) and len(adds) == 1


def test_grid_expand_reaches_every_traced_check_step(tmp_path):
    """The grid-expand sweeps, run traced with ``--json``, still reach the
    names ``benchmark/tracing.py`` times or counts on the checks' path: the
    corrected constant term, the first-layer q = 1 closed form, a
    coefficient read by ``FactoredProduct.coeff``, the JSON line and the
    paired check."""
    tracer = Tracer(str(tmp_path / "spool"))
    tracer.install()
    try:
        for slot, argv in GRID_SETS["default"]:
            path = tmp_path / f"{slot}.jsonl"
            assert cli.main([*argv, "--json", str(path)]) == 0
    finally:
        tracer.uninstall()
    agg = tracer.agg
    assert agg["kadell.corrected_ct_calls"] > 0
    assert agg["firstlayer.closed_calls"] > 0
    assert agg["laurent.lookups"] > 0
    assert agg["reports.to_json_calls"] > 0
    assert any(span[2] == "qdyson.paired.verify_paired" for span in tracer.spans)


def test_a_check_refuses_the_product_of_another_a():
    """Kadell's identity on a = (1, 2, 1, 1), read off the product of
    (1, 1, 1, 1), would fail (lhs 120 against rhs 360) though it holds.  A
    check takes no a, so it cannot be pointed at the product of another a:
    each check of that product reads a = (1, 1, 1, 1) off it and holds, and
    Kadell's check of a = (1, 2, 1, 1) reads the product of that a."""
    layout = compile_layout(3, (1,), (2,))
    ones = Instance(3, (1, 1, 1, 1))
    for name in CHECKED:
        identity = sweeps.IDENTITIES[name]
        lay = compile_layout(3, (), ()) if identity.mmin is None else layout
        rep = identity.check(lay, q_dyson_source(ones, *identity.reads(lay)))
        assert rep.holds and rep.a == (1, 1, 1, 1), name
    rep = kadell.verify_kadell(layout, q_dyson_source(Instance(3, (1, 2, 1, 1)), *layout.box))
    assert rep.holds and rep.a == (1, 2, 1, 1)


def test_a_rotated_source_is_the_product_of_the_rotated_a():
    """``rotated`` carries the product's a along: the member of the orbit of
    (1, 2, 1, 1) one step on is the product of (1, 1, 2, 1), and every
    check reads that a off it and holds."""
    layout = compile_layout(3, (1,), (2,))
    cube = (-1,) * 4, (1,) * 4
    member = q_dyson_source(Instance(3, (1, 2, 1, 1)), *cube, 3).rotated()
    assert member.a == (1, 1, 2, 1)
    for name in CHECKED:
        identity = sweeps.IDENTITIES[name]
        lay = compile_layout(3, (), ()) if identity.mmin is None else layout
        rep = identity.check(lay, member)
        assert rep.holds and rep.a == (1, 1, 2, 1), name


@pytest.mark.parametrize("name", CHECKED)
def test_a_check_refuses_a_source_it_may_not_read_before_any_read(name):
    """A check raises ``ValueError`` before it reads a coefficient from a
    source that holds no q-Dyson product, here Kadell's modified product of
    the same a over the same box, which records no a, and from a q-Dyson
    product packed with one spare bit fewer than the row's headroom.  The
    q-Dyson product over that box, with that headroom, serves it."""
    identity = sweeps.IDENTITIES[name]
    inst = Instance(3, (1, 2, 1, 1), *(() if identity.mmin is None else ((0, 2), (1, 1))))
    layout = compile_layout(3, inst.I, inst.J)
    *box, headroom = identity.reads(layout)
    modified = laurent.FactoredProduct(3, kadell.modified_q_product(inst), *box, headroom)
    sources = [(modified, "no q-Dyson product")]
    if headroom:
        sources.append((q_dyson_source(inst, *box, headroom - 1), "spare bits"))
    for source, message in sources:
        source.packed = _Unread(source.packed)
        with pytest.raises(ValueError, match=message):
            identity.check(layout, source)
    assert identity.check(layout, q_dyson_source(inst, *box, headroom)).holds
