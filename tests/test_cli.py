"""Command-line interface: exit codes, JSON output, parallel parity; and the
package source itself: no module imports a name it never uses."""

import argparse
import ast
import functools
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import qdyson
from qdyson import cli
from qdyson.reports import VerificationReport, dumps
from qdyson.sweeps import IDENTITIES, SweepConfig, a_grid, run_sweep
from tests.test_paired import use_set_reading

REPORT_KEYS = {"identity", "params", "holds", "lhs", "rhs", "elapsed_ms", "engine"}
PARAM_KEYS = {"n", "a", "I", "J", "extra"}
SUMMARY_KEYS = {"total", "passed", "failed", "rejected", "seed"}


def two_usable_cpus(monkeypatch):
    """Let a sweep with ``--jobs 2`` start its pool on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 2)


class TestVerifyExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "qdyson", "--n", "2", "--a", "1,1,1"],
            ["verify", "dyson", "--n", "2", "--a", "2,1,1"],
            ["verify", "firstlayer", "--n", "2", "--a", "1,1,1", "--I", "0", "--J", "1"],
            ["verify", "kadell", "--n", "2", "--a", "1,1,1", "--I", "0", "--J", "1"],
            ["verify", "main", "--n", "2", "--a", "1,1,1", "--I", "0", "--J", "1"],
            ["verify", "main", "--n", "2", "--a", "1,1,1"],
        ],
    )
    def test_holding_instances_exit_zero(self, argv, capsys):
        assert cli.main(argv) == 0
        assert ":: holds" in capsys.readouterr().out

    def test_failing_instance_exits_one(self, monkeypatch, capsys):
        use_set_reading(monkeypatch)
        argv = ["verify", "main", "--n", "2", "--a", "1,0,1", "--I", "0,2", "--J", "1,1"]
        assert cli.main(argv) == 1
        assert "main n=2 a=1,0,1 I=0,2 J=1,1 :: FAILS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "qdyson", "--n", "2", "--a", "1,1"],  # length mismatch
            ["verify", "qdyson", "--n", "2", "--a", "1,1,1", "--I", "0"],
            ["verify", "firstlayer", "--n", "2", "--a", "1,1,1", "--I", "0", "--J", "0"],
            ["verify", "firstlayer", "--n", "2", "--a", "1,1", "--I", "0", "--J", "1"],
            ["verify", "main", "--n", "6", "--a", "1,1,1,1,1,1,1",
             "--I", "2,5,6", "--J", "0,1,3"],  # crossing pairing
            ["verify", "qdyson", "--n", "2", "--a", "1,x,1"],  # parse error
            ["verify", "nosuch", "--n", "1", "--a", "1,1"],
            ["sweep", "qdyson", "--n", "0", "--amax", "1"],
            ["sweep", "qdyson", "--n", "2", "--amax", "-1"],
            ["sweep", "qdyson", "--n", "2", "--amax", "1", "--jobs", "0"],
            ["sweep", "lemmas", "--n", "1", "--amax", "2"],
            ["sweep", "firstlayer", "--n", "3", "--amax", "2", "--m", "0"],  # empty range
            ["sweep", "qdyson", "--n", "1", "--amax", "1", "--m", "5"],  # no layer
            ["verify", "main", "--n", "2", "--a", "1,0,1",
             "--I", "0,2", "--J", "1,1", "--semantics", "set"],  # no such flag
            ["sweep", "main", "--n", "2", "--amax", "1", "--semantics", "set"],
        ],
    )
    def test_bad_input_exits_two(self, argv, capsys):
        assert cli.main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "dyson", "--n", "2", "--a", "1,1,1", "--I", "0", "--J", "1"],
             "dyson has no layer, so I and J do not apply"),
            (["verify", "firstlayer", "--n", "2", "--a", "1,1,1"],
             "layer must select at least one index"),
            (["verify", "main", "--n", "6", "--a", "1,1,1,1,1,1,1", "--I", "2,5,6", "--J", "0,1,3"],
             "crossing pattern in pairing ((2, 0), (5, 1), (6, 3))"),
        ],
        ids=["dyson", "firstlayer", "main"],
    )
    def test_rejected_layers_build_no_product(self, argv, message, monkeypatch, capsys):
        """A layer the identity does not accept fails with exit 2 before the
        q-Dyson product is built."""

        def unbuildable(*args):
            raise AssertionError("built a product")

        monkeypatch.setattr("qdyson.sweeps.q_dyson_source", unbuildable)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        """Several ``cli.main`` calls in one process share one parser."""
        roots = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            if parser.prog == "qdyson":
                roots.append(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (
            ["verify", "qdyson", "--n", "1", "--a", "2,1"],
            ["sweep", "dyson", "--n", "1", "--amax", "1"],
            ["counterexample"],
            ["verify", "qdyson", "--n", "1", "--a", "2,x"],
        ):
            cli.main(argv)
        capsys.readouterr()
        assert len(roots) <= 1

    def test_value_error_under_counterexample_exits_two(self, monkeypatch, capsys):
        """A ``ValueError`` from any subcommand leaves through the one error
        path: ``error: ...`` on stderr, exit 2."""

        def failing():
            raise ValueError("no such instance")

        monkeypatch.setattr(cli, "reproduce_counterexample", failing)
        assert cli.main(["counterexample"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no such instance\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_command_exits_two(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()


class TestSweepCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        assert cli.main(["sweep", "qdyson", "--n", "2", "--amax", "1"]) == 0
        out = capsys.readouterr().out
        assert "qdyson: total=8 passed=8 failed=0 rejected=0 seed=0" in out

    def test_failing_sweep_exits_one(self, monkeypatch, capsys):
        use_set_reading(monkeypatch)
        assert cli.main(["sweep", "main", "--n", "2", "--amax", "1"]) == 1
        out = capsys.readouterr().out
        assert "failed=2" in out
        assert out.count(":: FAILS") == 2
        assert "main n=2 a=1,0,1 I=0,2 J=1,1 :: FAILS" in out

    def test_lemma_sweep(self, capsys, tmp_path):
        path = tmp_path / "lemmas.jsonl"
        argv = [
            "sweep", "lemmas", "--n", "4", "--amax", "3",
            "--seed", "11", "--json", str(path),
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["failed"] == 0
        identities = {json.loads(line)["identity"] for line in lines[:-1]}
        assert identities == {"factorization", "tailcancel", "choiceproduct"}


class TestJsonOutput:
    def test_verify_report_schema_and_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        argv = [
            "verify", "main", "--n", "2", "--a", "1,1,1",
            "--I", "0", "--J", "1", "--json", str(path),
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        (line,) = path.read_text().splitlines()
        obj = json.loads(line)
        assert set(obj) == REPORT_KEYS
        assert set(obj["params"]) == PARAM_KEYS
        assert obj["identity"] == "main"
        assert obj["holds"] is True
        assert obj["engine"].startswith("qdyson/")
        assert obj["params"]["extra"]["semantics"] == "multiset"
        assert dumps(obj) == line  # canonical form round-trips byte for byte

    def test_sweep_json_has_summary_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        argv = ["sweep", "dyson", "--n", "1", "--amax", "2", "--json", str(path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        summary = json.loads(lines[-1])
        assert set(summary) == SUMMARY_KEYS
        assert summary["total"] == len(lines) - 1 == 9
        for line in lines[:-1]:
            obj = json.loads(line)
            assert set(obj) == REPORT_KEYS
            assert dumps(obj) == line

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "main", "--n", "2", "--a", "1,1,1", "--I", "0", "--J", "1"],
            ["sweep", "main", "--n", "2", "--amax", "1"],
            ["counterexample"],
        ],
    )
    def test_no_json_encodes_nothing(self, argv, monkeypatch, capsys):
        """Without ``--json`` no report is encoded."""
        monkeypatch.setattr(VerificationReport, "to_json", None)
        assert cli.main(argv) == 0
        capsys.readouterr()


class TestCounterexample:
    def test_exit_zero_and_message(self, capsys):
        assert cli.main(["counterexample"]) == 0
        out = capsys.readouterr().out
        assert "CT  = 1 + 2*q + 3*q^2 + 2*q^3" in out
        assert "expected failure confirmed: LHS != RHS, both sides as pinned" in out

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "ce.jsonl"
        assert cli.main(["counterexample", "--json", str(path)]) == 0
        capsys.readouterr()
        obj = json.loads(path.read_text())
        assert obj["holds"] is False
        assert obj["params"]["extra"]["expected_failure"] is True
        assert obj["params"]["extra"]["confirmed"] is True


def _stripped_lines(reports):
    """Each report's JSON line, parsed, without ``elapsed_ms``: from a pool
    the lines are the ones the workers encoded."""
    out = []
    for r in reports:
        obj = json.loads(r.to_json())
        obj.pop("elapsed_ms")
        out.append(obj)
    return out


class TestParallelParity:
    def test_jobs_do_not_change_reports(self):
        """Worker count affects timing only: same reports, same order, same
        JSON lines."""
        seq, seq_summary = run_sweep(SweepConfig(identity="main", n=2, amax=1, jobs=1))
        par, par_summary = run_sweep(SweepConfig(identity="main", n=2, amax=1, jobs=2))
        assert seq_summary == par_summary

        def strip(reports):
            out = []
            for r in reports:
                d = r.to_dict()
                d.pop("elapsed_ms")
                out.append(d)
            return out

        assert strip(seq) == strip(par)
        assert _stripped_lines(seq) == _stripped_lines(par) == strip(seq)

    @pytest.mark.parametrize(
        "identity, n", [("firstlayer", 3), ("kadell", 3), ("main", 3), ("main", 4)]
    )
    def test_compiled_layouts_cross_the_pool(self, identity, n):
        """Compiled layouts and their box reach each worker once, through the
        pool's initializer; each task is one cyclic orbit of a, and each
        worker rotates its one pass to the orbit's other members and encodes
        the reports: the layer identities give the same reports and JSON
        lines, in grid order, and summary with one process as with two.
        ``main n=4 amax=1`` is the grid with rejected layouts."""
        runs = [
            run_sweep(SweepConfig(identity=identity, n=n, amax=1, jobs=jobs)) for jobs in (1, 2)
        ]
        (seq, seq_summary), (par, par_summary) = runs
        assert seq_summary == par_summary
        assert seq_summary["rejected"] == (32 if n == 4 else 0)
        assert [r.to_dict() | {"elapsed_ms": 0} for r in seq] == [
            r.to_dict() | {"elapsed_ms": 0} for r in par
        ]
        assert _stripped_lines(seq) == _stripped_lines(par)

    def test_only_orbits_cross_the_pool(self, monkeypatch):
        """Each item the pool maps over is one orbit, a tuple of exponent
        tuples with no ``Layout`` in it, largest first, and together they
        are the grid and pickle to under 2 KB (the layouts sent with every
        task came to about 400 KB on this grid)."""
        submitted = []

        class Recording(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                (items,) = map(list, iterables)
                submitted.extend(items)
                return super().map(fn, items, **kwargs)

        two_usable_cpus(monkeypatch)
        monkeypatch.setattr("qdyson.sweeps.ProcessPoolExecutor", Recording)
        _, summary = run_sweep(SweepConfig(identity="main", n=4, amax=1, jobs=2))
        assert summary["total"] == 4000 and summary["failed"] == 0
        assert all(
            type(orbit) is tuple
            and all(type(a) is tuple and all(type(x) is int for x in a) for a in orbit)
            for orbit in submitted
        )
        sizes = [len(orbit) for orbit in submitted]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]
        assert sorted(a for orbit in submitted for a in orbit) == a_grid(4, 1)
        assert len(pickle.dumps(submitted)) < 2048

    def test_the_pool_runs_under_spawn(self, monkeypatch):
        """The workers take the sweep's layouts from the pool's initializer,
        not from a forked parent: under spawn (the default on macOS; Python
        3.14 defaults to forkserver on Linux) a pool sweep gives the serial
        reports."""
        seq, seq_summary = run_sweep(SweepConfig(identity="main", n=2, amax=1, jobs=1))
        spawn = multiprocessing.get_context("spawn")
        two_usable_cpus(monkeypatch)
        monkeypatch.setattr(
            "qdyson.sweeps.ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=spawn),
        )
        par, par_summary = run_sweep(SweepConfig(identity="main", n=2, amax=1, jobs=2))
        assert seq_summary == par_summary
        assert _stripped_lines(seq) == _stripped_lines(par)


class TestPoolRows:
    """A pool sweep's reports come back as rows (holds, JSON line) and are
    read like the serial reports."""

    @staticmethod
    def _untimed(text):
        return re.sub(r"\(\d+\.\d ms\)", "(ms)", text)

    def test_a_failing_pool_sweep_prints_the_serial_output(self, monkeypatch, capsys):
        use_set_reading(monkeypatch)
        two_usable_cpus(monkeypatch)
        outs = []
        for jobs in ("1", "2"):
            argv = ["sweep", "main", "--n", "2", "--amax", "1", "--jobs", jobs]
            assert cli.main(argv) == 1
            outs.append(self._untimed(capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[1].count(":: FAILS") == 2

    def test_a_library_caller_reads_the_serial_fields(self, monkeypatch):
        two_usable_cpus(monkeypatch)
        runs = [
            run_sweep(SweepConfig(identity="kadell", n=2, amax=1, jobs=jobs))[0]
            for jobs in (1, 2)
        ]

        def fields(rep):
            return (
                rep.identity, rep.params, rep.holds, rep.lhs, rep.rhs, rep.engine,
                type(rep.elapsed_ms), self._untimed(rep.summary_line()),
            )

        seq, par = ([fields(rep) for rep in reports] for reports in runs)
        assert seq == par
        assert all(type(rep) is VerificationReport for rep in runs[0])


def _strip_elapsed(path):
    out = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        obj.pop("elapsed_ms", None)
        out.append(obj)
    return out


@pytest.mark.parametrize("identity", [name for name, i in IDENTITIES.items() if i.check])
def test_verify_and_sweep_agree(identity, tmp_path, capsys):
    """Each sweep report (read from one pass over the union of its layouts'
    boxes) is the report ``verify`` gives for that instance (read from one
    pass over the box of that check alone)."""
    path = tmp_path / "sweep.jsonl"
    assert cli.main(["sweep", identity, "--n", "2", "--amax", "1", "--json", str(path)]) == 0
    *reports, _summary = _strip_elapsed(path)
    assert reports
    for report in reports:
        p = report["params"]
        argv = ["verify", identity, "--n", str(p["n"]), "--a", ",".join(map(str, p["a"]))]
        if p["I"]:
            argv += ["--I", ",".join(map(str, p["I"])), "--J", ",".join(map(str, p["J"]))]
        one = tmp_path / "verify.jsonl"
        assert cli.main(argv + ["--json", str(one)]) == 0
        assert _strip_elapsed(one) == [report]
    capsys.readouterr()


def test_module_entry_point():
    """The subprocess imports the same ``qdyson`` as the tests, installed or
    not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdyson.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qdyson.cli", "verify", "qdyson", "--n", "1", "--a", "2,1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert ":: holds" in proc.stdout


@pytest.mark.parametrize("script", ["run_grids.py", "count_code_lines.py"])
def test_script_runs_from_checkout(script, tmp_path):
    """The scripts find the checkout's ``src/`` themselves: no install, no
    PYTHONPATH, any working directory.  The line count also counts the
    tests."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "scripts", script)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, path, "--help"], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    if script == "count_code_lines.py":
        proc = subprocess.run(
            [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        name, lines, statements = proc.stdout.splitlines()[-1].split()
        assert name == "tests" and int(lines) > 0 and int(statements) > 0


def test_no_module_imports_an_unused_name():
    """Every name a ``src/qdyson`` module imports is read somewhere in that
    module, by an ``ast`` walk, as no linter is a dependency.  The package
    ``__init__`` is left out, as its imports are the exported API, and so
    is ``from __future__``."""
    package = os.path.dirname(os.path.abspath(qdyson.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, (name, sorted(imported - read))


def test_usage_names_every_flag():
    """Each usage line of the ``cli`` docstring names exactly the flags its
    subcommand's parser defines, so a removed flag cannot linger in the
    help text and a new one cannot go unmentioned."""
    usage = {}
    for line in cli.__doc__.splitlines():
        words = line.split()
        if words[:1] == ["qdyson"]:
            usage[words[1]] = set(re.findall(r"--\w+", line))
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    defined = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert usage == defined
