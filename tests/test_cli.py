"""Command-line interface: exit codes, JSON output, parallel parity."""

import json
import os
import subprocess
import sys

import pytest

import qdyson
from qdyson import cli
from qdyson.reports import dumps
from qdyson.sweeps import IDENTITIES, SweepConfig, run_sweep

REPORT_KEYS = {"identity", "params", "holds", "lhs", "rhs", "elapsed_ms", "engine"}
PARAM_KEYS = {"n", "a", "I", "J", "extra"}
SUMMARY_KEYS = {"total", "passed", "failed", "rejected", "seed"}


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

    def test_failing_instance_exits_one(self, capsys):
        argv = [
            "verify", "main", "--n", "2", "--a", "1,0,1",
            "--I", "0,2", "--J", "1,1", "--semantics", "set",
        ]
        assert cli.main(argv) == 1
        assert ":: FAILS" in capsys.readouterr().out

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
        ],
    )
    def test_bad_input_exits_two(self, argv, capsys):
        assert cli.main(argv) == 2
        capsys.readouterr()

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

    def test_failing_sweep_exits_one(self, capsys):
        argv = ["sweep", "main", "--n", "2", "--amax", "1", "--semantics", "set"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "failed=2" in out
        assert out.count(":: FAILS") == 2

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


class TestParallelParity:
    def test_jobs_do_not_change_reports(self):
        """Worker count affects timing only: same reports, same order."""
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


def _strip_elapsed(path):
    out = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        obj.pop("elapsed_ms", None)
        out.append(obj)
    return out


@pytest.mark.parametrize("identity", [name for name, i in IDENTITIES.items() if i.check])
def test_verify_and_sweep_agree(identity, tmp_path, capsys):
    """Each sweep report (expanded product for layer identities) is the
    report ``verify`` gives for that instance (pruned extraction)."""
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
