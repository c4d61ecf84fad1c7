"""Structured verification results and their stable JSON form."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable

ENGINE = "qdyson/0.1.0"


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, compact separators.  Parsing a line and
    re-dumping it reproduces the bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    ``holds`` records exact equality of the two sides; ``lhs``/``rhs`` are
    their canonical renderings.  A report is not changed once built: derive
    another with ``dataclasses.replace``.
    """

    identity: str
    params: dict
    holds: bool
    lhs: str
    rhs: str
    elapsed_ms: float
    engine: str = ENGINE

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "elapsed_ms": self.elapsed_ms,
            "engine": self.engine,
        }

    def to_json(self) -> str:
        """The canonical JSON line of ``to_dict``, made on each call: a run
        encodes each report at most once.  A pool worker encodes its
        reports, and only each one's ``holds`` and line go back to the
        parent, as a ``ReportRow``."""
        return dumps(self.to_dict())

    def summary_line(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        p = self.params
        bits = [self.identity, f"n={p['n']}", "a=" + ",".join(map(str, p["a"]))]
        if p["I"]:
            bits.append("I=" + ",".join(map(str, p["I"])))
        if p["J"]:
            bits.append("J=" + ",".join(map(str, p["J"])))
        return f"{' '.join(bits)} :: {verdict} ({self.elapsed_ms:.1f} ms)"


class ReportRow:
    """A check's verdict and its JSON line, as a pool worker sends them
    back.  ``holds`` and ``to_json`` read them as they are; every other
    field and method is that of the ``VerificationReport`` parsed from the
    line on the first such read and kept.  So a passing check written out
    with ``--json`` is never parsed."""

    __slots__ = ("holds", "_line", "_report")

    def __init__(self, holds: bool, line: str) -> None:
        self.holds = holds
        self._line = line
        self._report: VerificationReport | None = None

    def to_json(self) -> str:
        return self._line

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):  # pickle and copy probe these, maybe before __init__
            raise AttributeError(name)
        if self._report is None:
            self._report = VerificationReport(**json.loads(self._line))
        return getattr(self._report, name)


def _render(value: Any) -> str:
    return value.render() if hasattr(value, "render") else str(value)


def report(
    identity: str,
    inst,
    t0: float,
    holds: bool,
    lhs: Any,
    rhs: Any,
    extra: Callable[[], dict] | None = None,
) -> VerificationReport:
    """The report of one check of the ``Instance`` inst, begun at t0 (a
    ``time.perf_counter`` reading).  The clock is read first, so
    ``elapsed_ms`` covers the check and nothing of its report: only then
    are ``extra()`` built and lhs and rhs rendered (by their ``render``
    method, else by ``str``), once when they are the same object."""
    elapsed = time.perf_counter() - t0
    lhs_text = _render(lhs)
    return VerificationReport(
        identity=identity,
        params={
            "n": inst.n,
            "a": list(inst.a),
            "I": list(inst.I),
            "J": list(inst.J),
            "extra": extra() if extra else {},
        },
        holds=holds,
        lhs=lhs_text,
        rhs=lhs_text if rhs is lhs else _render(rhs),
        elapsed_ms=round(elapsed * 1000.0, 3),
    )
