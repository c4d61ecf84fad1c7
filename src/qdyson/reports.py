"""Structured verification results and their stable JSON form."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

ENGINE = "qdyson/0.1.0"


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, compact separators.  Parsing a line and
    re-dumping it reproduces the bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def make_params(inst, extra: dict | None = None) -> dict:
    """The ``params`` of a report on the ``Instance`` inst."""
    return {
        "n": inst.n,
        "a": list(inst.a),
        "I": list(inst.I),
        "J": list(inst.J),
        "extra": dict(extra or {}),
    }


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    ``holds`` records exact equality of the two sides; ``lhs``/``rhs`` are
    their canonical renderings.
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
