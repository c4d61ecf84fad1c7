"""Tracing for the per-layer run, from outside the program.

``Tracer.install`` replaces each traced function at every place its name is
bound in the loaded ``qdyson`` modules: module globals (so ``kadell``'s own
``ct_of_factor_list`` and the four modules that import ``q_multinomial*``
are covered) and class attributes (so ``QPoly.__rmul__``, an alias of
``__mul__``, is covered).  ``uninstall`` puts every original back.

Timed calls keep a stack, so each layer's self time is its calls' time minus
the time of the traced calls they made.  Coarse calls (``cli.main``, the
sweep steps and the ``verify_*`` functions) also record a span: id, parent
id, name, start, end and process id.  A metric group (``laurent.extract``
and so on) counts calls and time at its outermost level only, so nested
calls in one group are not counted twice.  Count-only calls (``QPoly`` and
``LaurentPoly`` multiplication, coefficient lookups) are not timed: their
time is charged to the traced call that made them.

Pool workers inherit the installed wrappers when the pool forks.  Each one
writes its counters and spans per task to a spool directory, and the
parent adds them in with ``merge_spool``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, group or None, coarse span?)
TIMED = (
    ("qdyson.cli", "main", None, True),
    ("qdyson.sweeps", "run_sweep", None, True),
    ("qdyson.sweeps", "_execute", None, True),
    ("qdyson.sweeps", "lemma_suite_reports", None, True),
    ("qdyson.dyson", "verify_q_dyson", None, True),
    ("qdyson.dyson", "verify_dyson", None, True),
    ("qdyson.firstlayer", "verify_first_layer", None, True),
    ("qdyson.kadell", "verify_kadell", None, True),
    ("qdyson.kadell", "verify_q_kadell", None, True),
    ("qdyson.kadell", "reproduce_counterexample", None, True),
    ("qdyson.paired", "verify_paired", None, True),
    ("qdyson.laurent", "ct_of_factor_list", "laurent.extract", False),
    ("qdyson.laurent", "expand_product", "laurent.expand", False),
    ("qdyson.dyson", "q_dyson_factors", "dyson.build", False),
    ("qdyson.dyson", "dyson_factors", "dyson.build", False),
    ("qdyson.kadell", "modified_q_product", "dyson.build", False),
    ("qdyson.kadell", "corrected_ct", "kadell.corrected_ct", False),
    ("qdyson.firstlayer", "first_layer_closed", "firstlayer.closed", False),
    ("qdyson.firstlayer", "first_layer_closed_q1", "firstlayer.closed", False),
    ("qdyson.paired", "correction_polynomial", "paired.correction", False),
    ("qdyson.paired", "chain_exponent", "paired.chain_exponent", False),
    ("qdyson.paired", "verify_factorization", "paired.lemma", False),
    ("qdyson.paired", "tail_cancel_values", "paired.lemma", False),
    ("qdyson.paired", "matrix_choice_property", "paired.lemma", False),
    ("qdyson.qpoly", "q_multinomial", "qpoly.qmultinomial", False),
    ("qdyson.qpoly", "q_multinomial_poly", "qpoly.qmultinomial", False),
    ("qdyson.qpoly", "divexact", "qpoly.divexact", False),
    ("qdyson.qpoly", "QRat.__eq__", "qpoly.qrat_eq", False),
    ("qdyson.reports", "VerificationReport.to_json", "reports.to_json", False),
)


def _resolve(modname: str, path: str):
    obj = sys.modules[modname]
    for part in path.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _namespaces():
    """Loaded qdyson modules and the classes they define, each once."""
    seen: dict[int, object] = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qdyson" or name.startswith("qdyson.")):
            continue
        seen.setdefault(id(mod), mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("qdyson"):
                seen.setdefault(id(value), value)
    return list(seen.values())


class Tracer:
    """Counters, layer self times and coarse spans of one traced pass."""

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.agg: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.depth: defaultdict[str, int] = defaultdict(int)
        self.slot = ""
        self.owner = self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _new_id(self) -> int:
        return self.pid * 1_000_000_000 + next(self._ids)

    def _timed(self, fn, layer: str, group: str | None, coarse: bool, hook=None):
        tr = self
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1] if stack else None
            frame = [0.0, tr._new_id() if coarse else (parent[1] if parent else None)]
            stack.append(frame)
            if group:
                tr.depth[group] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                stack.pop()
                agg = tr.agg
                agg[layer + ".self_s"] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if group:
                    tr.depth[group] -= 1
                    if tr.depth[group] == 0:
                        agg[group + "_calls"] += 1
                        agg[group + "_s"] += dt
                if coarse:
                    tr.spans.append(
                        (frame[1], parent[1] if parent else None, name, t0, t1, tr.pid)
                    )
            if hook is not None:
                metric, amount = hook(args, result, dt)
                tr.agg[metric] += amount
            return result

        return wrapper

    def _wrappers(self):
        """(original, wrapper) for every traced function."""
        agg = self.agg
        out = []
        # (args, result, seconds) -> (metric, amount to add) after a call
        hooks = {
            "expand_product": lambda a, r, dt: ("laurent.expanded_terms", r.num_terms()),
            "VerificationReport.to_json": lambda a, r, dt: ("reports.bytes", len(r)),
            "_execute": lambda a, r, dt: ("sweeps.tasks", len(a[0])),
            "run_sweep": lambda a, r, dt: (f"sweeps.run_sweep_s.{self.slot}", dt),
        }
        for builder in ("q_dyson_factors", "dyson_factors", "modified_q_product"):
            hooks[builder] = lambda a, r, dt: ("dyson.factor_terms", sum(f.num_terms() for f in r))
        for modname, path, group, coarse in TIMED:
            fn = _resolve(modname, path)
            layer = modname.rsplit(".", 1)[1]
            out.append((fn, self._timed(fn, layer, group, coarse, hooks.get(path))))

        run_task = _resolve("qdyson.sweeps", "_run_task")
        out.append((run_task, self._pool_task(run_task, self._timed(run_task, "sweeps", None, True))))

        qpoly_cls = _resolve("qdyson.qpoly", "QPoly")
        qmul = _resolve("qdyson.qpoly", "QPoly.__mul__")

        @functools.wraps(qmul)
        def qpoly_mul(a, b):
            la = len(a.coeffs)
            lb = len(b.coeffs) if isinstance(b, qpoly_cls) else 1
            agg["qpoly.mul_calls"] += 1
            agg["qpoly.mul_coeff_ops"] += la * lb
            longest = la if la > lb else lb
            if longest > agg["qpoly.mul_max_len"]:
                agg["qpoly.mul_max_len"] = longest
            return qmul(a, b)

        lmul = _resolve("qdyson.laurent", "LaurentPoly.__mul__")

        @functools.wraps(lmul)
        def laurent_mul(a, b):
            agg["laurent.mul_calls"] += 1
            return lmul(a, b)

        coeff = _resolve("qdyson.laurent", "FactoredProduct.coeff")

        @functools.wraps(coeff)
        def lookup(source, target):
            if source.expanded is not None:
                agg["laurent.lookups"] += 1
            return coeff(source, target)

        out += [(qmul, qpoly_mul), (lmul, laurent_mul), (coeff, lookup)]
        return out

    def _pool_task(self, fn, timed):
        """In a pool worker, run each task with fresh counters and spool them."""
        tr = self

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == tr.owner:
                return timed(task)
            if tr.pid != os.getpid():  # first task in this worker
                fork_parent = tr.stack[-1][1] if tr.stack else None
                tr.pid = os.getpid()
                tr.stack = [[0.0, fork_parent]]
                tr.depth.clear()
            tr.agg.clear()
            tr.spans.clear()
            result = timed(task)
            with open(os.path.join(tr.spool, f"{tr.pid}.jsonl"), "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"agg": tr.agg, "spans": tr.spans}) + "\n")
            return result

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        import qdyson  # noqa: F401  - loads every module whose names are bound

        spaces = _namespaces()
        for original, wrapper in self._wrappers():
            bound = 0
            for space in spaces:
                for name, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, name, wrapper)
                        self._undo.append((space, name, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"traced function {original!r} is bound nowhere")

    def uninstall(self) -> None:
        while self._undo:
            space, name, original = self._undo.pop()
            setattr(space, name, original)

    def merge_spool(self) -> None:
        """Add the counters and spans pool workers wrote."""
        if not os.path.isdir(self.spool):
            return
        for entry in sorted(os.listdir(self.spool)):
            with open(os.path.join(self.spool, entry), encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    for key, value in record["agg"].items():
                        if key == "qpoly.mul_max_len":
                            self.agg[key] = max(self.agg[key], value)
                        else:
                            self.agg[key] += value
                    self.spans.extend(tuple(s) for s in record["spans"])

    def metrics(self) -> dict[str, float]:
        """Counters with the derived lookup ratio added."""
        out = dict(self.agg)
        terms = out.get("laurent.expanded_terms", 0)
        out["laurent.lookup_ratio"] = out.get("laurent.lookups", 0) / terms if terms else 0.0
        return out
