"""One pass of a workload, in a fresh process.

    python3 benchmark/pass_worker.py SPEC.json RESULT.json

SPEC holds ``workload``, ``seed``, ``grid_set``, ``mode`` (``setup``,
``pass`` or ``trace``), ``tmp`` (a scratch directory) and, for ``trace``,
``spans`` (where to write the spans).  Set-up is timed from the first line
of this file through importing ``qdyson`` and drawing the units.  A pass then
calls ``cli.main`` once per unit and measures each call's wall time and CPU
time (pool workers included, through ``RUSAGE_CHILDREN``), the peak RSS and
the load average at its start and end.  Before the first unit and after each
one it times ``reference_chunk_s`` a few times, so the pass can be scaled to
a reference machine speed.  Outputs are read and digested after the timed loop.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from qdyson import cli  # noqa: E402


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


_REF_POLY = tuple(range(1, 41))
# Reference chunks timed per pass, spread over the gaps between units.  The
# machine's speed moves by a tenth within milliseconds, so one reading says
# little; the median of about two hundred says how fast the pass ran.
REF_READINGS = 200


def reference_chunk_s() -> float:
    """Time of a fixed piece of pure-Python work shaped like the kernel's
    (schoolbook products of integer tuples, dicts keyed by exponent tuples).
    It uses no qdyson code and runs with the garbage collector paused, so
    only the machine's current speed moves it."""
    a = _REF_POLY
    n = len(a)
    collecting = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(8):
            out = [0] * (2 * n - 1)
            terms: dict = {}
            for i in range(n):
                x = a[i]
                for j in range(n):
                    out[i + j] += x * a[j]
                for j in range(0, n, 4):
                    key = (i, j, i - j)
                    terms[key] = terms.get(key, 0) + x * a[j]
        return time.perf_counter() - t
    finally:
        if collecting:
            gc.enable()


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = workloads.draw(spec["workload"], spec["seed"], spec["grid_set"])
    result = {"setup_s": time.perf_counter() - T0}
    if spec["mode"] != "setup":
        result.update(_run_pass(units, spec))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run_pass(units, spec) -> dict:
    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer

        tracer = Tracer(os.path.join(spec["tmp"], "spool"))
        os.makedirs(tracer.spool, exist_ok=True)
    paths = [os.path.join(spec["tmp"], f"unit{i}.jsonl") for i in range(len(units))]
    rcs, unit_s, unit_cpu_s = [], [], []
    load0 = os.getloadavg()[0]
    if tracer:
        tracer.install()
    per_gap = -(-REF_READINGS // (len(units) + 1))
    try:
        ref_s = [reference_chunk_s() for _ in range(per_gap)]
        for unit, path in zip(units, paths):
            if tracer:
                tracer.slot = unit["slot"] or ""
            cpu = _cpu_s()
            t = time.perf_counter()
            rcs.append(workloads.call(cli.main, unit, path))  # looked up late: traced
            unit_s.append(time.perf_counter() - t)
            unit_cpu_s.append(_cpu_s() - cpu)
            ref_s += [reference_chunk_s() for _ in range(per_gap)]
    finally:
        if tracer:
            tracer.uninstall()
    load1 = os.getloadavg()[0]
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    outputs = []
    for unit, path, rc in zip(units, paths, rcs):
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        out = gate.read_unit(text, rc)
        out["key"] = unit["key"]
        outputs.append(out)
    result = {
        "unit_s": unit_s,
        "unit_cpu_s": unit_cpu_s,
        "ref_s": ref_s,
        "peak_rss_mb": rss / 1024.0,
        "load": [load0, load1],
        "units": outputs,
    }
    if tracer:
        tracer.merge_spool()
        result["trace"] = tracer.metrics()
        result["span_count"] = len(tracer.spans)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, pid in tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "pid": pid}) + "\n")
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
