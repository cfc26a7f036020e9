"""One pass of one workload in a fresh interpreter.

Usage: ``python3 bench/worker.py '<json spec>'`` with the keys
``workload``, ``seed``, ``tiny`` and ``mode``:

- ``setup``: import ``cideals`` and build the inputs, nothing else;
- ``pass``: set up, then run every op in order (a closed loop);
- ``traced``: the same with the outside-in tracer installed;
- ``count``: the same with the ops' scalar arithmetic counted.

The last line of standard output is one JSON object: the set-up time,
every op's latency and output digest, the peak RSS, and the times of a
speed probe run around set-up and between ops (see ``probe``).  The
exit code
is 0 whenever the pass ran, whatever the ops returned; checking the
digests is the coordinator's job.  It is 2 when ``cideals`` cannot be
imported from this checkout's ``src``.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # probes before and after set-up
PROBE_EVERY_S = 0.025  # least op time between two probes of a pass
PROBE_WINDOW_S = 0.5  # an op's speed: probes this close to its start or end


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now.

    On a shared host other tenants can slow this process by half for
    seconds at a time.  The probe, run between ops, samples that
    slowdown so the coordinator can scale each op's time by the probes
    taken around it.  It touches no ``cideals`` code and none of its
    caches.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(8000):
        table[i & 63] = acc
        acc += i * i % 7
    return time.perf_counter() - start


def import_cideals():
    sys.path.insert(0, SRC)
    try:
        import cideals
    except ImportError as e:
        print(f"cannot import cideals from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(cideals.__file__).startswith(SRC + os.sep):
        print(f"cideals came from {cideals.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cideals


def execute(c, op, call=None):
    """Time one op and canonicalise its output.

    Returns ``(seconds, output, canonical output, error text or None)``.
    BudgetExceeded is an output like any other (the reference says
    whether it is expected); any other exception is an error.
    """
    perf = time.perf_counter
    start = perf()
    try:
        out = call(op) if call else op.fn(*op.args)
    except c.BudgetExceeded:
        return perf() - start, None, {"raises": "BudgetExceeded"}, None
    except Exception as e:  # noqa: BLE001 - an op that raises is a failed op
        return perf() - start, None, None, f"{type(e).__name__}: {e}"
    elapsed = perf() - start
    try:
        return elapsed, out, op.canon(out), None
    except Exception as e:  # noqa: BLE001 - an output that cannot be read fails
        return elapsed, out, None, f"{type(e).__name__}: {e}"


def near_probes(probes, starts, op_s):
    """Per op, the mean probe time within ``PROBE_WINDOW_S`` of it.

    A probe precedes the first op and follows every op that ends
    ``PROBE_EVERY_S`` or more after the previous probe, so each op has
    one within the window.
    """
    at = [t for t, _ in probes]
    out = []
    for start, elapsed in zip(starts, op_s):
        lo = bisect.bisect_left(at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, start + elapsed + PROBE_WINDOW_S)
        out.append(statistics.mean(p for _, p in probes[lo:hi]))
    return out


def run(spec: dict) -> dict:
    mode = spec["mode"]
    around = [probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    c = import_cideals()
    tracer = counter = None
    if mode == "traced":
        tracer = tracing.Tracer().install()
        ops = tracer.root("setup", workloads.build, c, spec["workload"], spec["seed"], spec["tiny"])
        tracer.end_setup()
    else:
        ops = workloads.build(c, spec["workload"], spec["seed"], spec["tiny"])
    setup_s = time.perf_counter() - t0
    around += [probe() for _ in range(SETUP_PROBES)]
    if mode == "count":
        counter = tracing.ScalarCounter().install()
    result = {"mode": mode, "setup_s": setup_s, "setup_probe_s": statistics.mean(around),
              "ops": len(ops)}
    if mode == "setup":
        return result

    call = (lambda op: tracer.root("op", op.fn, *op.args)) if tracer else None
    keys, op_s, digests, suite_fails, errors = [], [], [], [], {}
    suite_s = {}
    probes, starts = [(time.perf_counter(), probe())], []
    last = time.perf_counter()
    for op in ops:
        starts.append(time.perf_counter())
        elapsed, out, canon, error = execute(c, op, call)
        keys.append(op.key)
        op_s.append(elapsed)
        digests.append("raised" if error else workloads.digest(canon))
        if error:
            errors[op.key] = error
        elif op.suite is not None and isinstance(canon, list):
            if any(r["status"] == "fail" for r in canon):
                suite_fails.append(op.key)
            suite_s[op.suite] = suite_s.get(op.suite, 0.0) + sum(r.seconds for r in out)
        if time.perf_counter() - last >= PROBE_EVERY_S:
            probes.append((time.perf_counter(), probe()))
            last = time.perf_counter()
    probes.append((time.perf_counter(), probe()))
    result.update(
        keys=keys,
        op_s=op_s,
        digests=digests,
        errors=errors,
        suite_fails=suite_fails,
        suite_s=suite_s,
        probe_s=statistics.mean(p for _, p in probes),
        op_probe_s=near_probes(probes, starts, op_s),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{spec['workload']}-{spec['seed']}.json"))
    if counter is not None:
        result["scalar_ops"] = counter.total()
        result["absent"] = counter.absent
    return result


def main(argv):
    spec = json.loads(argv[1])
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
