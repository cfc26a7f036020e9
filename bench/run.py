"""Run one workload of the cideals benchmark and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Every pass of the workload runs in a fresh interpreter (cold library
caches), one worker at a time, as a single-threaded closed loop: each op
starts when the previous one has returned.  The number of passes follows
from ``--seconds`` and a fixed nominal pass time per workload, never
from how fast the passes go.  Set-up (``import cideals`` plus building
the inputs from documents) is also sampled in extra fresh interpreters.

Times are scaled to a reference host speed: each worker times a fixed
pure-Python probe between its ops, and an op's time is multiplied by
``PROBE_REF_S`` over the mean time of the probes taken around it.  Op
latencies are each op's median over the passes; ``wall_s`` is their
sum.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
plain pass, one traced pass and one scalar-counting pass and prints the
per-layer metrics.  Every op's output is checked against references
recorded at the seed commit.  The last line of standard output is the
JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_SAMPLES = 2  # set-ups sampled besides those of the passes
# Nominal seconds of one pass, set-up included, on a 2-vCPU VM under
# load; ``--seconds`` buys ``seconds // PASS_S`` passes (at least one).
PASS_S = {"sweep": 13.0, "lattice": 10.0, "lines": 12.0}
# Probe time that scaled times refer to: a scaled second is the time
# the op would take on a host where the probe takes one millisecond.
PROBE_REF_S = 0.001
WORKER_TIMEOUT_S = 170
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
SUITES = tuple(f"T{k}" for k in range(1, 12))


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, tiny: bool) -> dict:
    """Run one worker to completion and return its JSON result."""
    spec = json.dumps({"workload": workload, "seed": seed, "mode": mode, "tiny": tiny})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_refs(workload: str) -> dict:
    with open(os.path.join(HERE, "refs", f"{workload}.json")) as f:
        return json.load(f)


def check(result: dict, refs: dict) -> list:
    """Keys of the ops whose output is wrong, raised, or reports a failed claim."""
    bad = []
    for key, dig in zip(result["keys"], result["digests"]):
        if refs.get(key) != dig or key in result["errors"] or key in result["suite_fails"]:
            bad.append(key)
    return bad


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "load_1m": os.getloadavg()[0],
    }


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the
    reference speed."""
    return seconds * PROBE_REF_S / probe_s


def end_to_end(workload, seed, seconds, tiny):
    setups = [spawn(workload, seed, "setup", tiny) for _ in range(SETUP_SAMPLES)]
    passes = [spawn(workload, seed, "pass", tiny)
              for _ in range(max(1, int(seconds // PASS_S[workload])))]
    setup_s = [scaled(p["setup_s"], p["setup_probe_s"]) for p in setups + passes]
    op_s = [statistics.median(times) for times in zip(
        *(map(scaled, p["op_s"], p["op_probe_s"]) for p in passes))]
    metrics = {
        "wall_s": sum(op_s),
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": 1000 * percentile(op_s, 50),
        "op_p90_ms": 1000 * percentile(op_s, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    info = {"passes": len(passes), "ops_per_pass": len(op_s),
            "measured_pass_walls_s": [round(sum(p["op_s"]), 4) for p in passes],
            "probe_ms": [round(1000 * p["probe_s"], 4) for p in passes],
            "setup_samples_s": [round(s, 4) for s in setup_s]}
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def per_layer(workload, seed, tiny):
    plain = spawn(workload, seed, "pass", tiny)
    traced = spawn(workload, seed, "traced", tiny)
    counted = spawn(workload, seed, "count", tiny)
    layers = traced["layers"]
    layers["fields.scalar_ops"] = counted["scalar_ops"]
    # Both walls at the reference speed, so that a slow spell of the
    # host during one of the two passes does not read as overhead.
    plain_wall = scaled(sum(plain["op_s"]), plain["probe_s"])
    traced_wall = scaled(layers["trace.wall_s"], traced["probe_s"])
    layers["trace.overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    for sid in SUITES:
        layers[f"harness.{sid}.s"] = plain["suite_s"].get(sid, 0.0)
    info = {"absent": traced["absent"] + counted["absent"], "passes": 3}
    return [plain, traced, counted], {k: (v, layer_unit(k)) for k, v in layers.items()}, info


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".calls") or name.startswith("cideal.rung.") or name in (
        "cideal.unknown", "fields.scalar_ops"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few ops per workload (self-tests)")
    args = ap.parse_args(argv)

    prov = provenance()
    try:
        refs = load_refs(args.workload)
        if args.trace:
            passes, metrics, info = per_layer(args.workload, args.seed, args.tiny)
        else:
            passes, metrics, info = end_to_end(args.workload, args.seed, args.seconds, args.tiny)
    except (OSError, ValueError, WorkerFailed, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    attempted = sum(len(p["keys"]) for p in passes)
    bad = [key for p in passes for key in check(p, refs)]
    for p in passes:
        for key, err in p["errors"].items():
            print(f"error  {key}: {err}")
    for key in sorted(set(bad)):
        print(f"wrong  {key}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  {json.dumps(info, sort_keys=True)}")
    per_pass = len(passes[0]["keys"])
    for name, (value, unit) in sorted(metrics.items()) if args.trace else metrics.items():
        note = f"  (n={per_pass} ops, median of {len(passes)} passes)" if name.startswith("op_") else ""
        print(f"  {name:48s} {value:14.6f} {unit}{note}")
    print(f"  {'fail_rate':48s} {len(bad) / attempted:14.6f} ratio  "
          f"({len(bad)}/{attempted} ops, {per_pass} per pass)")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
