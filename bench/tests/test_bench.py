"""The benchmark's own tests: ``python3 -m pytest -q bench/tests``.

They run tiny versions of the workloads, so they check the harness,
not the speed of the library.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert "fail_rate" in proc.stdout


def test_output_check_catches_a_corrupted_output():
    c = worker.import_cideals()
    refs = run.load_refs("lattice")
    ops = workloads.build(c, "lattice", 1, tiny=True)
    by_op = {op.key.rsplit("|", 1)[1]: op for op in ops[:6]}
    by_op["enum_ideals"].fn = lambda l: c.enum_ideals(l)[:-1]  # drops one ideal

    def raises(l):
        raise c.BudgetExceeded("not expected here")

    by_op["cartan_subalgebras"].fn = raises
    result = {"keys": [], "digests": [], "errors": {}, "suite_fails": []}
    for op in ops:
        _, _, canon, error = worker.execute(c, op)
        result["keys"].append(op.key)
        result["digests"].append("raised" if error else workloads.digest(canon))
    bad = run.check(result, refs)
    assert bad == [by_op["enum_ideals"].key, by_op["cartan_subalgebras"].key]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_self_times_account_for_traced_wall_time(workload):
    traced = run.spawn(workload, 3, "traced", tiny=True)
    layers = traced["layers"]
    modules = sum(layers[f"{m}.self_s"] for m in tracer.MODULES)
    assert modules + layers["trace.untraced_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9, abs=1e-9)
    # The catalog boundaries are read from set-up, which holds them.
    assert layers["catalog.self_s"] == 0.0
    setup_catalog = layers["catalog.parse.self_s"] + layers["catalog.random_solvable.self_s"]
    assert 0.0 < setup_catalog <= layers["trace.setup_s"]


def test_missing_boundaries_are_reported_absent():
    spans = tracer.Tracer(package="no_such_package").install()
    spans.end_setup()
    metrics = spans.metrics()
    assert len(spans.absent) == len(tracer.BOUNDARIES)
    assert metrics["lattice.core.calls"] == 0 and metrics["linalg.self_s"] == 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
