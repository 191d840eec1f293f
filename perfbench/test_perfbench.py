"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Seeded inputs are reproducible, names follow the metric-name rule, the
trace attribution partitions an iteration, the CPU reading sees this
process, the harness refuses to run without the program, and a tiny run
of every workload passes its oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import inputs, trace, workloads  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _digest(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*.parquet"))}


def _generate(root: Path, seed: int) -> dict:
    inputs.write_token_inputs(str(root / "tok"), 3000, 300, seed)
    inputs.write_sql_inputs(str(root / "sql"), 0.0005, seed)
    return _digest(root)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = _generate(tmp_path / "a", 7)
    b = _generate(tmp_path / "b", 7)
    c = _generate(tmp_path / "c", 8)
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a if "region" not in k and "nation" not in k)


def test_names_follow_the_rule():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]]
             + list(workloads.WORKLOADS) + list(PER_LAYER))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names), names
    assert {m["name"] for m in spec["per_layer"]} == set(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_self_times_partition_the_iteration():
    tr = trace.Tracer("t")
    tr.spans = [
        dict(id=0, name="iteration", layer="bench.driver_s", start=0.0, end=10.0, parent=None),
        dict(id=1, name="call", layer="call.driver_s", start=1.0, end=9.0, parent=0),
    ]
    ops = [dict(name="ReadParquet", wall=1.0, udf=0.0),
           dict(name="MapBatches(k)", wall=2.0, udf=1.5)]
    tr.datasets = [
        dict(start=2.0, end=5.0, parent=1, ops=ops),      # 3 s, 3 s busy
        dict(start=4.0, end=6.0, parent=1, ops=ops),      # overlaps the first
        dict(start=7.0, end=8.0, parent=1, ops=ops[:1]),  # 1 s, 1 s busy
    ]

    def op_layer(span, op):
        return [("read.s" if op.startswith("Read") else "kernel.s", "wall")]

    got = trace.self_times(tr, 0, op_layer)
    assert sum(got.values()) == pytest.approx(10.0)
    assert got["bench.driver_s"] == pytest.approx(2.0)
    assert got["call.driver_s"] == pytest.approx(3.0)
    # the overlapping pair lasts 4 s for 6 s of task time: scaled by 2/3
    assert got["read.s"] == pytest.approx(2 * 2 / 3 + 1.0)
    assert got["kernel.s"] == pytest.approx(4 * 2 / 3)
    assert got.get("ray.overhead_s", 0.0) == pytest.approx(0.0)


def test_cpu_reading_counts_this_process():
    before = trace.cpu_by_pid()
    assert os.getpid() in before
    trace.timed_burn(300_000)
    assert trace.cpu_between(before, trace.cpu_by_pid()) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backfill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.fixture(scope="module")
def ray_session():
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 << 20)
    yield
    ray.shutdown()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_oracle(name, tmp_path, monkeypatch, ray_session):
    monkeypatch.setattr(workloads, "TOKEN_ROWS", 3000)
    monkeypatch.setattr(workloads, "SPINE_ROWS", 300)
    monkeypatch.setattr(workloads, "SQL_SCALE", 0.0005)
    w = workloads.WORKLOADS[name](str(tmp_path), seed=3)
    w.prepare()
    tr = trace.Tracer("test")
    tr.install()
    w.reset()
    tr.enabled = True
    with tr.span("iteration", layer="bench.driver_s"):
        result = w.run(tr)
    tr.enabled = False
    assert w.check(result) is None
    root = next(s["id"] for s in tr.spans if s["name"] == "iteration")
    selfs = trace.self_times(tr, root, w.op_layers)
    extras = w.trace_extras(tr, root, result)
    assert set(selfs) | set(extras) <= set(PER_LAYER)
    assert tr.datasets, "no Ray Data execution was traced"
