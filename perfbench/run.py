"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--num-cpus C]

Run from the root of a checkout of the repository. Generates the
workload's inputs from ``--seed`` (outside every timed region), then
starts a local Ray session twice; each start is one ``setup_s``
sample. In the last session the workload runs two warm-up iterations
and then iterations back to back for ``--seconds`` seconds (one client,
closed loop). Every output is checked against a DuckDB oracle after its
timer stops, and each timed iteration is followed by one run of a fixed
reference job (:func:`reference_job`). The last line of standard output
is one JSON object:

* ``--trace 0``: the end-to-end metrics: ``setup_s``; ``wall_ref`` and
  ``cpu_ref``, an iteration's median wall and CPU seconds (CPU of the
  driver and every Ray worker process) over the reference job's; and
  ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics, from one session whose traced
  iterations alternate with untraced ones (their difference is the
  tracing overhead).

The line before it carries the details: every sample, the host
calibration, the input size and, when tracing, the spans. Exits with
code 2 without a result when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent

SESSIONS = 2
WARMUP_ITERATIONS = 2
MIN_ITERATIONS = 3
MIN_TRACE_ITERATIONS = 4
ITERATION_LIMIT_S = 60.0
# no new iteration starts after this many seconds since process start,
# so a run always ends well inside its 180-second budget
RUN_DEADLINE_S = 110.0
OBJECT_STORE_BYTES = 384 << 20
REFERENCE_ROWS = 40_000

UNITS = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB"}


class IterationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise IterationTimeout(f"iteration exceeded {ITERATION_LIMIT_S:.0f} s")


def _identity(batch):
    return batch


def reference_job() -> tuple:
    """A fixed Ray Data job (range → map → sort → materialize), run in
    the same session right after every timed iteration; returns its
    (wall seconds, CPU seconds). On a shared host, neighbours slow Ray's
    tasks and hand-offs for stretches of a minute or more; they slow this
    job by the same factor, so ``wall_ref`` and ``cpu_ref`` (an
    iteration's median over the job's median) leave that out."""
    import ray.data as rd

    from perfbench import trace as tr_mod

    cpu0 = tr_mod.cpu_by_pid()
    t0 = time.perf_counter()
    (rd.range(REFERENCE_ROWS, override_num_blocks=8).map_batches(_identity)
     .sort("id", descending=True).materialize())
    return time.perf_counter() - t0, tr_mod.cpu_between(cpu0, tr_mod.cpu_by_pid())


def _ray_temp_dir(work_dir: Path) -> str | None:
    """Keep Ray's session files in the checkout when its Unix socket
    paths (``<dir>/session_<stamp>_<pid>/sockets/plasma_store``) fit the
    107-byte limit; otherwise use Ray's default."""
    return str(work_dir) if len(str(work_dir)) + 64 <= 107 else None


def start_ray(num_cpus: int, temp_dir: str | None) -> float:
    """ray.init → first trivial Dataset executed; returns seconds."""
    import ray
    import ray.data as rd

    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp_dir)
    rd.range(8, override_num_blocks=2).map_batches(_identity).count()
    return time.perf_counter() - t0


def _session_pids(session_dir: str) -> list:
    needle = session_dir.encode()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                if needle in f.read():
                    pids.append(int(name))
        except OSError:
            continue
    return pids


def stop_ray() -> None:
    """``ray.shutdown()``, then wait until every process of the session
    has ended: Ray's agents can outlive the call. Stragglers get SIGTERM
    after 3 s and SIGKILL after 6 s."""
    import ray

    session_dir = ray._private.worker.global_worker.node.get_session_dir_path()
    ray.shutdown()
    started = time.monotonic()
    while pids := _session_pids(session_dir):
        waited = time.monotonic() - started
        if waited > 3:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL if waited > 6 else signal.SIGTERM)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)


def spilled_mb() -> float:
    """Object-store MiB spilled so far in this session, from the
    raylet's own log (its last "Spilled N MiB" line)."""
    import re

    import ray

    log = os.path.join(ray._private.worker.global_worker.node.get_session_dir_path(),
                       "logs", "raylet.out")
    try:
        with open(log, errors="replace") as f:
            found = re.findall(r"Spilled (\d+) MiB", f.read())
    except OSError:
        return 0.0
    return float(found[-1]) if found else 0.0


def bare_kernels(workload) -> dict:
    """The hot kernels with no Ray, on the workload's own inputs."""
    from perfbench.workloads import NUM_BUCKETS, SQL_QUERIES
    from sous_chef_ray.queries import ORACLE_SQL
    from sous_chef_ray.sqlexec import parse_sql
    from sous_chef_ray.stages.partition import bucket_ids
    from sous_chef_ray.state.manifest import table_checksum

    tbl, key = workload.kernel_inputs()

    def median_s(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    texts = [ORACLE_SQL[n] for n in SQL_QUERIES]
    return {
        "partition.bucket_ids_rows_per_s":
            len(tbl) / median_s(lambda: bucket_ids(tbl, [key], NUM_BUCKETS)),
        "manifest.checksum_mb_per_s":
            tbl.nbytes / 1e6 / median_s(lambda: table_checksum(tbl, sort_by=[key])),
        "sqlexec.parse_s": median_s(lambda: [parse_sql(t) for t in texts]) / len(texts),
    }


def median_or(values, default):
    return statistics.median(values) if values else default


class Runner:
    """Runs and checks iterations, and keeps their samples."""

    def __init__(self, workload, tracer, trace: bool):
        from perfbench.trace import RssSampler

        self.workload = workload
        self.tracer = tracer
        self.trace = trace
        self.sampler = RssSampler()
        self.attempted = self.failed = 0
        self.stopped = False
        self.walls, self.cpus, self.rss = [], [], []
        self.ref_walls, self.ref_cpus = [], []
        self.traced_walls, self.layer_samples, self.self_sums = [], [], []
        self.operators = set()

    def session(self, budget_s: float, min_iterations: int) -> None:
        for _ in range(WARMUP_ITERATIONS):
            self.iteration(warm=True, traced=False)
        # the budget is wall-clock time, checks and reference jobs included
        start, k = time.perf_counter(), 0
        while not self.stopped and (k < min_iterations or (
                time.perf_counter() - start < budget_s
                and time.perf_counter() - T_START < RUN_DEADLINE_S)):
            self.iteration(warm=False, traced=self.trace and k % 2 == 0)
            k += 1

    def iteration(self, warm: bool, traced: bool) -> None:
        """One closed-loop iteration, checked, and its samples kept."""
        from perfbench import trace as tr_mod

        if self.stopped:
            return
        w, tracer = self.workload, self.tracer
        w.reset()
        self.attempted += 1
        tracer.enabled = traced
        cpu0 = tr_mod.cpu_by_pid()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, ITERATION_LIMIT_S)
            with self.sampler:
                with tracer.span("iteration", layer="bench.driver_s"):
                    result = w.run(tracer)
                    dt = time.perf_counter() - t0
        except IterationTimeout as err:
            # a starved pipeline stays starved: count it and stop
            self.failed += 1
            self.stopped = True
            print(f"perfbench: {err}; stopping the run", file=sys.stderr)
            return
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc()
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            tracer.enabled = False
        cpu = tr_mod.cpu_between(cpu0, tr_mod.cpu_by_pid())
        err = w.check(result)
        if err:
            self.failed += 1
            print(f"perfbench: {w.name} output is wrong: {err}", file=sys.stderr)
            return
        if warm:
            reference_job()
            return
        if traced:
            self.traced_walls.append(dt)
            self._record_layers(result)
        else:
            self.walls.append(dt)
            self.cpus.append(cpu)
            ref_wall, ref_cpu = reference_job()
            self.ref_walls.append(ref_wall)
            self.ref_cpus.append(ref_cpu)
            self.rss.append(self.sampler.peak_bytes)

    def _record_layers(self, result) -> None:
        from perfbench import trace as tr_mod

        tracer, w = self.tracer, self.workload
        root = max(s["id"] for s in tracer.spans if s["name"] == "iteration")
        selfs = tr_mod.self_times(tracer, root, w.op_layers)
        w.adjust_self_times(tracer, root, selfs, result)
        self.self_sums.append(sum(selfs.values()))
        ops = tr_mod.ops_under(tracer, root)
        self.operators.update(op["name"] for _, op in ops)
        selfs["read.bytes"] = sum(op["bytes"] for _, op in ops
                                  if op["name"].startswith("ReadParquet"))
        tracer.enabled = True
        try:
            selfs.update(w.trace_extras(tracer, root, result))
        finally:
            tracer.enabled = False
        self.layer_samples.append(selfs)

    def per_layer(self, calibration: dict, spilled: float) -> dict:
        from perfbench.layers import PER_LAYER

        keys = set().union(*self.layer_samples) if self.layer_samples else set()
        unknown = keys - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"layer names missing from PER_LAYER: {sorted(unknown)}")
        values = {name: 0.0 for name in PER_LAYER}
        for k in keys:
            values[k] = statistics.median(s.get(k, 0.0) for s in self.layer_samples)
        traced = median_or(self.traced_walls, 0.0)
        untraced = median_or(self.walls, traced)
        values["trace.wall_s"] = traced
        values["trace.self_sum_frac"] = (median_or(self.self_sums, 0.0) / untraced
                                         if untraced else 0.0)
        values["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
        values["ray.spilled_mb"] = spilled
        values.update(calibration)
        values.update(bare_kernels(self.workload))
        return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def run(args) -> int:
    sys.path.insert(0, str(ROOT))
    t_import = time.perf_counter()
    try:
        import ray
        import ray.data as rd

        import sous_chef_ray.pipelines.materialize  # noqa: F401
        import sous_chef_ray.queries  # noqa: F401
        import sous_chef_ray.stages.asof  # noqa: F401
        import sous_chef_ray.state.manifest  # noqa: F401
    except ImportError as err:
        print(f"perfbench: cannot import the program under test: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    from perfbench import trace as tr_mod
    from perfbench.workloads import WORKLOADS

    work_dir = ROOT / f".pb-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        calibration = {"calib.burn_s": tr_mod.timed_burn(),
                       "calib.memcpy_gb_per_s": tr_mod.memcpy_gb_per_s()}
        workload = WORKLOADS[args.workload](str(work_dir), args.seed)
        workload.prepare()

        temp_dir = _ray_temp_dir(work_dir)
        rd.DataContext.get_current().enable_progress_bars = False
        tracer = tr_mod.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        if args.trace:
            tracer.install()
        signal.signal(signal.SIGALRM, _on_alarm)
        runner = Runner(workload, tracer, bool(args.trace))

        sessions = 1 if args.trace else SESSIONS
        setups, spilled = [], 0.0
        for i in range(sessions):
            setups.append(import_s + start_ray(args.num_cpus, temp_dir))
            if i == sessions - 1:
                spill0 = spilled_mb()
                runner.session(args.seconds,
                               MIN_TRACE_ITERATIONS if args.trace else MIN_ITERATIONS)
                spilled = spilled_mb() - spill0
            stop_ray()

        detail = {
            "workload": args.workload, "seed": args.seed, "num_cpus": args.num_cpus,
            "seconds": args.seconds, "trace": args.trace,
            "run_s": time.perf_counter() - T_START,
            "attempted": runner.attempted, "failed": runner.failed,
            "samples": len(runner.walls), "wall_samples": runner.walls,
            "wall_s": median_or(runner.walls, 0.0), "cpu_samples": runner.cpus,
            "cpu_s": median_or(runner.cpus, 0.0),
            "ref_wall_samples": runner.ref_walls, "ref_cpu_samples": runner.ref_cpus,
            "setup_samples": setups, "import_s": import_s, "ray_temp_dir": temp_dir,
            "input_rows": workload.rows, "calibration": calibration,
        }
        if args.trace:
            metrics = runner.per_layer(calibration, spilled)
            detail.update(traced_wall_samples=runner.traced_walls,
                          layer_samples=runner.layer_samples,
                          operators=sorted(runner.operators),
                          spans=tracer.spans,
                          datasets=[{k: d[k] for k in ("name", "start", "end", "parent")}
                                    for d in tracer.datasets])
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_ref": (median_or(runner.walls, ITERATION_LIMIT_S)
                             / median_or(runner.ref_walls, 1.0)),
                "cpu_ref": (median_or(runner.cpus, ITERATION_LIMIT_S)
                            / median_or(runner.ref_cpus, 1.0)),
                "peak_rss_mb": median_or(runner.rss, 0.0) / 2**20,
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}))
        return 0
    finally:
        if ray.is_initialized():
            stop_ray()
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["backfill", "pit_retrieval", "asof_large", "sql_queries"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--num-cpus", type=int, default=4,
                   help="logical CPUs of the local Ray session")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
