"""The four benchmark workloads.

Each workload prepares its inputs and oracle answer before the timed
loop, runs one closed-loop iteration per ``run`` call (one client: the
benchmark process, iterations back to back) and checks the iteration's
output against the oracle after the timer stops.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import time
from typing import Dict, List, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs, oracles
from perfbench.trace import Tracer, descends, ops_under, span_seconds

TOKEN_ROWS = 40_000
SPINE_ROWS = 4_000
NUM_BUCKETS = 8
SESSION_GAP_HOURS = 6
TTL_HOURS = 1
SQL_SCALE = 0.001

# window-heavy compiled shapes and hand-built plans slated to move to
# compiled plans. The join-heavy compiled shapes (q3, q5, q10, q21) are
# left out: each run of one starts and stops an autoscaling actor pool,
# and those process starts made the CPU of a pass vary by a third on the
# same seed.
SQL_QUERIES = [
    "sql_execute_qualify_topk",
    "sql_execute_moving_frame",
    "event_ntile_pct",
    "top10_orders_global",
    "centered_rolling_event_value",
]

TOKEN_COLS = ["doc_id", "n_tok", "source", "event_ts", "created_ts"]
WINDOW_COLS = TOKEN_COLS + ["n_tok_lag1", "n_tok_lead1", "session_id"]
PIT_PAYLOAD = ["tokens", "n_tok", "source"]


def _parquet_files(directory: str) -> List[str]:
    return sorted(os.path.join(directory, f) for f in os.listdir(directory)
                  if f.endswith(".parquet"))


def _column_bytes(files: List[str], columns: List[str]) -> int:
    """Compressed on-disk bytes of ``columns`` across ``files``."""
    total = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            grp = md.row_group(rg)
            for c in range(grp.num_columns):
                chunk = grp.column(c)
                if chunk.path_in_schema.split(".")[0] in columns:
                    total += chunk.total_compressed_size
    return total


def _op_base(name: str) -> str:
    """``MapBatches(fn)`` → ``fn``; other operator names unchanged."""
    if name.startswith("MapBatches(") and name.endswith(")"):
        return name[len("MapBatches("):-1]
    return name


class Workload:
    name = ""
    rows = 0  # input rows one iteration processes

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    # -- subclass API ----------------------------------------------------
    def prepare(self) -> None:
        """Generate inputs and the oracle answer (not timed)."""

    def reset(self) -> None:
        """Undo the previous iteration's side effects (not timed)."""

    def run(self, tr: Tracer):
        raise NotImplementedError

    def check(self, result) -> Optional[str]:
        raise NotImplementedError

    def layer_of(self, span: str, op: str) -> str:
        return "ray.other_ops_s"

    def trace_extras(self, tr: Tracer, root: int, result) -> Dict[str, float]:
        return {}

    def adjust_self_times(self, tr: Tracer, root: int, selfs: Dict[str, float],
                          result) -> None:
        """Move self time between layers that operator stats cannot
        separate."""

    def kernel_inputs(self):
        """(Arrow table, key column) for the bare kernels."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def op_layers(self, span: str, op: str) -> List[tuple]:
        """A fused read splits into read time (task wall minus UDF) and
        the UDF of the map fused after it; any other fused chain counts
        as its first map."""
        parts = [_op_base(p) for p in op.split("->")]
        if parts[0].startswith("ReadParquet") and len(parts) > 1:
            return [("read.s", "io"), (self.layer_of(span, parts[1]), "udf")]
        return [(self.layer_of(span, parts[0]), "wall")]

    def _common_layer(self, op: str) -> Optional[str]:
        if op.startswith("ReadParquet"):
            return "read.s"
        if op in ("tag_arrow", "tag"):
            return "partition.tag_s"
        return None


class _TokenWorkload(Workload):
    def prepare(self) -> None:
        self.inp = inputs.write_token_inputs(
            os.path.join(self.work_dir, "input"), TOKEN_ROWS, SPINE_ROWS, self.seed)
        self.rows = self.inp.rows
        self.glob = os.path.join(self.inp.token_dir, "*.parquet")
        self.files = _parquet_files(self.inp.token_dir)

    def kernel_inputs(self):
        return pq.read_table(self.inp.token_dir), "doc_id"


class Backfill(_TokenWorkload):
    """Token table → resumable window features (bucket shuffle, lag/lead
    + gap sessions, per-bucket Parquet write + manifest line)."""

    name = "backfill"

    def prepare(self) -> None:
        super().prepare()
        con = oracles.connect()
        self.expected = oracles.window_expected(con, self.glob, SESSION_GAP_HOURS)
        con.close()
        self.in_bytes = _column_bytes(self.files, TOKEN_COLS)
        self.out_dir = os.path.join(self.work_dir, "features")

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _materialize(self, tr: Tracer, span: str):
        import ray.data as rd

        from sous_chef_ray.pipelines.materialize import window_features_resumable

        files = self.files

        def factory():
            with tr.span("ray.read_parquet", layer="read.s"):
                return rd.read_parquet(files, columns=TOKEN_COLS)

        with tr.span(span, layer="materialize.driver_s"):
            return window_features_resumable(
                factory, self.out_dir, num_buckets=NUM_BUCKETS,
                session_gap=pd.Timedelta(hours=SESSION_GAP_HOURS))

    def run(self, tr: Tracer):
        return self._materialize(tr, "materialize.window_features_resumable")

    def check(self, records) -> Optional[str]:
        if len(records) != NUM_BUCKETS:
            return f"{len(records)} manifest records, want {NUM_BUCKETS}"
        if sum(r.row_count for r in records.values()) != self.rows:
            return "manifest row counts do not add up to the input"
        parts = [pq.read_table(f) for b in range(NUM_BUCKETS)
                 for f in _parquet_files(os.path.join(self.out_dir, f"part={b}"))]
        got = pa.concat_tables(parts, promote_options="default")
        return oracles.tables_equal(got.select(WINDOW_COLS), self.expected,
                                    sort_by=["doc_id", "event_ts", "created_ts"])

    def layer_of(self, span: str, op: str) -> str:
        common = self._common_layer(op)
        if common:
            return common
        return {
            "SortMap": "partition.shuffle_s",
            "SortReduce": "partition.shuffle_s",
            "Sort": "partition.shuffle_s",
            "apply_arrow": "materialize.window_kernel_s",
            "write_bucket": "manifest.write_s",
        }.get(op, "ray.other_ops_s")

    def adjust_self_times(self, tr: Tracer, root: int, selfs: Dict[str, float],
                          records) -> None:
        """Ray fuses the window kernel and the bucket write into one
        operator; the write's share is the time the manifest records
        for it (``PartitionRecord.wall_sec``)."""
        if "manifest.write_s" in selfs:
            return
        kernel = selfs.get("materialize.window_kernel_s", 0.0)
        write = min(kernel, sum(r.wall_sec for r in records.values()))
        selfs["materialize.window_kernel_s"] = kernel - write
        selfs["manifest.write_s"] = write

    def trace_extras(self, tr: Tracer, root: int, records) -> Dict[str, float]:
        from sous_chef_ray.state.manifest import Manifest

        rows = [r.row_count for r in records.values()]
        out = {
            "partition.bucket_skew": max(rows) / max(1.0, statistics.median(rows)),
            "manifest.bytes_out_per_in":
                sum(r.output_bytes for r in records.values()) / self.in_bytes,
        }
        manifest_path = os.path.join(self.out_dir, "_manifest.jsonl")
        loads = []
        for _ in range(5):
            t0 = time.perf_counter()
            Manifest(manifest_path).load()
            loads.append(time.perf_counter() - t0)
        out["manifest.load_s"] = statistics.median(loads)
        out.update(self._resume(tr, manifest_path, records))
        return out

    def _resume(self, tr: Tracer, manifest_path: str, records) -> Dict[str, float]:
        """Drop the even buckets from the manifest and the output, then
        time the run that finishes them."""
        keep = [r for pid, r in records.items() if int(pid) % 2 == 1]
        with open(manifest_path, "w") as f:
            for r in keep:
                f.write(json.dumps(r.__dict__) + "\n")
        for pid in records:
            if int(pid) % 2 == 0:
                shutil.rmtree(os.path.join(self.out_dir, f"part={pid}"))
        t0 = time.perf_counter()
        done = self._materialize(tr, "manifest.resume")
        resume_s = time.perf_counter() - t0
        err = self.check(done)
        if err:
            raise RuntimeError(f"resumed output is wrong: {err}")
        redone = sum(r.row_count for pid, r in done.items() if int(pid) % 2 == 0)
        return {"manifest.resume_s": resume_s,
                "manifest.resume_useful_ratio": redone / self.rows}


class PitRetrieval(_TokenWorkload):
    """Token table + spine → two-phase broadcast as-of join with a wide
    ``tokens`` payload."""

    name = "pit_retrieval"

    def prepare(self) -> None:
        super().prepare()
        self.spine = pq.read_table(self.inp.spine_path)
        con = oracles.connect()
        self.expected = oracles.asof_expected(con, self.glob, self.spine,
                                              PIT_PAYLOAD, TTL_HOURS)
        con.close()

    def run(self, tr: Tracer):
        import ray.data as rd

        from sous_chef_ray.pipelines.materialize import materialize_features

        with tr.span("ray.read_parquet", layer="read.s"):
            full = rd.read_parquet(self.files)
            slim = rd.read_parquet(self.files, columns=["doc_id", "event_ts", "created_ts"])
        with tr.span("asof.materialize_features", layer="asof.driver_s"):
            return materialize_features(full, self.spine,
                                        ttl=pd.Timedelta(hours=TTL_HOURS),
                                        token_slim_ds=slim)

    def check(self, result: pa.Table) -> Optional[str]:
        cols = ["doc_id", "event_timestamp"] + PIT_PAYLOAD
        return oracles.tables_equal(result.select(cols), self.expected)

    def layer_of(self, span: str, op: str) -> str:
        common = self._common_layer(op)
        if common:
            return common
        return {"gen_cands": "asof.candidates_s",
                "fetch_winners": "asof.fetch_s"}.get(op, "ray.other_ops_s")

    def trace_extras(self, tr: Tracer, root: int, result) -> Dict[str, float]:
        cands = fetched = 0.0
        for _, op in ops_under(tr, root):
            if op["name"].endswith("gen_cands)"):
                cands += op["rows"]
            elif op["name"].endswith("fetch_winners)"):
                fetched += op["rows"]
        return {"asof.candidates_per_spine_row": cands / len(self.spine),
                "asof.fetch_useful_ratio": fetched / self.rows}


class AsofLarge(_TokenWorkload):
    """The token table as-of joined against itself: both sides large,
    two bucket shuffles and a per-bucket merge under hot-key skew."""

    name = "asof_large"

    def prepare(self) -> None:
        super().prepare()
        tbl = pq.read_table(self.inp.token_dir, columns=["doc_id", "event_ts"])
        spine = tbl.rename_columns(["doc_id", "event_timestamp"])
        con = oracles.connect()
        exp = oracles.asof_expected(con, self.glob, spine, ["n_tok"], TTL_HOURS)
        con.close()
        self.expected = exp.rename_columns(["doc_id", "event_ts", "n_tok"])

    def run(self, tr: Tracer):
        import ray
        import ray.data as rd

        from sous_chef_ray.stages.asof import asof_join_partitioned

        with tr.span("ray.read_parquet", layer="read.s"):
            left = rd.read_parquet(self.files, columns=["doc_id", "event_ts"])
            right = rd.read_parquet(self.files,
                                    columns=["doc_id", "event_ts", "created_ts", "n_tok"])
        with tr.span("asof.asof_join_partitioned", layer="asof.driver_s"):
            out = asof_join_partitioned(
                left, right, key="doc_id", left_ts="event_ts", right_ts="event_ts",
                tie_col="created_ts", payload_cols=["n_tok"],
                ttl=pd.Timedelta(hours=TTL_HOURS), num_buckets=NUM_BUCKETS)
        with tr.span("asof.gather", layer="asof.bucket_merge_s"):
            return pa.concat_tables(ray.get(out.to_arrow_refs()))

    def check(self, result: pa.Table) -> Optional[str]:
        return oracles.tables_equal(result, self.expected,
                                    sort_by=["doc_id", "event_ts", "n_tok"])

    def layer_of(self, span: str, op: str) -> str:
        common = self._common_layer(op)
        if common:
            return common
        if op in ("Sort", "SortMap", "SortReduce"):
            return "asof.sort_s"
        return "ray.other_ops_s"

    def trace_extras(self, tr: Tracer, root: int, result) -> Dict[str, float]:
        reduce_ops = [op for _, op in ops_under(tr, root)
                      if op["name"] == "SortReduce" and op["rows_mean"] > 0]
        skew = max(op["rows_max"] / op["rows_mean"] for op in reduce_ops) if reduce_ops else 1.0
        return {"partition.bucket_skew": skew}

    def adjust_self_times(self, tr: Tracer, root: int, selfs: Dict[str, float],
                          result) -> None:
        """The partitioned join submits its per-bucket merge tasks and
        then waits on them while building the output Dataset; that wait,
        from the end of the last sort to the end of the call, is the
        bucket merge."""
        for s in tr.spans:
            if s["name"] != "asof.asof_join_partitioned":
                continue
            ends = [d["end"] for d in tr.datasets if d["parent"] == s["id"]]
            if not ends or not descends(tr, s["id"], root):
                continue
            tail = min(max(0.0, s["end"] - max(ends)), selfs.get("asof.driver_s", 0.0))
            selfs["asof.driver_s"] = selfs.get("asof.driver_s", 0.0) - tail
            selfs["asof.bucket_merge_s"] = selfs.get("asof.bucket_merge_s", 0.0) + tail


class SqlQueries(Workload):
    """A fixed list of registered query names over the generated star
    schema; one iteration runs every name once."""

    name = "sql_queries"

    def prepare(self) -> None:
        from sous_chef_ray import queries

        self.sf_dir = os.path.join(self.work_dir, "input", "sql")
        self.table_rows = inputs.write_sql_inputs(self.sf_dir, SQL_SCALE, self.seed)
        con = oracles.connect()
        for t in self.table_rows:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{self.sf_dir}/{t}.parquet')")
        self.sql = {n: queries.ORACLE_SQL[n] for n in SQL_QUERIES}
        self.expected = {n: con.execute(q).df() for n, q in self.sql.items()}
        con.close()
        # input rows: every table each query reads, once per query
        self.rows = sum(r for q in self.sql.values() for t, r in self.table_rows.items()
                        if _mentions(q, t))

    def run(self, tr: Tracer):
        import ray.data as rd

        from sous_chef_ray.queries import QUERIES

        out = {}
        for name in SQL_QUERIES:
            with tr.span(f"sqlexec.{name}", layer="sqlexec.driver_s"):
                res = QUERIES[name](self.sf_dir)
                if isinstance(res, rd.Dataset):
                    res = res.to_pandas()
                elif isinstance(res, pa.Table):
                    res = res.to_pandas()
                out[name] = res
        return out

    def check(self, result) -> Optional[str]:
        for name in SQL_QUERIES:
            err = oracles.frames_equal(result[name], self.expected[name])
            if err:
                return f"{name}: {err}"
        return None

    def layer_of(self, span: str, op: str) -> str:
        common = self._common_layer(op)
        if common:
            return common
        if op in ("Sort", "SortMap", "SortReduce"):
            return "partition.shuffle_s"
        return "sqlexec.ops_s"

    def trace_extras(self, tr: Tracer, root: int, result) -> Dict[str, float]:
        return {f"sqlexec.{n}_s": span_seconds(tr, root, f"sqlexec.{n}")
                for n in SQL_QUERIES}

    def kernel_inputs(self):
        tbl = pq.read_table(os.path.join(self.sf_dir, "orders.parquet"))
        return tbl, "o_custkey"


def _mentions(sql: str, table: str) -> bool:
    return re.search(rf"\b{table}\b", sql) is not None


WORKLOADS = {w.name: w for w in (Backfill, PitRetrieval, AsofLarge, SqlQueries)}
