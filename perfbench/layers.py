"""Per-layer metric names and units, printed by every ``--trace 1`` run.

Values are per iteration, the median over a run's traced iterations. A
layer a workload does not touch reads 0.
"""

from perfbench.workloads import SQL_QUERIES

SQL_QUERY_LAYERS = {f"sqlexec.{name}_s": "s" for name in SQL_QUERIES}

PER_LAYER = {
    # Ray Data Parquet read
    "read.s": "s",
    "read.bytes": "B",
    # stages.partition
    "partition.tag_s": "s",
    "partition.shuffle_s": "s",
    "partition.bucket_skew": "ratio",
    "partition.bucket_ids_rows_per_s": "rows/s",
    # pipelines.materialize
    "materialize.window_kernel_s": "s",
    "materialize.driver_s": "s",
    # state.manifest
    "manifest.write_s": "s",
    "manifest.load_s": "s",
    "manifest.checksum_mb_per_s": "MB/s",
    "manifest.resume_s": "s",
    "manifest.resume_useful_ratio": "ratio",
    "manifest.bytes_out_per_in": "ratio",
    # stages.asof, broadcast plan
    "asof.candidates_s": "s",
    "asof.fetch_s": "s",
    "asof.driver_s": "s",
    "asof.candidates_per_spine_row": "ratio",
    "asof.fetch_useful_ratio": "ratio",
    # stages.asof, partitioned plan
    "asof.sort_s": "s",
    "asof.bucket_merge_s": "s",
    # sqlexec / queries
    "sqlexec.parse_s": "s",
    "sqlexec.ops_s": "s",
    "sqlexec.driver_s": "s",
    **SQL_QUERY_LAYERS,
    # Ray runtime
    "ray.overhead_s": "s",
    "ray.other_ops_s": "s",
    "ray.spilled_mb": "MB",
    # the benchmark's own driver code between calls
    "bench.driver_s": "s",
    # tracing
    "trace.wall_s": "s",
    "trace.self_sum_frac": "ratio",
    "trace.overhead_frac": "ratio",
    # host calibration
    "calib.burn_s": "s",
    "calib.memcpy_gb_per_s": "GB/s",
}
