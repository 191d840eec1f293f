"""Seeded input generation for the benchmark.

Every input is a pure function of ``(seed, size)``: the same seed writes
byte-identical Parquet files, another seed writes different ones. The
program under test only ever sees the generated files.

* the token table comes from ``sous_chef_ray.sources.synth`` (Zipf-hot
  ``doc_id``, every 50th row a (key, ts) tie broken by ``created_ts``);
* the spine comes from ``synth.spine_table`` (exact-ts, between-rows,
  before-first and unknown-key rows);
* the TPC-H-like star schema plus the ``events`` stream table follow the
  column names, types and value ranges of the repository's SQL test data,
  at a chosen scale factor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

TOKEN_SHARDS = 4


@dataclass(frozen=True)
class TokenInputs:
    token_dir: str
    spine_path: str
    rows: int


def _write(tbl: pa.Table, path: str) -> None:
    # fixed writer options keep the files byte-identical for one seed
    pq.write_table(tbl, path, compression="snappy")


def _unique_created(tbl: pa.Table) -> pa.Table:
    """Make (doc_id, event_ts, created_ts) unique so row order within a
    key is fully determined: a tie row whose random ``created_ts`` equals
    its twin's is moved one microsecond later (deterministic)."""
    created = tbl["created_ts"].cast(pa.int64()).to_numpy().copy()
    ev = tbl["event_ts"].cast(pa.int64()).to_numpy()
    keys = tbl["doc_id"].to_numpy(zero_copy_only=False)
    tie = np.arange(50, len(tbl), 50)
    clash = tie[(ev[tie] == ev[tie - 1]) & (keys[tie] == keys[tie - 1])
                & (created[tie] == created[tie - 1])]
    if len(clash) == 0:
        return tbl
    created[clash] += 1
    i = tbl.column_names.index("created_ts")
    return tbl.set_column(i, "created_ts",
                          pa.array(created, type=pa.timestamp("us")))


def write_token_inputs(root: str, rows: int, spine_rows: int, seed: int) -> TokenInputs:
    from sous_chef_ray.sources.synth import spine_table, token_table

    token_dir = os.path.join(root, "tokens")
    os.makedirs(token_dir, exist_ok=True)
    tbl = _unique_created(token_table(rows, seed=seed))
    per = -(-rows // TOKEN_SHARDS)
    for i in range(TOKEN_SHARDS):
        _write(tbl.slice(i * per, per), os.path.join(token_dir, f"part-{i:05d}.parquet"))
    spine_path = os.path.join(root, "spine.parquet")
    _write(spine_table(tbl, spine_rows, seed=seed + 1), spine_path)
    return TokenInputs(token_dir, spine_path, rows)


# ---------------------------------------------------------------------------
# TPC-H-like tables + events
# ---------------------------------------------------------------------------

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
DAY_US = 86_400_000_000
ORDER_EPOCH_US = 788_918_400_000_000  # 1995-01-01
EVENT_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01


def _cents(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def sql_tables(sf: float, seed: int) -> dict:
    """The star schema at scale factor ``sf`` (lineitem ≈ 6M × sf rows)."""
    rng = np.random.default_rng(seed)
    n_cust = max(10, int(150_000 * sf))
    n_supp = max(5, int(10_000 * sf))
    n_ord = max(20, int(1_500_000 * sf))
    n_line = max(40, int(6_000_000 * sf))
    n_events = max(50, int(1_000_000 * sf))
    n_users = max(5, int(15_000 * sf))

    region = pa.table({
        "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
        "r_name": pa.array(REGIONS),
    })
    nation = pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
        "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
        # five nations per region, so no region is ever empty
        "n_regionkey": pa.array((np.arange(25) % 5).astype(np.int32)),
    })
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust).astype(np.int32)),
        "c_acctbal": pa.array(_cents(rng, -999.99, 9999.99, n_cust)),
        "c_mktsegment": pa.array(np.array(SEGMENTS)[rng.integers(0, 5, n_cust)]),
    })
    supplier = pa.table({
        "s_suppkey": pa.array(np.arange(n_supp, dtype=np.int64)),
        "s_name": pa.array([f"Supplier#{i:09d}" for i in range(n_supp)]),
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp).astype(np.int32)),
        "s_acctbal": pa.array(_cents(rng, -999.99, 9999.99, n_supp)),
    })
    o_days = rng.integers(0, 2400, n_ord)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord)),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)]),
        "o_totalprice": pa.array(_cents(rng, 1000.0, 500_000.0, n_ord)),
        "o_orderdate": pa.array(ORDER_EPOCH_US + o_days * DAY_US, type=pa.timestamp("us")),
        "o_orderpriority": pa.array(np.array(PRIORITIES)[rng.integers(0, 5, n_ord)]),
    })
    l_order = np.sort(rng.integers(0, n_ord, n_line))
    first = np.r_[True, l_order[1:] != l_order[:-1]]
    run_start = np.maximum.accumulate(np.where(first, np.arange(n_line), 0))
    qty = rng.integers(1, 51, n_line).astype(np.float64)
    lineitem = pa.table({
        "l_orderkey": pa.array(l_order),
        "l_partkey": pa.array(rng.integers(0, max(10, int(200_000 * sf)), n_line)),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_line)),
        "l_linenumber": pa.array((np.arange(n_line) - run_start + 1).astype(np.int32)),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * rng.uniform(900.0, 2100.0, n_line), 2)),
        "l_discount": pa.array(rng.integers(0, 11, n_line) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n_line) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_line)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_line)]),
        "l_shipdate": pa.array(
            ORDER_EPOCH_US + (o_days[l_order] + rng.integers(1, 120, n_line)) * DAY_US,
            type=pa.timestamp("us")),
    })
    ev_ts = np.sort(EVENT_EPOCH_US + rng.integers(0, 30 * DAY_US, n_events))
    events = pa.table({
        "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
        "ts": pa.array(ev_ts, type=pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, n_users, n_events)),
        "event_type": pa.array(np.array(EVENT_TYPES)[rng.integers(0, 5, n_events)]),
        "value": pa.array(_cents(rng, 0.01, 490.0, n_events)),
        "props": pc.binary_join_element_wise(
            '{"k": ', pc.cast(pa.array(rng.integers(0, 100, n_events)), pa.string()),
            "}", ""),
    })
    return {"region": region, "nation": nation, "customer": customer,
            "supplier": supplier, "orders": orders, "lineitem": lineitem,
            "events": events}


def write_sql_inputs(root: str, sf: float, seed: int) -> dict:
    """Write one ``<table>.parquet`` per table under ``root``; returns
    the row count of each table."""
    os.makedirs(root, exist_ok=True)
    rows = {}
    for name, tbl in sql_tables(sf, seed).items():
        _write(tbl, os.path.join(root, f"{name}.parquet"))
        rows[name] = len(tbl)
    return rows
