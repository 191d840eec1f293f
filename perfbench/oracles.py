"""DuckDB oracles and result comparison.

Expected results are computed once per run, before the timed loop; each
iteration's output is compared against them after its timer stops.
"""

from __future__ import annotations

from typing import Optional

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def connect() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET threads = 1")
    return con


WINDOW_SQL = """
WITH lagd AS (
  SELECT doc_id, n_tok, source, event_ts, created_ts,
         lag(n_tok) OVER w AS n_tok_lag1,
         lead(n_tok) OVER w AS n_tok_lead1,
         lag(event_ts) OVER w AS prev_ts
  FROM read_parquet('{glob}')
  WINDOW w AS (PARTITION BY doc_id ORDER BY event_ts, created_ts))
SELECT doc_id, n_tok, source, event_ts, created_ts, n_tok_lag1, n_tok_lead1,
       CAST(SUM(CASE WHEN prev_ts IS NULL
                       OR event_ts - prev_ts > INTERVAL {gap_hours} HOUR
                THEN 1 ELSE 0 END)
            OVER (PARTITION BY doc_id ORDER BY event_ts, created_ts
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
FROM lagd
ORDER BY doc_id, event_ts, created_ts
"""

ASOF_SQL = """
WITH dedup AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (
      PARTITION BY doc_id, event_ts ORDER BY created_ts DESC) AS rn
    FROM read_parquet('{glob}'))
  WHERE rn = 1),
j AS (
  SELECT s.__row__, s.doc_id, s.event_timestamp, d.event_ts AS fts, {dpay}
  FROM spine s ASOF LEFT JOIN dedup d
    ON s.doc_id = d.doc_id AND d.event_ts <= s.event_timestamp)
SELECT doc_id, event_timestamp,
       {cases}
FROM j
ORDER BY __row__
"""


def window_expected(con, token_glob: str, gap_hours: int) -> pa.Table:
    return con.execute(WINDOW_SQL.format(glob=token_glob, gap_hours=gap_hours)).arrow()


def asof_expected(con, token_glob: str, spine: pa.Table, payload: list,
                  ttl_hours: int) -> pa.Table:
    """Rows in spine order: the latest feature row at or before each
    spine timestamp (equal timestamps broken by the latest
    ``created_ts``), nulled when older than the TTL."""
    spine = spine.append_column("__row__", pa.array(np.arange(len(spine))))
    con.register("spine", spine)
    try:
        sql = ASOF_SQL.format(
            glob=token_glob,
            dpay=", ".join(f"d.{c}" for c in payload),
            cases=",\n       ".join(
                f"CASE WHEN fts >= event_timestamp - INTERVAL {ttl_hours} HOUR "
                f"THEN {c} END AS {c}" for c in payload))
        return con.execute(sql).arrow()
    finally:
        con.unregister("spine")


def tables_equal(got: pa.Table, exp: pa.Table, sort_by: Optional[list] = None) -> Optional[str]:
    """None when equal by value (column types cast to the expected
    schema), else a short description of the first difference."""
    if sorted(got.column_names) != sorted(exp.column_names):
        return f"columns {sorted(got.column_names)} != {sorted(exp.column_names)}"
    if len(got) != len(exp):
        return f"rows {len(got)} != {len(exp)}"
    got = got.select(exp.column_names)
    if sort_by:
        got = got.sort_by([(c, "ascending") for c in sort_by])
        exp = exp.sort_by([(c, "ascending") for c in sort_by])
    for name in exp.column_names:
        e = exp[name].combine_chunks()
        g = got[name].combine_chunks()
        try:
            g = g.cast(e.type)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as err:
            return f"{name}: cannot cast {g.type} to {e.type} ({err})"
        if not g.equals(e):
            if pa.types.is_list(e.type):
                i = next(i for i in range(len(e)) if g[i] != e[i])
            else:
                same = pc.fill_null(pc.equal(g, e), False)
                both_null = pc.and_(pc.is_null(g), pc.is_null(e))
                i = int(np.argmin(pc.or_(same, both_null).to_numpy(zero_copy_only=False)))
            return f"{name} differs at row {i}: {g[i]} != {e[i]}"
    return None


# ---------------------------------------------------------------------------
# registered-query results: the no int/float coercion rules of the
# repository's oracle checker
# ---------------------------------------------------------------------------

def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(lambda v: tuple(np.asarray(v).tolist())
                              if isinstance(v, (list, np.ndarray)) else v)
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    df = df[sorted(df.columns)]
    try:
        df = df.sort_values(list(df.columns), kind="mergesort")
    except TypeError:
        df = df.sort_values([c for c in df.columns if df[c].dtype != object][:3])
    return df.reset_index(drop=True)


def frames_equal(got: pd.DataFrame, exp: pd.DataFrame) -> Optional[str]:
    if set(got.columns) != set(exp.columns):
        return f"columns {sorted(got.columns)} != {sorted(exp.columns)}"
    if len(got) != len(exp):
        return f"rows {len(got)} != {len(exp)}"
    if len(exp) == 0:
        return None
    g, e = _norm(got), _norm(exp)
    for c in g.columns:
        gv, ev = g[c], e[c]
        if {gv.dtype.kind, ev.dtype.kind} == {"i", "f"}:
            return f"dtype of {c}: {gv.dtype} vs {ev.dtype}"
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            gn, en = gv.astype(float).to_numpy(), ev.astype(float).to_numpy()
            ok = (np.isnan(gn) & np.isnan(en)) | (gn == en)
            if not ok.all():
                i = int(np.nonzero(~ok)[0][0])
                return f"{c} differs at row {i}: {gn[i]} != {en[i]}"
        elif not gv.equals(ev):
            i = int(np.nonzero((gv.to_numpy() != ev.to_numpy()))[0][0])
            return f"{c} differs at row {i}: {gv.iloc[i]!r} != {ev.iloc[i]!r}"
    return None
