"""Output checks for one operation's table.

Each check returns a list of problems; an operation with any problem counts
as failed.  The checks also pull out the accuracy figures the benchmark
reports (relative modulus errors and phase errors).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from workloads import LIFT_HEADER, PROJ_HEADER, PROP_HEADER, SEEDED_REL_ERR_BOUND, Op

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Exact-kernel columns must match the reference tables to this share of the
# table's largest |exact| entry.  Section, operator and integrator rewrites
# move these columns by far less; a wrong kernel moves them by O(1).
REF_RTOL = 1e-6
# Key columns (t, or k/p/q) must match to this absolute tolerance.
KEY_ATOL = 1e-12

_HEADERS = {"propagator": PROP_HEADER, "projector": PROJ_HEADER, "lifts": LIFT_HEADER}
_KEYS = {"propagator": ("t",), "projector": ("k", "p", "q")}
_EXACT = ("re_exact", "im_exact")
# Kernel modulus errors the selftest criteria record in their details.
_SELFTEST_REL_ERRS = (("A3", "err_quarter_power"), ("A4", "err_k50"), ("A4", "err_k100"),
                      ("A8", "err_k100"), ("A8", "err_k200"), ("A9", "err_with_returns"))
_CRITERIA = tuple(f"A{i}" for i in range(1, 13))


def parse_csv(data: bytes) -> tuple:
    lines = list(csv.reader(io.StringIO(data.decode())))
    if not lines:
        return (), []
    return tuple(lines[0]), [[float(v) for v in row] for row in lines[1:]]


def _compare_reference(op: Op, header: tuple, rows: list) -> list:
    path = REFERENCE_DIR / op.table_name
    if not path.is_file():
        return [f"reference table {path.name} is missing"]
    ref_header, ref_rows = parse_csv(path.read_bytes())
    if len(ref_rows) != len(rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    keys = [header.index(c) for c in _KEYS[op.kind]]
    exact = [header.index(c) for c in _EXACT]
    n_keys = len(keys)
    scale = max(abs(v) for row in ref_rows for v in row[n_keys:])
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if any(abs(row[j] - r) > KEY_ATOL for j, r in zip(keys, ref[:n_keys])):
            problems.append(f"row {i}: key columns differ from the reference")
        worst = max(abs(row[j] - r) for j, r in zip(exact, ref[n_keys:]))
        if worst > REF_RTOL * scale:
            problems.append(f"row {i}: exact kernel differs from the reference by "
                            f"{worst:.3g} (> {REF_RTOL:g} x {scale:.3g})")
    return problems[:5]


def check_table(op: Op, data: bytes) -> tuple:
    """Problems, relative modulus errors and phase errors of a CSV table."""
    try:
        header, rows = parse_csv(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"unparsable table: {exc}"], [], []
    problems = []
    if header != _HEADERS[op.kind]:
        problems.append(f"header {header} is not the documented one")
        return problems, [], []
    if len(rows) != op.rows:
        problems.append(f"{len(rows)} rows, expected {op.rows}")
    if any(len(row) != len(header) for row in rows):
        problems.append("ragged rows")
        return problems, [], []
    col = {name: i for i, name in enumerate(header)}
    rel_errs, phase_errs = [], []
    for i, row in enumerate(rows):
        off_image = (op.kind == "projector"
                     and row[col["re_pred"]] == 0.0 and row[col["im_pred"]] == 0.0)
        nan_ok = {col["rel_err_modulus"], col["phase_err"]} if off_image else set()
        bad = [header[j] for j, v in enumerate(row) if not math.isfinite(v) and j not in nan_ok]
        if bad:
            problems.append(f"row {i}: non-finite {', '.join(bad)}")
        if op.kind in _KEYS and not off_image:
            rel_errs.append(row[col["rel_err_modulus"]])
            if op.kind == "propagator":
                phase_errs.append(abs(row[col["phase_err"]]))
    if op.kind in _KEYS and op.fixed and not problems:
        problems += _compare_reference(op, header, rows)
    if op.kind == "projector" and not op.fixed:
        worst = max((r for r in rel_errs if math.isfinite(r)), default=0.0)
        if worst > SEEDED_REL_ERR_BOUND:
            problems.append(f"seeded rel_err_modulus {worst:.3g} exceeds "
                            f"{SEEDED_REL_ERR_BOUND:g}")
    return problems, rel_errs, phase_errs


def check_selftest(data: bytes) -> tuple:
    """Problems and kernel modulus errors of a selftest JSON summary."""
    try:
        summary = json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"unparsable selftest summary: {exc}"], [], []
    ids = tuple(entry.get("criterion_id") for entry in summary)
    if ids != _CRITERIA:
        return [f"criteria {ids} are not A1..A12 in order"], [], []
    problems = [f"{e['criterion_id']} FAIL measured={e['measured']:.6g} bound={e['bound']:.6g}"
                for e in summary if e["pass"] is not True]
    by_id = {e["criterion_id"]: e["details"] for e in summary}
    rel_errs = []
    for cid, key in _SELFTEST_REL_ERRS:
        value = by_id[cid].get(key)
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{cid} details lack a finite {key}")
        else:
            rel_errs.append(value)
    return problems, rel_errs, []


def check_output(op: Op, data: bytes) -> tuple:
    if op.kind == "selftest":
        return check_selftest(data)
    return check_table(op, data)
