"""The benchmark's table checks, run on the CLI in process.

Every fixed propagator/projector operation of both benchmark workloads must
match its reference table under ``perfbench/checks.py``, and the seeded
level projector must stay within its error bound.  The README's four runs
must also match theirs to 1e-12, the bound CI holds them to.
``perfbench/`` is only read.
"""

import csv
import io
import sys
from pathlib import Path

import pytest

from torusprop import harness

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(_PERFBENCH))
try:
    import checks
    import workloads
finally:
    sys.path.remove(str(_PERFBENCH))

_OPS = [op for name in workloads.WORKLOADS for op in workloads.workload_ops(name, 1)
        if op.kind in ("propagator", "projector") and (op.fixed or op.name == "proj-seeded")]


@pytest.mark.parametrize("op", _OPS, ids=[op.name for op in _OPS])
def test_table_passes_the_benchmark_checks(op, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert harness.main(list(op.argv)) == 0
    out = capsys.readouterr().out
    data = (tmp_path / op.table_name).read_bytes() if op.writes_out else out.encode()
    problems, _, _ = checks.check_output(op, data)
    assert problems == []


_README_OPS = [op for op in _OPS if op.name in ("prop-k100", "zoom-k100", "prop-k400", "proj-readme")]


@pytest.mark.parametrize("op", _README_OPS, ids=[op.name for op in _README_OPS])
def test_readme_table_matches_its_reference_to_1e_12(op, tmp_path, monkeypatch, capsys):
    # the key columns equal, the exact columns within 1e-12 of the
    # reference's max |exact| (1.1e-13 to 4.2e-13 of it today)
    monkeypatch.chdir(tmp_path)
    assert harness.main(list(op.argv)) == 0
    out = capsys.readouterr().out
    text = (tmp_path / op.table_name).read_text() if op.writes_out else out
    rows = list(csv.DictReader(io.StringIO(text)))
    ref = list(csv.DictReader(io.StringIO((_PERFBENCH / "reference" / op.table_name).read_text())))
    exact = ("re_exact", "im_exact")
    keys = [c for c in ref[0] if c not in exact]
    scale = max(abs(complex(float(r["re_exact"]), float(r["im_exact"]))) for r in ref)
    assert len(rows) == len(ref) > 0
    assert all(float(a[c]) == float(b[c]) for a, b in zip(rows, ref) for c in keys)
    assert max(abs(float(a[c]) - float(b[c])) for a, b in zip(rows, ref) for c in exact) \
        <= 1e-12 * scale
