"""The benchmark's table checks, run on the CLI in process.

Every fixed propagator/projector operation of both benchmark workloads must
match its reference table under ``perfbench/checks.py``, and the seeded
level projector must stay within its error bound.  ``perfbench/`` is only
read.
"""

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
