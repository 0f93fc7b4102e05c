"""The benchmark's traced pass must still bind every function it wraps."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from torusprop import harness, thetaq

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_level_amplitude(tmp_path):
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        rc = harness.main(["lifts", "--k", "5", "--tgrid", "0:0.1:0.3",
                           "--out", str(tmp_path / "lifts.csv")])
    finally:
        tracer.restore()
    assert rc == 0
    assert "torusgeo.rho_level_half" in {s.name for s in tracer.spans}
    assert not hasattr(harness.rho_level_half, "__wrapped__")


def test_tracer_counts_basis_matrix_sections():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        thetaq.basis_matrix(thetaq.quantum_space(5), np.array([0.1 + 0.2j, 0.5, 0.7 - 0.3j]))
    finally:
        tracer.restore()
    spans = [s for s in tracer.spans if s.name == "thetaq.basis_matrix"]
    assert [s.attrs["sections"] for s in spans] == [30]
