"""The benchmark's traced pass over a propagator and a return-term projector.

``test_perfbench_tracer.py`` drives only ``lifts``; these commands reach the
amplitude and comparison layers whose return values the tracer's span
attributes read.
"""

from test_perfbench_tracer import _load_tracer

from torusprop import harness


def test_traced_propagator_and_projector_record_clean_spans(tmp_path):
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert harness.main(["propagator", "--symbol", "cos(2*pi*q)+0.1*sin(2*pi*p)", "--k", "20",
                             "--tgrid", "0:0.05:0.2", "--out", str(tmp_path / "prop.csv")]) == 0
        assert harness.main(["projector", "--k", "20", "--fhat", "bump:7",
                             "--out", str(tmp_path / "proj.csv")]) == 0
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    assert {"symplin.branch_sqrt_path", "propkern.graph_compare", "torusgeo.rho_level_half"} <= names
    assert [s.attrs["error"] for s in tracer.spans if "error" in s.attrs] == []
