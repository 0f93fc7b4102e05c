"""CLI and config-handling tests: parsing, validation, table formats."""

import json

import numpy as np
import pytest

from torusprop.harness import (
    ConfigError,
    _build_parser,
    _suffixed,
    _with_lead_in,
    main,
    parse_config,
    symbol_from_selector,
)


def _cfg(argv):
    return parse_config(_build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# parsing and defaults
# ---------------------------------------------------------------------------


def test_defaults_match_documented_experiment():
    cfg = _cfg(["propagator"])
    assert cfg.symbol == "model-cos"
    assert cfg.ks == (100,)
    assert cfg.points == ((0.3, 0.1),)
    assert len(cfg.tgrid) == 101 and cfg.tgrid[0] == 0.0 and cfg.tgrid[-1] == 1.0
    assert cfg.fhat_kind == "bump" and cfg.fhat_T == 3.0
    assert cfg.fmt == "csv" and cfg.out is None


def test_tgrid_endpoints_inclusive():
    cfg = _cfg(["propagator", "--tgrid", "0.8:0.001:0.9"])
    assert len(cfg.tgrid) == 101
    assert cfg.tgrid[0] == pytest.approx(0.8, abs=0)
    assert cfg.tgrid[-1] == 0.9


@pytest.mark.parametrize("bad", ["0:0.003:1", "0:0:1", "1:0.1:0", "a:b:c", "0:1"])
def test_tgrid_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        _cfg(["propagator", "--tgrid", bad])


def test_k_list_and_guards():
    assert _cfg(["projector", "--k", "50,100,200"]).ks == (50, 100, 200)
    for bad in ("0", "401", "1000", "ten", "50,50"):
        with pytest.raises(ConfigError):
            _cfg(["projector", "--k", bad])


@pytest.mark.parametrize("bad", ["0.3", "0.3,0.1,0.2", "x,y"])
def test_point_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        _cfg(["propagator", "--point", bad])


def test_fhat_presets():
    cfg = _cfg(["projector", "--fhat", "gaussian-truncated:2.5"])
    assert (cfg.fhat_kind, cfg.fhat_T) == ("gaussian-truncated", 2.5)
    for bad in ("bump", "triangle:3", "bump:-1", "bump:x"):
        with pytest.raises(ConfigError):
            _cfg(["projector", "--fhat", bad])


def test_config_file_and_flag_override(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("[experiment]\nk = 50\npoint = 0.2,0.3\nformat = json\n")
    cfg = _cfg(["propagator", "--config", str(f)])
    assert cfg.ks == (50,) and cfg.points == ((0.2, 0.3),) and cfg.fmt == "json"
    cfg = _cfg(["propagator", "--config", str(f), "--k", "20"])
    assert cfg.ks == (20,)  # flags win


def test_config_file_rejects_unknown_and_duplicate_keys(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("[a]\nbanana = 1\n")
    with pytest.raises(ConfigError, match="banana"):
        _cfg(["propagator", "--config", str(f)])
    f.write_text("[a]\nk = 5\n[b]\nk = 10\n")
    with pytest.raises(ConfigError, match="more than once"):
        _cfg(["propagator", "--config", str(f)])
    with pytest.raises(ConfigError, match="cannot read"):
        _cfg(["propagator", "--config", str(tmp_path / "absent.cfg")])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["projector", "lifts"])
@pytest.mark.parametrize("q", ["0.5", "0.9999999999"])
def test_level_set_commands_reject_critical_levels(command, q):
    with pytest.raises(ConfigError, match="critical|fundamental"):
        _cfg([command, "--point", f"0.3,{q}"])


def test_propagator_allows_q_half_but_not_out_of_range():
    assert _cfg(["propagator", "--point", "0.3,0.5"]).points == ((0.3, 0.5),)
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        _cfg(["propagator", "--point", "0.3,1.2"])


def test_shape_constraints():
    with pytest.raises(ConfigError, match="single k"):
        _cfg(["lifts", "--k", "50,100"])
    with pytest.raises(ConfigError, match="exactly one point"):
        _cfg(["propagator", "--point", "0.3,0.1;0.4,0.2"])
    with pytest.raises(ConfigError, match="--out is required"):
        _cfg(["propagator", "--k", "50,100"])
    with pytest.raises(ConfigError, match="forward"):
        _cfg(["propagator", "--tgrid=-0.5:0.1:0"])
    with pytest.raises(ConfigError, match="JSON summary"):
        _cfg(["selftest", "--format", "csv"])


def test_symbol_expressions():
    sym = symbol_from_selector("cos(2*pi*q) + 0.1*sin(2*pi*p)")
    val = sym.principal(0.0, 0.25, 0.0)
    assert float(val) == pytest.approx(1.1)
    with pytest.raises(ConfigError, match="unknown names"):
        symbol_from_selector("__import__('os')")
    with pytest.raises(ConfigError, match="unknown names"):
        symbol_from_selector("banana(q)")
    with pytest.raises(ConfigError):
        symbol_from_selector("cos(")


def test_non_periodic_symbol_is_refused(capsys):
    assert main(["propagator", "--symbol", "cos(pi*q)", "--k", "5"]) == 2
    assert "not lattice-periodic" in capsys.readouterr().err
    readme = "cos(2*pi*q)+0.1*sin(2*pi*p)"
    assert _cfg(["propagator", "--symbol", readme]).symbol == readme


def test_lead_in_helper():
    grid = np.array([0.0, 0.1, 0.2])
    out, skip = _with_lead_in(grid)
    assert skip == 0 and out is grid
    out, skip = _with_lead_in(np.array([0.8, 0.9]))
    assert skip == out.size - 2
    assert out[0] == 0.0 and np.all(np.diff(out) > 0) and out[skip] == 0.8


def test_suffixed_paths():
    assert _suffixed("a/b.csv", 50) == "a/b_k50.csv"
    assert _suffixed("a.b/c", 50) == "a.b/c_k50"


# ---------------------------------------------------------------------------
# end-to-end tables
# ---------------------------------------------------------------------------


def test_propagator_csv_table(tmp_path, capsys):
    out = tmp_path / "prop.csv"
    rc = main(["propagator", "--k", "60", "--tgrid", "0:0.1:0.5",
               "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == ("t,re_exact,im_exact,re_pred,im_pred,abs_exact,"
                        "abs_pred,rel_err_modulus,phase_err")
    assert len(lines) == 7
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(table[:, 0], np.arange(6) * 0.1)
    assert np.all(table[:, 7] < 1e-2)  # k=60 on [0, 0.5] tracks well


def test_propagator_windowed_grid_matches_full_run(tmp_path):
    full = tmp_path / "full.csv"
    late = tmp_path / "late.csv"
    assert main(["propagator", "--k", "50", "--tgrid", "0:0.05:0.9",
                 "--out", str(full)]) == 0
    assert main(["propagator", "--k", "50", "--tgrid", "0.8:0.05:0.9",
                 "--out", str(late)]) == 0
    rows_full = {ln.split(",")[0]: ln for ln in full.read_text().splitlines()[1:]}
    rows_late = late.read_text().splitlines()[1:]
    assert len(rows_late) == 3
    for ln in rows_late:
        t = ln.split(",")[0]
        a = np.array([float(v) for v in rows_full[t].split(",")])
        b = np.array([float(v) for v in ln.split(",")])
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_propagator_multi_k_files(tmp_path):
    out = tmp_path / "prop.csv"
    rc = main(["propagator", "--k", "30,60", "--tgrid", "0:0.1:0.2",
               "--out", str(out)])
    assert rc == 0
    for k in (30, 60):
        assert (tmp_path / f"prop_k{k}.csv").exists()


def test_propagator_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["propagator", "--k", "40", "--tgrid", "0:0.1:0.3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_propagator_expression_symbol_matches_model(tmp_path):
    ref = tmp_path / "ref.csv"
    expr = tmp_path / "expr.csv"
    base = ["propagator", "--k", "30", "--tgrid", "0:0.1:0.3"]
    assert main(base + ["--out", str(ref)]) == 0
    assert main(base + ["--symbol", "cos(2*pi*q)", "--out", str(expr)]) == 0
    ref_rows = np.loadtxt(str(ref), delimiter=",", skiprows=1)
    expr_rows = np.loadtxt(str(expr), delimiter=",", skiprows=1)
    # same principal symbol, but the expression side is quantized by the
    # position-integral route while model-cos uses the analytic eigenvalues
    # cos(pi l / k); the two differ at the 1/k (subprincipal) level, so the
    # moduli agree only to the next order
    assert np.allclose(expr_rows[:, 5], ref_rows[:, 5], rtol=1e-3)
    assert np.all(expr_rows[:, 7] < 2e-2)


def test_projector_table_ordering(capsys):
    rc = main(["projector", "--k", "50,25", "--point", "0.3,0.1;0.6,0.1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k,p,q,")
    table = [ln.split(",") for ln in lines[1:]]
    assert [(int(float(r[0])), float(r[1])) for r in table] == [
        (25, 0.3), (50, 0.3), (25, 0.6), (50, 0.6)]
    rels = [float(r[9]) for r in table]
    assert all(np.isfinite(rels)) and max(rels) < 0.1


def test_projector_json_format(capsys):
    rc = main(["projector", "--k", "25", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in rows] == [25]
    assert set(rows[0]) == {"k", "p", "q", "re_exact", "im_exact", "re_pred",
                            "im_pred", "abs_exact", "abs_pred",
                            "rel_err_modulus", "phase_err"}


def test_lifts_table(capsys):
    rc = main(["lifts", "--k", "20", "--tgrid", "0:0.25:1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("t,transport_L_phase,prequantum_phase,rho_half_re,"
                        "rho_half_im,rho_level_half_re,rho_level_half_im")
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0 and first[2] == 0.0
    assert first[3] == 1.0 and first[4] == 0.0
    assert first[5] == pytest.approx(np.sqrt(2 / np.pi) / np.sin(0.2 * np.pi),
                                     rel=1e-12)
    # rho values stay on the branch-continuous sheet: |value| <= 1, args small
    rho = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.abs(rho[:, 3] + 1j * rho[:, 4]) <= 1.0 + 1e-12)


def test_cli_error_exits(tmp_path, capsys):
    assert main(["propagator", "--k", "1000"]) == 2
    assert "1..400" in capsys.readouterr().err
    assert main(["projector", "--point", "0.3,0.5"]) == 2
    assert "critical" in capsys.readouterr().err
    # runtime (non-config) failure: unwritable output path
    rc = main(["propagator", "--k", "5", "--tgrid", "0:0.1:0.1",
               "--out", str(tmp_path / "no" / "dir.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_selftest_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["selftest", "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in captured.splitlines() if ln]
    assert len(lines) == 12
    assert all(ln.split()[1] == "PASS" and "measured=" in ln for ln in lines)
    assert [ln.split()[0] for ln in lines] == [f"A{i}" for i in range(1, 13)]
    rows = json.load(open(out))
    assert {"criterion_id", "description", "measured", "bound", "pass"} <= set(rows[0])
    assert all(r["pass"] for r in rows)
    by_id = {r["criterion_id"]: r for r in rows}
    assert by_id["A3"]["details"]["modulus_exponent_winner"] == "quarter"
    assert by_id["A8"]["details"]["display_variant_rel_err"] == pytest.approx(
        1.0 - 1.0 / np.sqrt(2 * np.pi), abs=0.02)
