"""CLI and config-handling tests: parsing, validation, table formats."""

import json
import threading
import warnings

import numpy as np
import pytest

from torusprop import harness, torusgeo
from torusprop.harness import (
    ConfigError,
    _build_parser,
    _suffixed,
    main,
    parse_config,
    symbol_from_selector,
)
from torusprop.specproj import build_fourier_pair, projector_compare
from torusprop.symplin import LinearSymplectomorphism, holomorphic_determinant
from torusprop.torusgeo import hamiltonian_vector_field, integrate_flow, rho_graph_half, rho_level_half


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


@pytest.mark.parametrize("grid", ["0:1e-5:1", "0:1e-12:1"])
def test_tgrid_row_cap_refuses_before_building(grid, capsys):
    with pytest.raises(ConfigError, match="at most 10001"):
        harness._parse_tgrid(grid)
    assert main(["propagator", "--k", "5", "--tgrid", grid]) == 2
    assert capsys.readouterr().err.startswith("error: tgrid")


def test_tgrid_at_the_row_cap_parses():
    grid = harness._parse_tgrid("0:1e-4:1")
    assert len(grid) == harness._MAX_TGRID_ROWS == 10_001
    assert grid[0] == 0.0 and grid[-1] == 1.0


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


def test_selftest_format_rule_holds_for_config_files(tmp_path, capsys):
    # selftest writes JSON by default and refuses csv from a flag or a file
    f = tmp_path / "st.ini"
    f.write_text("[run]\nformat = csv\n")
    with pytest.raises(ConfigError, match="JSON summary"):
        _cfg(["selftest", "--config", str(f)])
    assert main(["selftest", "--config", str(f), "--out", str(tmp_path / "st.out")]) == 2
    assert not (tmp_path / "st.out").exists()
    assert _cfg(["selftest"]).fmt == "json"
    assert _cfg(["propagator", "--config", str(f)]).fmt == "csv"
    f.write_text("[run]\nformat = json\n")
    assert _cfg(["selftest", "--config", str(f)]).fmt == "json"


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


def test_config_default_section_is_one_more_section(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("[DEFAULT]\nk = 50\n[run]\npoint = 0.2,0.3\n")
    cfg = _cfg(["propagator", "--config", str(f)])
    assert cfg.ks == (50,) and cfg.points == ((0.2, 0.3),)
    # a key set in [DEFAULT] and in a section is a duplicate, not a silent
    # choice of the [DEFAULT] value
    f.write_text("[DEFAULT]\nk = 100\n[run]\nk = 200\n")
    with pytest.raises(ConfigError, match="'k' given more than once"):
        _cfg(["propagator", "--config", str(f)])
    f.write_text("[DEFAULT]\nbanana = 1\n")
    with pytest.raises(ConfigError, match=r"'banana' in \[DEFAULT\]"):
        _cfg(["propagator", "--config", str(f)])
    f.write_text("[]\nk = 50\n")
    with pytest.raises(ConfigError, match="malformed"):
        _cfg(["propagator", "--config", str(f)])


def test_config_values_are_read_verbatim(tmp_path):
    # '%' is an operator in a symbol expression, not configparser interpolation
    symbol = "cos(2*pi*(q % 1))"
    f = tmp_path / "exp.cfg"
    f.write_text(f"[run]\nsymbol = {symbol}\n")
    args = ["--k", "5", "--tgrid", "0:0.1:0.2", "--out"]
    assert main(["propagator", "--config", str(f), *args, str(tmp_path / "cfg.csv")]) == 0
    assert main(["propagator", "--symbol", symbol, *args, str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["projector", "lifts"])
@pytest.mark.parametrize("q", ["0.5", "0.9999999999"])
def test_level_set_commands_reject_critical_levels(command, q):
    with pytest.raises(ConfigError, match="critical|fundamental"):
        _cfg([command, "--point", f"0.3,{q}"])


@pytest.mark.parametrize("command", ["projector", "lifts"])
def test_level_set_regularity_uses_the_actual_symbol(command):
    # cos(2 pi p) is regular at q = 0.5 (||X|| = 1.69) and critical at p = 0.5
    sym = ["--symbol", "cos(2*pi*p)"]
    assert _cfg([command, "--point", "0.3,0.5", *sym]).points == ((0.3, 0.5),)
    with pytest.raises(ConfigError, match="critical"):
        _cfg([command, "--point", "0.5,0.3", *sym])


def test_propagator_allows_q_half_but_not_out_of_range():
    assert _cfg(["propagator", "--point", "0.3,0.5"]).points == ((0.3, 0.5),)
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        _cfg(["propagator", "--point", "0.3,1.2"])


@pytest.mark.parametrize("p", ["1e12", "1.5", "-0.1"])
def test_p_outside_the_fundamental_range_is_refused(p, capsys):
    # at p = 1e12 the gauge k (p_y q_y - p_x q_x) would lose every digit
    assert main(["propagator", "--symbol", "cos(2*pi*q)+0.1*sin(2*pi*p)", "--k", "5",
                 f"--point={p},0.1", "--tgrid", "0:0.1:0.2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"p={float(p):g} outside the fundamental range [0, 1]" in err
    assert _cfg(["propagator", "--point", "0,0.1"]).points == ((0.0, 0.1),)
    assert _cfg(["propagator", "--point", "1,0.1"]).points == ((1.0, 0.1),)


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
    val = sym.principal(0.25, 0.0)
    assert float(val) == pytest.approx(1.1)
    with pytest.raises(ConfigError, match="unknown names"):
        symbol_from_selector("__import__('os')")
    with pytest.raises(ConfigError, match="unknown names"):
        symbol_from_selector("banana(q)")
    with pytest.raises(ConfigError):
        symbol_from_selector("cos(")


@pytest.mark.parametrize("symbol", ["(lambda: ().__class__)() and cos(2*pi*q)",
                                    "[__import__ for _ in (1,)] and cos(2*pi*q)"])
def test_symbol_with_nested_code_is_refused(symbol, capsys):
    # the names of a lambda or a comprehension live in a nested code object
    with pytest.raises(ConfigError, match="symbol expression"):
        symbol_from_selector(symbol)
    assert main(["propagator", "--symbol", symbol, "--k", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: symbol expression")


@pytest.mark.parametrize("symbol", ["1/0+cos(2*pi*q)", "p(q)", "q[0]", "cos",
                                    "cos(2*pi*q) if p else 1"])
def test_symbol_that_fails_when_evaluated_is_refused(symbol, capsys):
    assert main(["propagator", "--symbol", symbol, "--k", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: symbol expression") and "Traceback" not in err


def test_non_periodic_symbol_is_refused(capsys):
    assert main(["propagator", "--symbol", "cos(pi*q)", "--k", "5"]) == 2
    assert "not lattice-periodic" in capsys.readouterr().err
    readme = "cos(2*pi*q)+0.1*sin(2*pi*p)"
    assert _cfg(["propagator", "--symbol", readme]).symbol == readme


def test_non_smooth_symbol_is_refused(capsys):
    # periodic but only Lipschitz: its Fourier modes decay like 1/n^2
    assert main(["propagator", "--symbol", "sqrt(sin(2*pi*q)**2)", "--k", "5"]) == 2
    assert "not smooth" in capsys.readouterr().err


@pytest.mark.parametrize("symbol", ["exp(2*sin(2*pi*p))*cos(2*pi*q)",
                                    "exp(3*cos(2*pi*q))*sin(2*pi*p)"])
def test_propagator_symbols_that_need_a_tighter_flow_sweep(symbol, tmp_path):
    # the flow sweep's absolute symplecticity defect exceeds 1e-9, which
    # symplin's rule, scaled by the Jacobian's squared norm, accepts
    assert main(["propagator", "--symbol", symbol, "--k", "20",
                 "--tgrid", "0:0.01:1", "--out", str(tmp_path / "t.csv")]) == 0


def test_a_fast_turning_branch_is_kept_on_a_coarse_grid(tmp_path):
    # arg det^{1,0}(dphi_t) turns by more than pi/2 between some 0.02-spaced
    # times here, so the branch cannot be read off sampled angles; the
    # flow's theta_a gives it on any grid
    symbol, x = "exp(4*cos(2*pi*q))*sin(2*pi*p)", (0.3, 0.1)
    assert main(["propagator", "--symbol", symbol, "--k", "20", "--point", "0.3,0.1",
                 "--tgrid", "0:0.01:1", "--out", str(tmp_path / "t.csv")]) == 0
    sym = symbol_from_selector(symbol)
    fine = np.linspace(0.0, 1.0, 4001)
    coarse = integrate_flow(sym, x, fine[::40])
    dense = integrate_flow(sym, x, fine)

    def unwrapped_half(values):
        return (np.sqrt(np.abs(values)) * np.exp(0.5j * np.unwrap(np.angle(values))))[::40]

    energy = float(sym.principal(*x))
    x_src = hamiltonian_vector_field(sym, x)
    x_dst = hamiltonian_vector_field(sym, dense.points_lifted)
    level = 2.0 * complex(*x_src) / (4.0 * np.pi * (x_src @ x_src) * (x_dst[:, 0] + 1j * x_dst[:, 1]))
    graph = 1.0 / holomorphic_determinant(LinearSymplectomorphism(dense.jacobians))
    for got, ref in ((rho_graph_half(coarse), unwrapped_half(graph)),
                     (rho_level_half(sym, coarse, energy), unwrapped_half(level))):
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12


def test_coarse_propagator_grid_matches_a_fine_one(tmp_path):
    # the flow is one sweep to the last time and theta_a picks the branch,
    # whatever the requested spacing, so a 1.0-step grid gives the 0.01-step
    # grid's row
    symbol = "cos(2*pi*q)+0.1*sin(2*pi*p)"
    tables = {}
    for grid in ("0:1:10", "0:0.01:10"):
        out = tmp_path / "t.csv"
        assert main(["propagator", "--symbol", symbol, "--k", "20", "--tgrid", grid,
                     "--out", str(out)]) == 0
        tables[grid] = np.loadtxt(str(out), delimiter=",", skiprows=1)
    coarse, fine = tables["0:1:10"], tables["0:0.01:10"]
    assert coarse.shape == (11, 9) and coarse[-1, 0] == fine[-1, 0] == 10.0
    assert np.allclose(coarse[-1], fine[-1], rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("symbol", ["model-cos", "cos(2*pi*q)+0.1*sin(2*pi*p)"])
def test_multi_k_propagator_starts_no_thread(symbol, tmp_path, monkeypatch):
    # each k's file must hold the bytes of that k run alone
    argv = ["propagator", "--symbol", symbol, "--tgrid", "0:0.1:0.5"]
    for k in (10, 20):
        assert main(argv + ["--k", str(k), "--out", str(tmp_path / f"alone_k{k}.csv")]) == 0

    def no_thread(self):
        raise AssertionError("the propagator must run on the calling thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(argv + ["--k", "20,10", "--out", str(tmp_path / "multi.csv")]) == 0
    for k in (10, 20):
        assert (tmp_path / f"multi_k{k}.csv").read_bytes() == (tmp_path / f"alone_k{k}.csv").read_bytes()


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


def test_projector_runs_one_pass_without_the_pool(capsys, monkeypatch):
    # the table must equal the one assembled from per-k passes, regrouped by
    # point with k ascending
    argv = ["projector", "--k", "20,10", "--point", "0.3,0.1;0.6,0.1"]
    cfg = _cfg(argv)
    pair = build_fourier_pair(cfg.fhat_kind, cfg.fhat_T)
    energy = harness._level_energy(cfg)
    per_k = {k: projector_compare(cfg.sym, pair, energy, list(cfg.points), [k]) for k in cfg.ks}
    expect = [",".join(harness._PROJ_HEADER)]
    for i in range(len(cfg.points)):
        for k in sorted(cfg.ks):
            s = per_k[k][i]
            expect.append(",".join(["%d" % k] + ["%.17g" % v for v in (
                s.x[0], s.x[1], s.exact.real, s.exact.imag, s.predicted.real,
                s.predicted.imag, abs(s.exact), abs(s.predicted), s.rel_err_modulus,
                s.phase_err)]))

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the projector must not start a thread pool")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", NoPool)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expect


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


def test_projector_refuses_a_point_off_the_energy_level(capsys):
    argv = ["projector", "--k", "50", "--fhat", "bump:3"]
    assert main(argv + ["--point", "0.3,0.1", "--energy", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "point (0.3, 0.1)" in err and "E = 0.5" in err and "H = 0.80901699" in err
    # the default energy is the first point's; the second one is off it
    assert main(argv + ["--point", "0.3,0.1;0.3,0.2"]) == 2
    assert "point (0.3, 0.2)" in capsys.readouterr().err


def test_projector_refuses_an_unresolvable_fhat(capsys):
    # support 5000 at k = 50 needs ~1.4e5 trapezoid nodes to resolve f at
    # every eigenvalue, past the node cap: exit 1 and print no table
    assert main(["projector", "--k", "50", "--fhat", "bump:5000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: f is not resolved")


def test_lifts_refuses_a_point_off_the_energy_level(capsys):
    assert main(["lifts", "--k", "20", "--energy", "0.2"]) == 2
    assert "off the energy level E = 0.2" in capsys.readouterr().err


def test_level_points_on_both_level_components_are_accepted():
    # q = 0.1 and q = 0.9 carry the same energy up to rounding
    cfg = _cfg(["projector", "--k", "50", "--point", "0.3,0.1;0.7,0.9"])
    assert cfg.points == ((0.3, 0.1), (0.7, 0.9))


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


@pytest.mark.parametrize("argv", [
    ["propagator", "--tgrid", "0:0.5:nan"],
    ["propagator", "--tgrid", "nan:0.5:1"],
    ["propagator", "--tgrid", "0:0.5:inf"],
    ["propagator", "--tgrid", "0:inf:1"],
    ["projector", "--k", "20", "--energy", "nan"],
    ["projector", "--k", "20", "--energy", "inf"],
    ["lifts", "--energy", "nan"],
    ["projector", "--k", "20", "--fhat", "bump:nan"],
    ["projector", "--k", "20", "--fhat", "bump:inf"],
])
def test_non_finite_inputs_are_refused(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("symbol", ["model-cos", "cos(2*pi*q)"])
@pytest.mark.parametrize("command", [["propagator", "--tgrid", "0:0.1:0.2"], ["projector"],
                                     ["lifts", "--tgrid", "0:0.1:0.2"]])
def test_symbol_is_built_once_per_run(command, symbol, monkeypatch, capsys):
    built, original = [], torusgeo.make_symbol

    def counting_make_symbol(*args, **kwargs):
        built.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(torusgeo, "make_symbol", counting_make_symbol)
    monkeypatch.setattr(harness, "make_symbol", counting_make_symbol)
    assert main(command + ["--symbol", symbol, "--k", "5"]) == 0
    assert len(built) == 1


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
