"""Command-line front end: experiment configs and CSV/JSON report tables.

Four commands cover the toolkit's surface:

* ``propagator`` — exact vs predicted propagator kernel along the flow graph,
  one table per k over a time grid;
* ``projector``  — exact vs predicted smoothed spectral projector at points
  on an energy level, one table over (point, k);
* ``lifts``      — the geometric ingredients along one trajectory (transport
  phases and branch-continuous amplitudes), mostly for plotting;
* ``selftest``   — the full criterion battery with a pass/fail line each and
  a JSON summary; exit status 0 only when everything passes.

Output is deterministic: identical configuration gives byte-identical files
(17-significant-digit floats, comma separator, LF line endings, header row).

Each runner imports its own compute module, so a process loads only the
code its command runs: the front end and ``lifts`` need only the geometry
(``torusgeo``), and the CLI builds no quantum object itself.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .torusgeo import (
    RegularityError,
    SymbolField,
    check_level,
    integrate_flow,
    make_symbol,
    model_cos_symbol,
    norm_X,
    prequantum_phase,
    rho_graph_half,
    rho_level_half,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run", "main"]


def __getattr__(name: str):
    """``ThreadPoolExecutor``, imported and bound here on first read:
    perfbench/tracer.py patches it by name, and no command runs a pool."""
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor
    return globals().setdefault(name, ThreadPoolExecutor)


K_MAX = 5000  # the CLI's one range for k, 1..K_MAX: the 1/k rates are measured to 5000
# key: (metavar, default, help) of each --<key> flag and config key, in flag
# order; the help of a setting without a default (None) says what happens instead.
_SETTINGS = {
    "k": ("N[,N...]", "100", f"quantum level(s), 1..{K_MAX}"),
    "point": ("P,Q[;P,Q...]", "0.3,0.1", "phase-space point(s)"),
    "tgrid": ("A:STEP:B", "0:0.01:1", "time grid, endpoints included"),
    "energy": ("E", None, "level-set energy (default: symbol value at the first point)"),
    "fhat": ("KIND:T", "bump:3", "Fourier-side window preset"),
    "symbol": ("SEL", "model-cos", "model-cos or an expression in p, q"),
    "out": ("PATH", None, "output file (default: stdout)"),
    "format": ("{csv,json}", None, "table format (default csv; selftest is json)"),
}
_FHAT_KINDS = ("bump", "gaussian-truncated")
# every stage holds all time rows at once, so the row count is capped
_MAX_TGRID_ROWS = 10_001
_EXPR_NAMES = {"p", "q", "pi", "cos", "sin", "tan", "exp", "sqrt", "log",
               "cosh", "sinh", "tanh"}


class ConfigError(ValueError):
    """Invalid experiment configuration (bad value, bad combination)."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    ks: tuple
    points: tuple
    tgrid: tuple
    energy: float | None  # resolved for projector and lifts: --energy, or H at the first point
    fhat_kind: str
    fhat_T: float
    out: str | None
    fmt: str
    sym: SymbolField = field(repr=False, compare=False)  # its name is the selector


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_ks(text: str) -> tuple:
    """Distinct levels in 1..K_MAX; a non-diagonal operator's eigh stops lower (thetaq)."""
    ks = []
    for part in str(text).split(","):
        try:
            k = int(part)
        except ValueError:
            raise ConfigError(f"k list entry {part!r} is not an integer") from None
        if not 1 <= k <= K_MAX:
            raise ConfigError(f"k={k} outside the supported range 1..{K_MAX}")
        ks.append(k)
    if len(set(ks)) != len(ks):
        raise ConfigError(f"duplicate k values in {text!r}")
    return tuple(ks)


def _finite(text, what: str) -> float:
    """The one reader of a CLI number: ``text`` as a finite float, or a
    ConfigError naming ``what``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} {text!r} is not finite")
    return value


def _parse_points(text: str) -> tuple:
    pts = []
    for part in str(text).split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise ConfigError(f"point {part!r} must be P,Q")
        pts.append(tuple(_finite(b, f"point {part!r} entry") for b in bits))
    return tuple(pts)


def _parse_tgrid(text: str) -> tuple:
    bits = str(text).split(":")
    if len(bits) != 3:
        raise ConfigError(f"tgrid {text!r} must be A:STEP:B")
    a, step, b = (_finite(x, f"tgrid {text!r} entry") for x in bits)
    if step <= 0:
        raise ConfigError("tgrid step must be positive")
    if b < a:
        raise ConfigError("tgrid end must not precede its start")
    n = (b - a) / step  # inf for a subnormal step: the cap comes before any rounding
    if not n < _MAX_TGRID_ROWS - 0.5:
        raise ConfigError(f"tgrid {text!r} has more rows than the cap: at most "
                          f"{_MAX_TGRID_ROWS} are allowed")
    if abs(n - round(n)) > 1e-9:
        raise ConfigError(f"tgrid span {b - a:g} is not a whole number of "
                          f"steps {step:g}")
    n = int(round(n))
    return tuple(float(a + step * i) for i in range(n)) + (float(b),)


def _parse_fhat(text: str) -> tuple:
    bits = str(text).split(":")
    if len(bits) != 2:
        raise ConfigError(f"fhat preset {text!r} must be KIND:T, e.g. bump:3")
    kind = bits[0]
    if kind not in _FHAT_KINDS:
        raise ConfigError(f"unknown fhat kind {kind!r}; choose from "
                          f"{', '.join(_FHAT_KINDS)}")
    support = _finite(bits[1], "fhat support")
    if support <= 0.0:
        raise ConfigError(f"fhat support T must be positive, not {support!r}")
    return kind, support


def symbol_from_selector(selector: str):
    """'model-cos' or an expression in p and q, e.g. 'cos(2*pi*q)+0.1*sin(2*pi*p)'."""
    if selector == "model-cos":
        return model_cos_symbol()
    try:
        code = compile(selector, "<symbol>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"symbol expression {selector!r}: {exc.msg}") from None
    # a lambda's or comprehension's names live in its own code object
    if any(isinstance(c, type(code)) for c in code.co_consts):
        raise ConfigError(f"symbol expression {selector!r}: functions and "
                          "comprehensions are not allowed")
    bad = set(code.co_names) - _EXPR_NAMES
    if bad:
        raise ConfigError(f"symbol expression uses unknown names {sorted(bad)}; "
                          f"allowed: {sorted(_EXPR_NAMES)}")
    ns = {name: getattr(np, name) for name in _EXPR_NAMES - {"p", "q"}}

    def principal(p, q, _code=code, _ns=ns):
        try:
            return np.asarray(eval(_code, {"__builtins__": {}},
                                   dict(_ns, p=np.asarray(p), q=np.asarray(q))),
                              dtype=float)
        except Exception as exc:
            raise ConfigError(f"symbol expression {selector!r} fails: "
                              f"{type(exc).__name__}: {exc}") from None

    probe = principal(0.3, 0.1)
    if probe.shape != () or not np.isfinite(probe):
        raise ConfigError(f"symbol expression {selector!r} must give a finite "
                          "scalar at a scalar point")
    try:
        return make_symbol(f"expr:{selector}", principal)
    except RegularityError as exc:
        raise ConfigError(f"{exc}; an expression must be smooth, with "
                          "H(p+1, q) = H(p, q+1) = H(p, q)") from None


def _read_config_file(path: str) -> dict:
    import configparser
    # No section header can name the empty section, so [DEFAULT] is read as
    # an ordinary section and its keys meet the duplicate check too; values
    # are read verbatim, so a '%' in an expression is not interpolation.
    cfg = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    values: dict = {}
    for sec in cfg.sections():
        for key in cfg[sec]:
            if key not in _SETTINGS:
                raise ConfigError(f"unknown config key {key!r} in [{sec}]; "
                                  f"allowed: {', '.join(_SETTINGS)}")
            if key in values:
                raise ConfigError(f"config key {key!r} given more than once")
            values[key] = cfg[sec][key]
    return values


def parse_config(ns: argparse.Namespace) -> ExperimentConfig:
    """Merge the _SETTINGS defaults, the config file and the flags (flags win)
    into a validated config; a format from a flag or a file is checked here."""
    values = {key: default for key, (_, default, _) in _SETTINGS.items()}
    if ns.config is not None:
        values.update(_read_config_file(ns.config))
    for key in _SETTINGS:
        if getattr(ns, key) is not None:
            values[key] = getattr(ns, key)

    if values["format"] is None:
        values["format"] = "json" if ns.command == "selftest" else "csv"
    if ns.command == "selftest" and values["format"] == "csv":
        raise ConfigError("selftest emits a JSON summary; use format json")
    if values["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, not {values['format']!r}")

    kind, support = _parse_fhat(values["fhat"])
    energy = None if values["energy"] is None else _finite(values["energy"], "energy")
    return _validate(ExperimentConfig(
        command=ns.command,
        ks=_parse_ks(values["k"]),
        points=_parse_points(values["point"]),
        tgrid=_parse_tgrid(values["tgrid"]),
        energy=energy,
        fhat_kind=kind,
        fhat_T=support,
        out=values["out"],
        fmt=values["format"],
        sym=symbol_from_selector(str(values["symbol"])),  # once, failing fast on bad expressions
    ))


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """The checked cfg, with a level command's energy resolved."""
    for p, q in cfg.points:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p={p:g} outside the fundamental range [0, 1]")
        if not 0.0 < q < 1.0:
            raise ConfigError(f"q={q:g} outside the fundamental range (0, 1)")
    if cfg.command in ("propagator", "lifts") and len(cfg.points) != 1:
        raise ConfigError(f"{cfg.command} takes exactly one point; got "
                          f"{len(cfg.points)}")
    if cfg.command in ("propagator", "lifts") and cfg.tgrid[0] < 0:
        raise ConfigError("time grids run forward; start A must be >= 0 "
                          "(negative-time kernels are the conjugates)")
    if cfg.command == "lifts" and len(cfg.ks) != 1:
        raise ConfigError("lifts takes a single k")
    if cfg.command == "propagator" and len(cfg.ks) > 1 and cfg.out is None:
        raise ConfigError("multiple k values write one table per k; --out is "
                          "required (files get a _k<N> suffix)")
    if cfg.command in ("projector", "lifts"):
        if cfg.energy is None:
            cfg = replace(cfg, energy=float(np.asarray(cfg.sym.principal(*cfg.points[0]))))
        for p, q in cfg.points:
            try:
                norm_X(cfg.sym, (p, q))
                check_level(cfg.sym, (p, q), cfg.energy)
            except RegularityError as exc:
                raise ConfigError(f"point ({p:g}, {q:g}): {exc}; level-set "
                                  "commands need a regular point of the "
                                  "energy level") from None
    return cfg


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _json_default(value):
    """``json.dumps`` hook for the values plain JSON lacks: numpy bools and
    integers as themselves, complex values as {"re": ..., "im": ...}."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    import json
    return json.dumps(payload, indent=1, default=_json_default) + "\n"


def _emit(out: str | None, text: str) -> None:
    """Write a finished table to stdout, or to the file ``out``."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _write_table(out: str | None, header: list, rows: list, fmt: str) -> None:
    if fmt == "json":
        text = _json_text([dict(zip(header, row)) for row in rows])
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) if not isinstance(v, int) else "%d" % v
                           for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(out, text)


def _suffixed(out: str, k: int) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}_k{k}{ext}"


_KERNEL_HEADER = ["re_exact", "im_exact", "re_pred", "im_pred", "abs_exact",
                  "abs_pred", "rel_err_modulus", "phase_err"]
_PROP_HEADER = ["t"] + _KERNEL_HEADER
_PROJ_HEADER = ["k", "p", "q"] + _KERNEL_HEADER


def _kernel_row(s) -> list:
    """A KernelSample's columns of _KERNEL_HEADER."""
    return [s.exact.real, s.exact.imag, s.predicted.real, s.predicted.imag,
            abs(s.exact), abs(s.predicted), s.rel_err_modulus, s.phase_err]


def _run_propagator(cfg: ExperimentConfig) -> int:
    """One ``graph_compare`` pass over every k (one flow, on the calling thread); its rows
    come grouped by k ascending, one table each; several k write ``_k<N>`` files."""
    from .propkern import graph_compare
    samples = graph_compare(cfg.sym, cfg.points[0], cfg.tgrid, cfg.ks)
    for k, group in groupby(samples, key=lambda s: s.k):
        out = cfg.out if len(cfg.ks) == 1 else _suffixed(cfg.out, k)
        rows = [[t] + _kernel_row(s) for t, s in zip(cfg.tgrid, group)]
        _write_table(out, _PROP_HEADER, rows, cfg.fmt)
    return 0


def _run_projector(cfg: ExperimentConfig) -> int:
    """One ``projector_compare`` pass over every point and k; its rows come
    grouped by point with k ascending, which is the table's order."""
    from .specproj import build_fourier_pair, projector_compare
    pair = build_fourier_pair(cfg.fhat_kind, cfg.fhat_T)
    samples = projector_compare(cfg.sym, pair, cfg.energy, list(cfg.points), cfg.ks)
    rows = [[s.k, s.x[0], s.x[1]] + _kernel_row(s) for s in samples]
    _write_table(cfg.out, _PROJ_HEADER, rows, cfg.fmt)
    return 0


_LIFT_HEADER = ["t", "transport_L_phase", "prequantum_phase", "rho_half_re",
                "rho_half_im", "rho_level_half_re", "rho_level_half_im"]


def _run_lifts(cfg: ExperimentConfig) -> int:
    k = cfg.ks[0]
    traj = integrate_flow(cfg.sym, cfg.points[0], cfg.tgrid)
    pre_arg = prequantum_phase(traj, k)
    graph_halves = rho_graph_half(traj)
    level_halves = rho_level_half(cfg.sym, traj, cfg.energy)
    rows = [[t, float(traj.conn_L[i]), float(pre_arg[i]),
             graph_halves[i].real, graph_halves[i].imag,
             level_halves[i].real, level_halves[i].imag]
            for i, t in enumerate(cfg.tgrid)]
    _write_table(cfg.out, _LIFT_HEADER, rows, cfg.fmt)
    return 0


def _run_selftest(cfg: ExperimentConfig) -> int:
    from .acceptance import run_all
    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.criterion_id} {status} measured={r.measured:.6g} "
              f"bound={r.bound:.6g}")
    payload = [{"criterion_id": r.criterion_id, "description": r.description,
                "measured": float(r.measured), "bound": float(r.bound),
                "pass": bool(r.passed), "details": r.details}
               for r in results]
    _emit(cfg.out, _json_text(payload))
    return 0 if all(r.passed for r in results) else 1


_RUNNERS = {"propagator": _run_propagator, "projector": _run_projector,
            "lifts": _run_lifts, "selftest": _run_selftest}


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    return _RUNNERS[cfg.command](cfg)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplitz-propagator",
        description="Exact vs asymptotic kernel tables for quantized torus "
                    "Hamiltonians.",
        epilog="Environment: TP_SEED seeds the randomized self-tests. "
               "Identical configs produce byte-identical tables.")
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file; flags override it")
    for key, (metavar, default, text) in _SETTINGS.items():
        parser.add_argument(f"--{key}", metavar=metavar,
                            help=text if default is None else f"{text} (default {default})")
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
