#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the toeplitz-propagator CLI.

Run from the repository root:

    python3 perfbench/run.py --workload model --seed 1 --seconds 30 --trace 0

Each workload is a fixed-order list of CLI operations (see workloads.py).
With ``--trace 0`` the benchmark times its set-up (fresh interpreters
importing ``torusprop.harness``), then runs a fixed number of passes over
the operations that fills ``--seconds`` (see ``pass_count``), one child
process at a time, checks every table, and prints the end-to-end metrics.
With ``--trace 1`` it makes one untraced pass, then one more pass in process
through ``harness.main`` with the layer boundaries wrapped (see tracer.py),
and prints the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (seed,
environment, argv of every operation, per-pass figures, spans) is written to
``.bench_run/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_output
from workloads import KNOWN_FAILURE_PROBE, WORKLOADS, Op, workload_ops

HARD_LIMIT_S = 170.0        # the whole run must end within 180 s
SETUP_SAMPLES = 4           # fresh-interpreter imports timed before the passes and after each
IMPORT_SAMPLES = 3          # -X importtime runs in the traced run
NOMINAL_PASS_S = 30.0       # typical pass of either workload on a 2-vCPU VM
MAX_PASSES = 3              # more passes would not end within HARD_LIMIT_S
PROGRAM = ("import sys; from torusprop.harness import main; sys.exit(main())",)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


@dataclass
class OpRun:
    op: Op
    status: int
    wall: float
    cpu: float
    rss_mb: float
    data: bytes
    stderr: str
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    runs: list

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _wait_child(cmd, env, cwd, stdout, stderr, deadline: float):
    """Run one child to completion; returns (exit code, wall s, rusage).
    The child is killed if it is still running at ``deadline``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: do not leave the child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_op(op: Op, workdir: Path, env: dict, deadline: float) -> OpRun:
    out_path = workdir / (op.name + ".stdout")
    err_path = workdir / (op.name + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        status, wall, usage = _wait_child((sys.executable, "-c") + PROGRAM + op.argv,
                                          dict(env, **op.env), workdir, out, err, deadline)
    table = workdir / op.table_name if op.writes_out else out_path
    data = table.read_bytes() if table.is_file() else b""
    return OpRun(op, status, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 data, err_path.read_text(errors="replace")[-400:])


def run_pass(ops: list, workdir: Path, env: dict, deadline: float) -> Pass:
    return Pass([run_op(op, workdir, env, deadline) for op in ops])


def pass_count(seconds: float) -> int:
    """Passes in an untraced run.  The count depends only on ``--seconds``,
    never on how fast the passes go, so every run behind a median has the
    same number of samples: 30 s gives one pass."""
    return min(MAX_PASSES, max(1, round(seconds / NOMINAL_PASS_S)))


def time_imports(env: dict, deadline: float, warm_up: bool = False) -> list:
    """Wall times of fresh interpreters importing torusprop.harness.  A
    warm-up import, which may compile bytecode, is not kept."""
    times = []
    for _ in range(SETUP_SAMPLES + warm_up):
        status, wall, _ = _wait_child((sys.executable, "-c", "import torusprop.harness"), env,
                                      None, subprocess.DEVNULL, subprocess.DEVNULL, deadline)
        if status != 0:
            raise BenchError("importing torusprop.harness failed")
        times.append(wall)
    return times[1:] if warm_up else times


def import_breakdown(env: dict, deadline: float) -> dict:
    """Median cumulative import time of numpy, and summed self time of the
    torusprop modules, from ``-X importtime``."""
    numpy_s, own_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run((sys.executable, "-X", "importtime", "-c", "import torusprop.harness"),
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError("importing torusprop.harness failed")
        numpy_us = own_us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)", line)
            if not m:
                continue
            name = m.group(4)
            if name == "numpy":
                numpy_us = int(m.group(2))
            elif name == "torusprop" or name.startswith("torusprop."):
                own_us += int(m.group(1))
        numpy_s.append(numpy_us / 1e6)
        own_s.append(own_us / 1e6)
    return {"import.numpy.s": (statistics.median(numpy_s), "s"),
            "import.torusprop.s": (statistics.median(own_s), "s")}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_pass(p: Pass, first: Pass | None) -> None:
    """Attach problems to each operation of a pass.  The first pass is
    checked in full; later passes must reproduce its tables byte for byte."""
    for i, r in enumerate(p.runs):
        if r.status != 0:
            r.problems.append(f"exit status {r.status}: {r.stderr.strip()[-200:]}")
        elif first is None:
            r.problems += check_output(r.op, r.data)[0]
        elif r.data != first.runs[i].data:
            r.problems.append("table differs from the first pass's")


def accuracy(p: Pass) -> tuple:
    rel, phase = [], []
    for r in p.runs:
        _, rel_errs, phase_errs = check_output(r.op, r.data)
        rel += rel_errs
        phase += phase_errs
    finite = [v for v in rel if v == v and v != float("inf")]
    return max(finite, default=0.0), max(phase, default=0.0)


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _in_process_env(workdir: Path, extra: dict):
    saved_cwd = os.getcwd()
    saved_env = {k: os.environ.get(k) for k in extra}
    os.chdir(workdir)
    os.environ.update(extra)
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _call_main(main, argv: tuple, stdout) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error fails this operation, not the run
            traceback.print_exc()
            status = 1
    return status, err.getvalue()


def traced_pass(ops: list, workdir: Path, src: Path, probe: bool) -> dict:
    """Run the operations once in process with the layer boundaries wrapped.
    Returns the tables, the pass wall time, the spans and the probe record."""
    sys.path.insert(0, str(src))
    import torusprop.harness as harness
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    tables, statuses, probe_rec = {}, {}, None
    try:
        start = time.perf_counter()
        for op in ops:
            tracer.op = op.name
            out_path = workdir / (op.name + ".stdout")
            with _in_process_env(workdir, op.env), open(out_path, "w", newline="") as out:
                statuses[op.name], _ = _call_main(harness.main, op.argv, out)
            table = workdir / op.table_name if op.writes_out else out_path
            tables[op.name] = table.read_bytes() if table.is_file() else b""
        wall = time.perf_counter() - start
        if probe:
            tracer.op = "probe"
            t0 = time.perf_counter()
            with _in_process_env(workdir, {}), open(workdir / "probe.stdout", "w") as out:
                status, message = _call_main(harness.main, KNOWN_FAILURE_PROBE + ("--out", "probe.csv"),
                                             out)
            probe_spans = [s for s in tracer.spans if s.op == "probe"]
            probe_rec = {
                "argv": list(KNOWN_FAILURE_PROBE), "status": status,
                "message": message.strip(), "wall_s": time.perf_counter() - t0,
                "torusgeo.integrate_flow.errors": sum(
                    1 for s in probe_spans if s.name == "torusgeo.integrate_flow" and "error" in s.attrs),
                "torusgeo.integrate_flow.calls": sum(
                    1 for s in probe_spans if s.name == "torusgeo.integrate_flow")}
    finally:
        tracer.restore()
    return {"tables": tables, "statuses": statuses, "wall": wall, "tracer": tracer,
            "probe": probe_rec, "start": start}


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": git_commit(root)}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def declared_metrics(root: Path, key: str) -> list:
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return [(m["name"], m["unit"]) for m in spec[key]]


def select_metrics(values: dict, declared: list) -> dict:
    """The declared metrics, in declared order; a mismatch is a benchmark bug."""
    have = {name: unit for name, (_, unit) in values.items()}
    if have != dict(declared):
        missing = sorted(set(dict(declared)) - set(have))
        extra = sorted(set(have) - set(dict(declared)))
        raise BenchError(f"metrics out of step with BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, or units differ")
    return {name: {"value": values[name][0], "unit": unit} for name, unit in declared}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def child_env(src: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def check_sources(root: Path) -> Path:
    src = root / "src"
    if not (src / "torusprop" / "harness.py").is_file():
        raise BenchError(f"no torusprop sources under {src}; run from the repository root")
    return src


def bench(args) -> int:
    t_begin = time.monotonic()
    deadline = t_begin + HARD_LIMIT_S
    root = Path.cwd()
    src = check_sources(root)
    declared = declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    ops = workload_ops(args.workload, args.seed)
    for op in ops:
        if "--k" in op.argv and op.argv[op.argv.index("--k") + 1].count(",") > 1:
            raise BenchError(f"{op.name} passes more than two k values")
    env = child_env(src)
    run_dir = root / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=run_dir))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        # set-up samples are spread over the run, so that one slow moment of
        # the machine does not set the median
        setup = time_imports(env, deadline, warm_up=True)
        passes = []
        # a traced run needs one untraced pass, as the overhead baseline
        for _ in range(1 if args.trace else pass_count(args.seconds)):
            p = run_pass(ops, workdir, env, deadline)
            check_pass(p, passes[0] if passes else None)
            passes.append(p)
            setup += time_imports(env, deadline)
        all_runs = [r for p in passes for r in p.runs]
        walls = [p.wall for p in passes]
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "pass_count": len(passes),
                  "trace": args.trace, "environment": environment(root),
                  "ops": [{"name": op.name, "argv": ["toeplitz-propagator", *op.argv],
                           "env": op.env} for op in ops],
                  "setup_s": setup,
                  "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
                              "ops": [{"name": r.op.name, "status": r.status, "wall_s": r.wall,
                                       "cpu_s": r.cpu, "rss_mb": r.rss_mb,
                                       "problems": r.problems} for r in p.runs]}
                             for p in passes]}
        max_rel_err, max_phase = accuracy(passes[0])
        values = {"wall_s": (statistics.median(walls), "s"),
                  "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
                  "setup_s": (statistics.median(setup), "s"),
                  "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
                  "max_rel_err": (max_rel_err, "1"),
                  "max_abs_phase_err": (max_phase, "rad")}
        print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
              f"{len(ops)} ops, wall_s max {max(walls):.4g} s")

        if args.trace:
            traced_dir = workdir / "traced"
            traced_dir.mkdir()
            tp = traced_pass(ops, traced_dir, src, probe=args.workload == "generic-level")
            traced_runs = []
            for i, op in enumerate(ops):
                r = OpRun(op, tp["statuses"][op.name], 0.0, 0.0, 0.0, tp["tables"][op.name], "")
                if r.status != 0:
                    r.problems.append(f"traced exit status {r.status}")
                elif r.data != passes[0].runs[i].data:
                    r.problems.append("traced table differs from the untraced one")
                traced_runs.append(r)
            all_runs += traced_runs
            tracer = tp["tracer"]
            spans = [s for s in tracer.spans if s.op != "probe"]
            from tracer import layer_metrics

            values = layer_metrics(spans, tracer.counts)
            values.update(import_breakdown(env, deadline))
            # the in-process pass skips one interpreter start per operation
            untraced = statistics.median(walls) - len(ops) * statistics.median(setup)
            values["trace.overhead_s"] = (tp["wall"] - untraced, "s")
            record["traced"] = {"wall_s": tp["wall"], "probe": tp["probe"],
                                "problems": {r.op.name: r.problems for r in traced_runs}}
            with open(run_dir / f"{stem}.spans.jsonl", "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps({"id": s.id, "name": s.name,
                                         "start": s.start - tp["start"],
                                         "end": s.end - tp["start"], "parent": s.parent,
                                         "thread": s.thread, "op": s.op, "attrs": s.attrs}) + "\n")
            print(f"traced pass {tp['wall']:.4g} s, {len(tracer.spans)} spans")
            if tp["probe"] is not None:
                pr = tp["probe"]
                print(f"known-failure probe: exit {pr['status']} after {pr['wall_s']:.3g} s, "
                      f"torusgeo.integrate_flow.errors={pr['torusgeo.integrate_flow.errors']}: "
                      f"{pr['message'] or '(no message)'}")

        failed = sum(1 for r in all_runs if r.problems)
        for r in all_runs:
            for problem in r.problems:
                print(f"FAILED {r.op.name}: {problem}")
        if not args.trace:
            print(f"failed_ops {failed}/{len(all_runs)} = {failed / len(all_runs):.6g} ratio")
        metrics = select_metrics(values, declared)
        for name, m in metrics.items():
            print(f"{name} {_fmt(m['value'])} {m['unit']}")
        record["metrics"] = metrics
        record["attempted"], record["failed"] = len(all_runs), failed
        with open(run_dir / f"{stem}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        print(json.dumps({"correct": failed == 0, "attempted": len(all_runs),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="the run's window; BENCHMARK.json declares 30")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
