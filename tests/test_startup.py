"""Each CLI process loads only the code its command runs, and runs OpenBLAS
on one thread unless the user says otherwise.

Every check runs in a fresh interpreter, because the test session itself
has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_NEVER = ("numpy.random", "concurrent.futures", "logging", "queue")  # no command loads these
_WATCHED = _NEVER + ("torusprop.acceptance", "torusprop.propkern", "torusprop.specproj",
                     "torusprop.thetaq", "json", "configparser", "numpy.ma")
_THREADS = "OPENBLAS_NUM_THREADS"


def _run(code: str, **env) -> str:
    """The last line a fresh interpreter prints after running ``code``, in
    this environment less OPENBLAS_NUM_THREADS (which importing the package
    here has set), plus ``env``."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    child = {k: v for k, v in os.environ.items() if k != _THREADS}
    proc = subprocess.run([sys.executable, "-c", code], env=dict(child, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded(code: str) -> set:
    """The watched modules loaded by a fresh interpreter after running ``code``."""
    probe = (code + "\nimport sys\n"
             f"print(' '.join(m for m in {_WATCHED!r} if m in sys.modules) or '-')")
    return set(_run(probe).split()) - {"-"}


@pytest.mark.parametrize("preset, threads", [({}, "1"), ({_THREADS: "2"}, "2")])
def test_the_package_sets_the_blas_thread_count_before_numpy_loads(preset, threads):
    # every entry path runs the package's __init__ first, so this holds for
    # the console script and the harness too
    probe = f"import os, sys, torusprop\nprint('numpy' in sys.modules, os.environ.get({_THREADS!r}))"
    assert _run(probe, **preset) == f"False {threads}"


def test_importing_the_harness_loads_no_command_code():
    assert _loaded("import torusprop.harness") == set()


@pytest.mark.parametrize("command, argv, not_loaded", [
    ("propagator", ["--k", "5"], {"torusprop.acceptance", "torusprop.specproj"}),
    ("projector", ["--k", "5"], {"torusprop.acceptance"}),
    ("lifts", ["--k", "5"], {"torusprop.acceptance", "torusprop.specproj", "torusprop.thetaq"}),
    ("selftest", [], set()),
    ("propagator", ["--symbol", "cos(2*pi*q)", "--k", "50"],
     {"torusprop.acceptance", "torusprop.specproj", "numpy.ma"}),
])
def test_command_loads_only_its_own_code(command, argv, not_loaded, tmp_path):
    out = str(tmp_path / "table.out")
    loaded = _loaded("from torusprop.harness import main\n"
                     f"assert main({[command, *argv, '--out', out]!r}) == 0")
    assert not loaded & set(_NEVER)
    assert not loaded & not_loaded
