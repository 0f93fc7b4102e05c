"""Each CLI process loads only the code its command runs.

Every check runs in a fresh interpreter, because the test session itself
has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_WATCHED = ("numpy.random", "torusprop.acceptance", "torusprop.propkern",
            "torusprop.specproj", "json", "configparser")


def _loaded(code: str) -> set:
    """The watched modules loaded by a fresh interpreter after running ``code``."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    probe = (code + "\nimport sys\n"
             f"print(' '.join(m for m in {_WATCHED!r} if m in sys.modules) or '-')")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()) - {"-"}


def test_importing_the_harness_loads_no_command_code():
    assert _loaded("import torusprop.harness") == set()


@pytest.mark.parametrize("command, argv, not_loaded", [
    ("propagator", ["--k", "5"], {"torusprop.acceptance", "torusprop.specproj"}),
    ("projector", ["--k", "5"], {"torusprop.acceptance"}),
    ("lifts", ["--k", "5"], {"torusprop.acceptance", "torusprop.specproj"}),
    ("selftest", [], set()),
])
def test_command_loads_only_its_own_code(command, argv, not_loaded, tmp_path):
    out = str(tmp_path / "table.out")
    loaded = _loaded("from torusprop.harness import main\n"
                     f"assert main({[command, *argv, '--out', out]!r}) == 0")
    assert "numpy.random" not in loaded
    assert not loaded & not_loaded
