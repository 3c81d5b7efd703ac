"""Each command loads only the modules its handler runs and starts no BLAS
thread pool, and the package re-exports nothing.

Each check runs in a fresh interpreter, as this test process has loaded
everything already.  `import hypospec` loads no `hypospec.*` submodule.
`deck` and `hypomorphic` load `iso` and numpy, and none of `polyalg`,
`families`, `fractions`, `spectral`, `verify` or OpenSSL's `_hashlib`.
`spectrum` loads `spectral`, `fractions` for its exact bracket and
`_hashlib` for its vector digest, and neither numpy, `polyalg` nor
`families`.  `gen`, `compare` and `verify` (with or without its numeric
claims) load `polyalg`, `families` and `fractions`, and neither `iso`,
numpy nor `_hashlib`.  After `deck` and `hypomorphic` the process has one
thread, because `cli.main` sets OPENBLAS_NUM_THREADS to 1 before numpy
loads; a value set by the caller is kept.

The README gives the peak memory and import time this saves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypospec
from hypospec.families import FamilySpec, family_hypergraph

SRC = str(Path(hypospec.__file__).resolve().parent.parent)

WATCHED = ("hypospec.iso", "hypospec.spectral", "hypospec.verify", "hypospec.polyalg",
           "hypospec.families", "numpy", "fractions", "_hashlib")

PROBE = """
import json, sys
import hypospec
after_import = sorted(m for m in sys.modules if m.startswith("hypospec."))
from hypospec import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
watched = json.loads(sys.argv[2])
print(json.dumps([after_import, codes, [m for m in watched if m in sys.modules]]))
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture
def pair_files(tmp_path):
    """X^3 and Y^3 as text files, written here so that the probes run no `gen`."""
    for tag in ("X", "Y"):
        hg = family_hypergraph(FamilySpec(tag, 3))
        (tmp_path / f"{tag.lower()}3.hg").write_text(hg.to_text(), encoding="ascii")
    return tmp_path


POLY = {"hypospec.polyalg", "hypospec.families", "fractions"}
CLAIMS = POLY | {"hypospec.spectral", "hypospec.verify"}
SEARCH = {"hypospec.iso", "numpy"}


@pytest.mark.parametrize("argvs, loads", [
    ([], set()),
    ([["gen", "--family", "X", "--n", "3"]], POLY),
    ([["verify", "--n", "3", "--exact-only", "--out", "verdict.json"]], CLAIMS),
    ([["verify", "--n", "3", "--out", "verdict.json"]], CLAIMS),
    ([["compare", "--n", "3"]], CLAIMS),
    ([["spectrum", "x3.hg"]], {"hypospec.spectral", "fractions", "_hashlib"}),
    ([["deck", "x3.hg"]], SEARCH),
    ([["hypomorphic", "x3.hg", "y3.hg"]], SEARCH),
], ids=["import", "gen", "verify-exact-only", "verify", "compare", "spectrum", "deck",
        "hypomorphic"])
def test_numpy_is_loaded_only_by_float_and_search_commands(argvs, loads, pair_files):
    """The watched modules each command loads, numpy among them: exactly `loads`."""
    after_import, codes, loaded = json.loads(
        _python(PROBE, json.dumps(argvs), json.dumps(WATCHED), cwd=pair_files))
    assert after_import == []
    assert codes == [0] * len(argvs)
    assert set(loaded) == loads


# The pytest process has run `cli.main` already, which set the variable, so
# the child clears it before it sets its own value.
BLAS_PROBE = """
import io, json, os, sys
from contextlib import redirect_stdout
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if sys.argv[1]:
    os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
from hypospec import cli
out = io.StringIO()
with redirect_stdout(out):
    codes = [cli.main(["deck", "x3.hg", "--out", sys.argv[2]]),
             cli.main(["hypomorphic", "x3.hg", "y3.hg"])]
threads = len(os.listdir("/proc/self/task"))
print(json.dumps([codes, threads, os.environ.get("OPENBLAS_NUM_THREADS"), out.getvalue()]))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_search_commands_start_no_blas_threads(pair_files):
    """Unset, the variable reads "1" afterwards and the process has one
    thread; OpenBLAS would start cpu_count - 1 more.  A caller's value is
    kept, and the output does not depend on it."""
    codes, threads, value, out = json.loads(_python(BLAS_PROBE, "", "unset.json",
                                                    cwd=pair_files))
    assert (codes, threads, value) == ([0, 0], 1, "1")
    codes, _, preset_value, preset_out = json.loads(_python(BLAS_PROBE, "2", "preset.json",
                                                            cwd=pair_files))
    assert (codes, preset_value) == ([0, 0], "2")
    assert preset_out == out and "hypomorphic: yes" in out
    assert (pair_files / "preset.json").read_bytes() == (pair_files / "unset.json").read_bytes()


def test_submodules_import_through_the_package_in_a_fresh_process(tmp_path):
    """Each public name has one import path, its module: the package itself
    holds only `__version__` and loads no submodule until one is imported."""
    code = """
import sys
import hypospec
assert not [m for m in sys.modules if m.startswith("hypospec.")]
from hypospec import iso, spectral
assert iso is sys.modules["hypospec.iso"] and spectral is sys.modules["hypospec.spectral"]
assert "hypospec.verify" not in sys.modules
try:
    from hypospec import verify_main_theorem
except ImportError:
    pass
else:
    raise AssertionError("the package re-exports verify_main_theorem")
assert "hypospec.verify" not in sys.modules
print("ok")
"""
    assert _python(code, cwd=tmp_path) == "ok"
