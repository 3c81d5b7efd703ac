"""Each command loads only the modules its handler runs and starts no BLAS
thread pool, the package re-exports nothing, and every function in it is
one that some command runs.

Each check runs in a fresh interpreter, as this test process has loaded
everything already.  `import hypospec` loads no `hypospec.*` submodule.
`deck` and `hypomorphic` load `iso` and numpy, which loads `inspect`, and
none of `polyalg`, `families`, `fractions`, `spectral`, `verify` or
OpenSSL's `_hashlib`.  `spectrum` loads `spectral`, `fractions` for its
exact bracket and `_hashlib` for its vector digest, and neither numpy,
`inspect`, `polyalg` nor `families`.  `gen`, `compare` and `verify` (with
or without its numeric claims) load `polyalg`, `families` and `fractions`,
and neither `iso`, numpy, `inspect` nor `_hashlib`: none of the modules
they load defines a dataclass, and `dataclasses` loads `inspect`.
`compare` and `verify` load `verify` and `spectral`; `verify --exact-only`
loads `verify` and no `spectral`, since the numeric claims import it when
they run.  After `deck` and `hypomorphic` the process
has one thread, because `cli.main` sets OPENBLAS_NUM_THREADS to 1 before
numpy loads; a value set by the caller is kept.

The commands reach every function of the package but a listed few, each
listed with its reason; the tests' oracles and input builders live in
`tests/oracles.py`.

The README gives the peak memory and import time this saves.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypospec
from hypospec.families import FAMILY_TAGS, FamilySpec, family_hypergraph

SRC = str(Path(hypospec.__file__).resolve().parent.parent)

WATCHED = ("hypospec.iso", "hypospec.spectral", "hypospec.verify", "hypospec.polyalg",
           "hypospec.families", "numpy", "fractions", "_hashlib", "inspect")

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
    """X^3 and Y^3 as text files, written here so that the load probes run no `gen`."""
    for tag in ("X", "Y"):
        hg = family_hypergraph(FamilySpec(tag, 3))
        (tmp_path / f"{tag.lower()}3.hg").write_text(hg.to_text(), encoding="ascii")
    return tmp_path


POLY = {"hypospec.polyalg", "hypospec.families", "fractions"}
EXACT = POLY | {"hypospec.verify"}
CLAIMS = EXACT | {"hypospec.spectral"}
# numpy and `iso`'s dataclass load `inspect`
SEARCH = {"hypospec.iso", "numpy", "inspect"}


@pytest.mark.parametrize("argvs, loads", [
    ([], set()),
    ([["gen", "--family", "X", "--n", "3"]], POLY),
    ([["verify", "--n", "3", "--exact-only", "--out", "verdict.json"]], EXACT),
    ([["verify", "--n", "3", "--out", "verdict.json"]], CLAIMS),
    ([["compare", "--n", "3"]], CLAIMS),
    ([["spectrum", "x3.hg"]], {"hypospec.spectral", "fractions", "_hashlib"}),
    ([["deck", "x3.hg"]], SEARCH),
    ([["hypomorphic", "x3.hg", "y3.hg"]], SEARCH),
], ids=["import", "gen", "verify-exact-only", "verify", "compare", "spectrum", "deck",
        "hypomorphic"])
def test_each_command_loads_only_its_modules(argvs, loads, pair_files):
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


# Under a profile hook the child records the code object of every function
# call; the package's own are keyed by (module, first line, name).
REACH_PROBE = """
import json, os, sys
import hypospec
package = os.path.dirname(hypospec.__file__)
seen = set()
def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(record)
from hypospec import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
reached = {(os.path.basename(c.co_filename)[:-3], c.co_firstlineno, c.co_name)
           for c in seen if os.path.dirname(c.co_filename) == package}
print(json.dumps([codes, sorted(reached)]))
"""

# Every file format, output form and solver start of the six commands.
REACH_COMMANDS = (
    [["gen", "--family", tag, "--n", "3", *(["--k", "2"] if tag == "G" else [])]
     for tag in FAMILY_TAGS]
    + [["gen", "--family", "X", "--n", "3", "--out", "x3.json"]]
    + [["spectrum", name, "--format", form] for name in ("x3.hg", "x3.json")
       for form in ("text", "json")]
    + [["compare", "--n", "3", "--seed", seed] for seed in ("0", "2")]
    + [["deck", "x3.hg"], ["hypomorphic", "x3.hg", "y3.hg"],
       ["verify", "--n", "3..5", "--out", "verdict.json"]])

# The functions no command in REACH_COMMANDS reaches, and why each stays.
UNREACHED = {
    # error paths: bad input or a failed identity claim
    "hypergraph.UnknownVertexError.__init__", "verify._certificate",
    # protocol methods, for printing and comparing by hand
    "hypergraph.Hypergraph.__repr__", "polyalg.SparsePoly.__eq__",
    "polyalg.SparsePoly.__rsub__", "polyalg.SparsePoly.__str__",
    "polyalg.SparsePoly.__repr__", "polyalg.Endomorphism.__repr__",
    # wrapped by name in `TIMED` of perfbench/tracer.py, which fails on a missing one
    "families.theta_endo", "polyalg.SparsePoly.__pow__", "polyalg.SparsePoly.evaluate_exact",
    "spectral.degree", "spectral.refined_eigenvector",
}


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualname, node) for each def below `tree`, as `__qualname__` names it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def test_every_function_is_reached_by_a_command(pair_files):
    """A function that only tests call belongs in `tests/oracles.py`.  The
    commands run in a fresh interpreter, where no `lru_cache` memo left by
    another test hides a call.  A decorated function's code object starts
    at its first decorator line, not at `def`."""
    codes, reached = json.loads(
        _python(REACH_PROBE, json.dumps(REACH_COMMANDS), cwd=pair_files))
    assert codes == [0] * len(REACH_COMMANDS)
    reached = set(map(tuple, reached))
    unreached = set()
    for path in Path(hypospec.__file__).parent.glob("*.py"):
        module = path.stem
        for qualname, node in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            start = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            if (module, start, node.name) not in reached:
                unreached.add(f"{module}.{qualname}")
    assert sorted(unreached - UNREACHED) == [], "no command reaches these functions"
    assert sorted(UNREACHED - unreached) == [], "listed as unreached, but reached or gone"
