"""numpy is loaded only where a canonical search runs, and the package
exports resolve.

Each check runs in a fresh interpreter, as this test process has loaded numpy
already.  `import hypospec` must not load it, and neither may `gen`,
`spectrum`, `compare` or `verify` with or without its numeric claims; `deck`
and `hypomorphic` still load it and succeed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypospec

SRC = str(Path(hypospec.__file__).resolve().parent.parent)

PROBE = """
import json, sys
import hypospec
after_import = "numpy" in sys.modules
from hypospec import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([after_import, codes, "numpy" in sys.modules]))
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


GEN_X3 = ["gen", "--family", "X", "--n", "3", "--out", "x3.hg"]
GEN_Y3 = ["gen", "--family", "Y", "--n", "3", "--out", "y3.hg"]


@pytest.mark.parametrize("argvs, loads_numpy", [
    ([], False),
    ([["gen", "--family", "X", "--n", "3"]], False),
    ([["verify", "--n", "3", "--exact-only", "--out", "verdict.json"]], False),
    ([["verify", "--n", "3", "--out", "verdict.json"]], False),
    ([["compare", "--n", "3"]], False),
    ([GEN_X3, ["spectrum", "x3.hg"]], False),
    ([GEN_X3, ["deck", "x3.hg"]], True),
    ([GEN_X3, GEN_Y3, ["hypomorphic", "x3.hg", "y3.hg"]], True),
], ids=["import", "gen", "verify-exact-only", "verify", "compare", "spectrum", "deck",
        "hypomorphic"])
def test_numpy_is_loaded_only_by_float_and_search_commands(argvs, loads_numpy, tmp_path):
    after_import, codes, after_run = json.loads(
        _python(PROBE, json.dumps(argvs), cwd=tmp_path))
    assert after_import is False
    assert codes == [0] * len(argvs)
    assert after_run is loads_numpy


def test_package_exports_resolve():
    for name in hypospec.__all__:
        assert getattr(hypospec, name) is not None
    namespace: dict = {}
    exec("from hypospec import *", namespace)
    assert set(hypospec.__all__) <= set(namespace)
    from hypospec import iso
    assert hypospec.hypomorphic is iso.hypomorphic
    with pytest.raises(AttributeError, match="no_such_name"):
        hypospec.no_such_name
    assert not hasattr(hypospec, "no_such_name")


def test_submodules_import_through_the_package_in_a_fresh_process(tmp_path):
    code = """
import sys
import hypospec
assert "hypospec.iso" not in sys.modules
from hypospec import iso, spectral
assert iso is sys.modules["hypospec.iso"] and spectral is sys.modules["hypospec.spectral"]
assert hypospec.hypomorphic is iso.hypomorphic
namespace = {}
exec("from hypospec import *", namespace)
assert namespace["hypomorphic"] is iso.hypomorphic
print("ok")
"""
    assert _python(code, cwd=tmp_path) == "ok"
