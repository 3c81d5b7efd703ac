"""Each command loads only the modules its handler runs, and the package
exports resolve.

Each check runs in a fresh interpreter, as this test process has loaded
everything already.  `import hypospec` loads no `hypospec.*` submodule.
`deck` and `hypomorphic` load `iso` and numpy, but neither `spectral`,
`verify` nor OpenSSL's `_hashlib`.  `gen`, `compare` and `verify` (with or
without its numeric claims) load neither `iso`, numpy nor `_hashlib`.
`spectrum` loads `_hashlib` for its vector digest, and not numpy.

What this buys: `python3 perfbench/run.py --workload hypomorphism --seconds 20
--trace 0` gave a median peak RSS of 36.7 MB for `hypomorphic` on X^5/Y^5
while `import hypospec` loaded `families`, `spectral` and `verify` and
`spectral` imported `hashlib` at the top, and 32.8 MB once neither did (10
alternating runs a side, 2-vCPU Xeon).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypospec

SRC = str(Path(hypospec.__file__).resolve().parent.parent)

WATCHED = ("hypospec.iso", "hypospec.spectral", "hypospec.verify", "numpy", "_hashlib")

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


GEN_X3 = ["gen", "--family", "X", "--n", "3", "--out", "x3.hg"]
GEN_Y3 = ["gen", "--family", "Y", "--n", "3", "--out", "y3.hg"]
SPECTRAL = {"hypospec.spectral"}
CLAIMS = {"hypospec.spectral", "hypospec.verify"}
SEARCH = {"hypospec.iso", "numpy"}


@pytest.mark.parametrize("argvs, loads", [
    ([], set()),
    ([["gen", "--family", "X", "--n", "3"]], set()),
    ([["verify", "--n", "3", "--exact-only", "--out", "verdict.json"]], CLAIMS),
    ([["verify", "--n", "3", "--out", "verdict.json"]], CLAIMS),
    ([["compare", "--n", "3"]], CLAIMS),
    ([GEN_X3, ["spectrum", "x3.hg"]], SPECTRAL | {"_hashlib"}),
    ([GEN_X3, ["deck", "x3.hg"]], SEARCH),
    ([GEN_X3, GEN_Y3, ["hypomorphic", "x3.hg", "y3.hg"]], SEARCH),
], ids=["import", "gen", "verify-exact-only", "verify", "compare", "spectrum", "deck",
        "hypomorphic"])
def test_numpy_is_loaded_only_by_float_and_search_commands(argvs, loads, tmp_path):
    """The watched modules each command loads, numpy among them: exactly `loads`."""
    after_import, codes, loaded = json.loads(
        _python(PROBE, json.dumps(argvs), json.dumps(WATCHED), cwd=tmp_path))
    assert after_import == []
    assert codes == [0] * len(argvs)
    assert set(loaded) == loads


def test_package_exports_resolve():
    assert set(hypospec.__all__) <= set(dir(hypospec))
    for name in hypospec.__all__:
        assert getattr(hypospec, name) is not None
    namespace: dict = {}
    exec("from hypospec import *", namespace)
    assert set(hypospec.__all__) <= set(namespace)
    from hypospec import families, iso, spectral, verify
    homes = {"FamilySpec": families, "family_hypergraph": families, "hypomorphic": iso,
             "principal_eigenpair": spectral, "rational_bracket": spectral,
             "verify_main_theorem": verify}
    assert set(homes) == set(hypospec.__all__) - {"__version__"}
    for name, module in homes.items():
        assert getattr(hypospec, name) is getattr(module, name)
        assert namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        hypospec.no_such_name
    assert not hasattr(hypospec, "no_such_name")


def test_submodules_import_through_the_package_in_a_fresh_process(tmp_path):
    code = """
import sys
import hypospec
assert not [m for m in sys.modules if m.startswith("hypospec.")]
assert set(hypospec.__all__) <= set(dir(hypospec))
from hypospec import iso, spectral
assert iso is sys.modules["hypospec.iso"] and spectral is sys.modules["hypospec.spectral"]
assert hypospec.hypomorphic is iso.hypomorphic
assert hypospec.rational_bracket is spectral.rational_bracket
assert "hypospec.verify" not in sys.modules
namespace = {}
exec("from hypospec import *", namespace)
assert namespace["hypomorphic"] is iso.hypomorphic
assert namespace["verify_main_theorem"] is sys.modules["hypospec.verify"].verify_main_theorem
print("ok")
"""
    assert _python(code, cwd=tmp_path) == "ok"
