"""The import boundaries of the package.

The package root imports nothing: every public name is read from its
submodule. isectret takes posv and trtrs from scipy's compiled LAPACK module
(scipy/linalg/_flapack), loaded under a private name without importing
scipy.linalg. Each import test runs in a fresh interpreter, since this
process imported scipy.linalg long ago.
"""

import importlib.machinery
import importlib.metadata
import importlib.util
import os
import subprocess
import sys

import pytest

import isectret
from isectret import manifold as mf

SRC = os.path.dirname(os.path.dirname(isectret.__file__))


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_the_package_root_loads_nothing():
    # every public name lives in its submodule; the root re-exports none
    run_fresh(
        "import sys\n"
        "import isectret\n"
        "prefixes = ('isectret.', 'numpy.')\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith(prefixes))\n"
        "assert loaded == [], loaded\n"
    )


def test_importing_the_cli_loads_no_scipy_module():
    run_fresh(
        "import sys\n"
        "import isectret.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert loaded == [], loaded\n"
    )


SCIPY_STILL_WORKS = """
import sys

import numpy as np
import scipy.linalg
from isectret import manifold as mf

assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
assert scipy.linalg._flapack is not mf._FLAPACK
assert mf._FLAPACK.__name__ == "isectret._flapack"
S = np.array([[4.0, 1.0], [1.0, 3.0]])
b = np.array([1.0, 2.0])
_, x, info = scipy.linalg.lapack.dposv(S, b)
assert info == 0 and np.allclose(S @ x, b), (info, x)
y, _ = mf._spd_solve(S.copy(), b)
assert np.allclose(S @ y, b), y
"""


@pytest.mark.parametrize(
    "first",
    ["import isectret.manifold", "import scipy.linalg"],
    ids=["isectret-first", "scipy-first"],
)
def test_scipy_linalg_keeps_its_own_lapack_module(first):
    run_fresh(first + "\n" + SCIPY_STILL_WORKS)


def test_a_missing_lapack_module_raises_a_named_import_error(monkeypatch, tmp_path):
    # scipy's package directory moved to an empty one: no _flapack there
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError) as exc:
        mf._load_flapack()
    message = str(exc.value)
    assert f"scipy {importlib.metadata.version('scipy')} has no compiled LAPACK module" in message
    assert str(tmp_path / "linalg") in message


def test_a_missing_scipy_raises_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="needs scipy"):
        mf._load_flapack()
