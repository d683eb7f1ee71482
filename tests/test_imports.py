"""Import budget: `import magsphere` and the cot-potential CLI paths load
numpy and no scipy module.  scipy loads only inside the calls that need it,
the tabulated potential and the isosceles window of the atlas.

Each check runs in a fresh interpreter, since this one has long since
imported scipy for other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_MODULES = "sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))"


def _fresh(code: str) -> str:
    """Standard output of `code` run in a new interpreter on this src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_and_cot_cli_load_no_scipy(tmp_path):
    out = tmp_path / "traj.csv"
    code = f"""
import sys
import magsphere, magsphere.cli
from magsphere import cli
assert cli.main(["equilibria", "--B", "2.5", "--q", "1.0", "--family", "type1"]) == 0
assert cli.main(["simulate", "--q", "1.4", "--m2", "0.05", "--m3", "0.5", "--B", "2.5",
                 "--t-end", "0.01", "--out", {str(out)!r}]) == 0
print()   # the records on stdout end without a newline
print({SCIPY_MODULES})
"""
    assert _fresh(code) == "[]"
    assert out.read_text().startswith("t,m1,m2,m3,q,p,H,C\n")


def test_calls_that_need_scipy_load_it_themselves():
    code = f"""
import sys
import numpy as np
from magsphere import atlas, table_potential
assert {SCIPY_MODULES} == []
q0, q1 = atlas.type2_window(2.5)
assert 0 < q0 < atlas.Q_CRITICAL < q1 < np.pi
q = np.linspace(0.1, np.pi - 0.1, 40)
V = table_potential(q, 1.0 / np.tan(q))
assert abs(V.value(1.2) - 1.0 / np.tan(1.2)) < 1e-3
print("scipy.optimize" in sys.modules and "scipy.interpolate" in sys.modules)
"""
    assert _fresh(code) == "True"
