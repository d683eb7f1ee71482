"""Import budget: magsphere runs on numpy alone.  `import magsphere`, the
cot-potential CLI paths, the tabulated potential and the atlas's isosceles
window load no scipy module, no module under src/magsphere imports it, and
the CI workflow's numpy-only job runs with scipy and sympy unimportable.

Each run check uses a fresh interpreter, since this one has long since
imported scipy for other tests.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_MODULES = "sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))"


def _fresh(code: str, cwd=None) -> str:
    """Standard output of `code` run in a new interpreter on this src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)
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


def test_table_potential_and_isosceles_window_load_no_scipy(tmp_path):
    table = tmp_path / "pot.csv"
    code = f"""
import sys
import numpy as np
from magsphere import atlas, cli, table_potential
q = np.linspace(0.1, np.pi - 0.1, 40)
np.savetxt({str(table)!r}, np.column_stack([q, 1.0 / np.tan(q)]), delimiter=",")
V = table_potential(q, 1.0 / np.tan(q))
assert abs(V.value(1.2) - 1.0 / np.tan(1.2)) < 1e-3
q0, q1 = atlas.type2_window(2.5)
assert 0 < q0 < atlas.Q_CRITICAL < q1 < np.pi
assert len(atlas.bc_region().traces) == 120
for argv in (["atlas", "--diagram", "ec", "--B", "2.5"], ["atlas", "--diagram", "bc"],
             ["equilibria", "--mu1", "1.3", "--B", "1", "--q", "1.2", "--potential",
              "custom-table", "--potential-file", {str(table)!r}]):
    assert cli.main([*argv, "--out", {str(tmp_path / "out")!r}]) == 0
print({SCIPY_MODULES})
"""
    assert _fresh(code) == "[]"


def test_numpy_only_ci_job_runs(tmp_path):
    """The workflow's numpy-only job, after its install step, in a new
    interpreter where scipy and sympy cannot be imported: each `python -c`
    line runs by exec and each `magsphere` line through cli.main, which
    must return 0."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((SRC.parent / ".github" / "workflows" / "tests.yml").read_text())
    steps = workflow["jobs"]["numpy-only"]["steps"]
    lines = [line for step in steps if "magsphere " in step.get("run", "")
             for line in step["run"].splitlines()]
    assert sum(line.startswith("magsphere ") for line in lines) == 8
    code = f"""
import shlex, sys
sys.modules["scipy"] = sys.modules["sympy"] = None     # importing either now raises
from magsphere import cli
for line in {lines!r}:
    argv = shlex.split(line)
    if argv[:2] == ["python", "-c"]:
        exec(argv[2], {{}})
    else:
        assert argv[0] == "magsphere" and cli.main(argv[1:]) == 0, line
print()   # the records on stdout end without a newline
print("ran", len({lines!r}))
"""
    assert _fresh(code, cwd=tmp_path) == f"ran {len(lines)}"
    assert (tmp_path / "map.csv").read_text().startswith("q,B,family,")
    assert (tmp_path / "traj.csv.full").read_text().startswith("t,q1x,")
    assert (tmp_path / "full.csv").read_text().startswith("t,q1x,")


def test_no_module_imports_scipy():
    for path in sorted((SRC / "magsphere").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), \
                f"{path.name}:{node.lineno} imports scipy"


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    name = lambda requirement: re.match(r"[\w.-]+", requirement).group().lower()
    assert "scipy" not in map(name, project["dependencies"])
    assert "scipy" in map(name, project["optional-dependencies"]["test"])
