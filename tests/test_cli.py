import ast
import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from magsphere import cli
from magsphere.cli import ConfigError, GridSpec, RunConfig, main, parse_config


def test_grid_spec_parsing():
    g = GridSpec.parse("0.5:2.5:5")
    assert np.allclose(g.axis(), np.linspace(0.5, 2.5, 5))
    assert GridSpec.parse(str(g)) == g
    # non-finite ends: nan:1:3 used to give the axis [nan, nan, 1]
    for bad in ("1:2", "2:1:5", "a:b:c", "1:2:1", "nan:1:3", "0.5:nan:3", "nan:nan:3",
                "-inf:1:3", "0.5:inf:3", "-inf:inf:3"):
        with pytest.raises(ConfigError):
            GridSpec.parse(bad)
    assert main(["atlas", "--diagram", "threshold", "--grid-q", "nan:1:3"]) == 1


def test_run_config_round_trip():
    for grid_q in ("0.5:2.5:10", "0.5:2.641592653589793:3"):
        cfg = parse_config(
            ["equilibria", "--B", "2.5", "--grid-q", grid_q, "--family", "type1"]
        )
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg


def test_config_file_with_flag_override(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"B": 1.5, "q": 1.0}))
    cfg = parse_config(["equilibria", "--config", str(f), "--B", "2.5"])
    assert cfg.B == 2.5 and cfg.q == 1.0


def test_unknown_config_key_rejected(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError):
        parse_config(["equilibria", "--config", str(f)])


def test_simulate_writes_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--q", "1.4", "--m2", "0.05", "--B", "2.5",
         "--t-end", "0.2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,m1,m2,m3,q,p,H,C"
    assert len(lines) == 202


def test_simulate_equilibrium_is_constant(tmp_path):
    from magsphere.equilibria import type1

    rec = type1(1.0, 2.5)[0]
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--q", "1.0", "--m2", str(rec.state.m2), "--m3", str(rec.state.m3),
         "--B", "2.5", "--t-end", "0.5", "--out", str(out)]
    )
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1:6] - data[0, 1:6])) < 1e-9


def test_simulate_collision_exit_code(tmp_path):
    code = main(
        ["simulate", "--q", "0.5", "--e2", "-1", "--p", "-1", "--B", "0.5",
         "--t-end", "5", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--B", "inf", "--q", "1.0", "--family", "type1"],
    ["--mu1", "1.3", "--e2", "nan", "--B", "1", "--q", "1.2"],
    ["--B", "nan"],
], ids=["B_inf", "e2_nan", "B_nan"])
def test_non_finite_parameters_are_domain_errors(capsys, argv):
    """A NaN or infinite parameter exits 2 with a DomainError, before any
    equilibrium is computed."""
    assert main(["equilibria", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be finite" in err


def test_missing_flags_exit_code():
    assert main(["simulate", "--B", "2.5"]) == 1
    assert main(["stability", "--B", "2.5"]) == 1


def test_equilibria_identical_grid(tmp_path):
    out = tmp_path / "eq.json"
    code = main(
        ["equilibria", "--B", "2.5", "--grid-q", "0.4:1.4:3", "--family", "type1",
         "--out", str(out)]
    )
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 6  # 2 per cell
    assert all(r["residual"] < 1e-9 for r in records)


@pytest.mark.parametrize("family", ["all", "type1", "type2"])
def test_equilibria_grid_equals_per_cell_closed_forms(tmp_path, family):
    """The records of one closed_form_grid call, listed B outer and q inner,
    equal scalar type1/type2 calls cell by cell; the middle q is pi/2."""
    from magsphere.equilibria import type1, type2

    out = tmp_path / "eq.json"
    grid = ["--grid-q", f"0.5:{np.pi - 0.5!r}:3", "--grid-B", "0.5:5:9"]
    assert main(["equilibria", *grid, "--family", family, "--out", str(out)]) == 0
    expected = []
    for B in np.linspace(0.5, 5, 9):
        for q in np.linspace(0.5, np.pi - 0.5, 3):
            if family != "type2" and abs(q - np.pi / 2) > 1e-4:
                expected += [r.to_dict() for r in type1(q, B)]
            if family != "type1":
                expected += [r.to_dict() for r in type2(q, B)]
    assert json.loads(out.read_text()) == expected
    assert len(expected) > 20


def test_equilibria_below_threshold(tmp_path):
    out = tmp_path / "eq.json"
    main(["equilibria", "--B", "1.0", "--q", "2.0", "--family", "type2", "--out", str(out)])
    assert json.loads(out.read_text()) == []


def test_equilibria_general_params(tmp_path):
    out = tmp_path / "eq.json"
    code = main(
        ["equilibria", "--mu1", "1.3", "--mu2", "0.7", "--e2", "-2", "--B", "0.9",
         "--q", "1.2", "--out", str(out)]
    )
    assert code == 0
    assert len(json.loads(out.read_text())) >= 1


def test_equilibria_right_angle(tmp_path):
    out = tmp_path / "ra.json"
    code = main(["equilibria", "--B", "3.0", "--family", "right-angle", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())) == 2


def test_equilibria_right_angle_applies_the_residual_cut(tmp_path):
    """--tol is the record cut on the right-angle path too: both records,
    with residuals near 1e-15, fail a cut of 1e-30."""
    out = tmp_path / "ra.json"
    argv = ["equilibria", "--B", "3", "--family", "right-angle", "--tol", "1e-30"]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == []


@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize(
    "system",
    [["--mu1", "1.3", "--mu2", "0.7", "--e2", "-2"], ["--potential", "custom-table"]],
    ids=["unequal", "table"],
)
def test_equilibria_refuses_a_closed_form_family_for_general_systems(capsys, family, system):
    """type1/type2 select closed-form records, which only identical particles
    with V = cot have; elsewhere the flag would select nothing."""
    assert main(["equilibria", *system, "--B", "0.9", "--q", "1.2", "--family", family]) == 1
    assert "selects closed-form equilibria" in capsys.readouterr().err


def test_stability_grid_csv(tmp_path):
    out = tmp_path / "st.csv"
    code = main(
        ["stability", "--grid-q", "0.5:2.5:4", "--grid-B", "1:4:3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,B,family,a,b,class,n_plus,n_minus,n_zero"
    assert len(lines) > 12


def test_atlas_threshold(tmp_path):
    out = tmp_path / "thr.csv"
    code = main(["atlas", "--diagram", "threshold", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert "min_q=2.0943951023931953" in lines[0]
    data = np.loadtxt(lines[2:], delimiter=",")
    i = np.argmin(data[:, 1])
    assert data[i, 1] >= (4 / 3) * 3**0.25 - 1e-9


def test_atlas_type1_stability(tmp_path):
    from magsphere.stability import type1_boundary

    out = tmp_path / "b.csv"
    assert main(["atlas", "--diagram", "type1-stability", "--out", str(out)]) == 0
    data = np.loadtxt(out.read_text().splitlines()[2:], delimiter=",")
    for q, B in data[::40]:
        assert B == pytest.approx(type1_boundary(q))


@pytest.mark.parametrize("argv", [
    ["--diagram", "threshold", "--grid-q", "0:3:4"],
    ["--diagram", "type1-stability", "--grid-q", "0:1.5:3"],
], ids=["threshold", "type1-stability"])
def test_atlas_curves_reject_q_outside_the_guard(capsys, argv):
    """A q axis that leaves the guarded interval exits 2 with a DomainError
    and writes no row (it was the row 0,inf)."""
    assert main(["atlas", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("DomainError: q=0.0 outside guarded interval")


def test_atlas_ec_cusp_rows(tmp_path):
    out = tmp_path / "ec.csv"
    assert main(["atlas", "--diagram", "ec", "--B", "2.5", "--out", str(out)]) == 0
    cusps = [l for l in out.read_text().splitlines() if l.endswith(",cusp")]
    assert len(cusps) == 3


def test_atlas_unknown_diagram():
    assert main(["atlas", "--diagram", "nope"]) == 1


REFUSED = {
    "equilibria_family": ["equilibria", "--B", "2.5", "--q", "1.0", "--family", "typo"],
    "equilibria_type1_masses": ["equilibria", "--mu1", "1.3", "--mu2", "0.7", "--e2", "-2",
                                "--B", "0.9", "--q", "1.2", "--family", "type1"],
    "equilibria_type2_masses": ["equilibria", "--mu1", "1.3", "--mu2", "0.7", "--e2", "-2",
                                "--B", "0.9", "--q", "1.2", "--family", "type2"],
    "equilibria_type1_potential": ["equilibria", "--potential", "custom-table", "--q", "1.2",
                                   "--family", "type1"],
    "equilibria_type2_potential": ["equilibria", "--potential", "custom-table", "--q", "1.2",
                                   "--family", "type2"],
    "stability_family": ["stability", "--grid-q", "0.5:2.5:3", "--grid-B", "1:4:2",
                         "--family", "typo"],
    "stability_right_angle": ["stability", "--grid-q", "0.5:2.5:3", "--grid-B", "1:4:2",
                              "--family", "right-angle"],
    "stability_potential": ["stability", "--grid-q", "0.5:2.5:3", "--grid-B", "1:4:2",
                            "--potential", "custom-table"],
    "atlas_potential": ["atlas", "--diagram", "threshold", "--potential", "custom-table"],
    "atlas_masses": ["atlas", "--diagram", "ec", "--B", "2.5", "--mu1", "2"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
@pytest.mark.parametrize("source", ["flags", "config"])
def test_inputs_a_command_does_not_compute_are_config_errors(tmp_path, capsys, argv, source):
    """A family or potential that a command does not compute, and unequal
    particles on `atlas`, exit 1 with a config error and write nothing,
    given as flags or, for the offending value, in a --config file."""
    out = tmp_path / "out"
    if source == "config":
        key = argv[-2].lstrip("-")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(argv[-1]) if key == "mu1" else argv[-1]}))
        argv = argv[:-2] + ["--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_custom_table_potential(tmp_path):
    qs = np.linspace(0.2, 2.9, 60)
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.column_stack([qs, 1 / np.tan(qs)]), delimiter=",")
    out = tmp_path / "eq.json"
    code = main(
        ["equilibria", "--mu1", "1.3", "--mu2", "0.7", "--B", "0.9", "--q", "1.2",
         "--potential", "custom-table", "--potential-file", str(table), "--out", str(out)]
    )
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) >= 1 and all(r["residual"] < 1e-9 for r in records)


TABLE_RANGE = {
    "equilibria_q": ["equilibria", "--mu1", "1.3", "--B", "1", "--q", "1.2"],
    "equilibria_grid_q": ["equilibria", "--mu1", "1.3", "--B", "1", "--grid-q", "0.6:0.9:4"],
    "equilibria_below": ["equilibria", "--mu1", "1.3", "--B", "1", "--q", "0.4"],
    "right_angle": ["equilibria", "--mu1", "1.3", "--B", "1", "--family", "right-angle"],
    "simulate": ["simulate", "--mu1", "1.3", "--B", "1", "--q", "1.2", "--m3", "0.1"],
    "reconstruct": ["reconstruct", "--mu1", "1.3", "--B", "1", "--q", "0.45", "--m3", "0.1"],
}


@pytest.mark.parametrize("argv", TABLE_RANGE.values(), ids=TABLE_RANGE.keys())
def test_q_outside_the_potential_table_is_a_config_error(tmp_path, capsys, argv):
    """A table defines V on [q_0, q_n] only: a command refuses any q it
    would evaluate beyond it (each --q and --grid-q value, pi/2 for the
    right-angle family) and writes nothing."""
    qs = np.linspace(0.5, 0.8, 20)
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.column_stack([qs, 1 / np.tan(qs)]), delimiter=",")
    out = tmp_path / "out"
    argv = [*argv, "--potential", "custom-table", "--potential-file", str(table)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: q=\S+ lies outside the potential table \[0.5, 0.8\]\n", err)
    assert not out.exists()


def test_q_on_the_potential_table_is_evaluated(tmp_path):
    """Every q on [q_0, q_n], the end nodes included, is accepted."""
    qs = np.linspace(0.5, 0.8, 20)
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.column_stack([qs, 1 / np.tan(qs)]), delimiter=",")
    pot = ["--potential", "custom-table", "--potential-file", str(table)]
    for argv in (["equilibria", "--mu1", "1.3", "--B", "1", "--grid-q", "0.5:0.8:4"],
                 ["simulate", "--mu1", "1.3", "--B", "1", "--q", "0.65", "--m3", "0.01",
                  "--t-end", "0.01", "--dt", "0.001"]):
        assert main([*argv, *pot, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_an_orbit_that_leaves_the_potential_table_stops(tmp_path, capsys, command):
    """An orbit from q = 0.78 on a table over [0.5, 0.8] passes its last
    node within the step that ends at t = 0.034: both commands exit 2 there,
    naming the table's range and t, and write nothing."""
    qs = np.linspace(0.5, 0.8, 20)
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.column_stack([qs, 1 / np.tan(qs)]), delimiter=",")
    out = tmp_path / "out.csv"
    argv = [command, "--mu1", "1.3", "--B", "1", "--q", "0.78", "--p", "0.3", "--m3", "0.1",
            "--t-end", "2", "--potential", "custom-table", "--potential-file", str(table)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    where, table_range = r"(q=|geodesic distance )0\.800\d+", r"the potential table \[0.5, 0.8\]"
    assert re.fullmatch(rf"DomainError: {where} left {table_range} at t=0\.034\n", err), err
    assert not out.exists()


def test_potential_table_with_a_header_is_a_config_error(tmp_path, capsys):
    qs = np.linspace(0.2, 2.9, 60)
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.column_stack([qs, 1 / np.tan(qs)]), delimiter=",",
               header="q,V", comments="")
    out = tmp_path / "eq.json"
    code = main(
        ["equilibria", "--mu1", "1.3", "--B", "1", "--q", "1.2",
         "--potential", "custom-table", "--potential-file", str(table), "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: cannot read potential table: ")
    assert not out.exists()


def test_reconstruct_writes_full_trajectory(tmp_path):
    out = tmp_path / "full.csv"
    code = main(
        ["reconstruct", "--q", "1.4", "--m2", "0.05", "--B", "2.5",
         "--t-end", "0.2", "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("t,q1x") and header.endswith("phiz")


# A 2 x 2 grid with one Type II+ record (q near pi, B = 9.19) whose residual,
# 1.9e-9, lies just above the default record cut of 1e-9.
CUT_GRID = ["--grid-q", "3.0:3.0936503774313264:2", "--grid-B", "9.0:9.188910385279419:2"]


def test_stability_drops_records_above_the_residual_cut(tmp_path, capsys):
    out = tmp_path / "st.csv"
    assert main(["stability", *CUT_GRID, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 15
    assert not any(r.startswith("3.09365037743133,9.18891038527942,TypeII+,") for r in rows)
    assert "dropped 1 records" in capsys.readouterr().err


def test_stability_tol_sets_the_residual_cut(tmp_path, capsys):
    out = tmp_path / "st.csv"
    assert main(["stability", *CUT_GRID, "--tol", "1e-5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 16
    kept = [r for r in rows if r.startswith("3.09365037743133,9.18891038527942,TypeII+,")]
    assert len(kept) == 1 and kept[0].split(",")[5] == "LinearlyStable"
    assert "dropped 0 records" in capsys.readouterr().err


@pytest.mark.parametrize("tol, n", [(None, 15), ("1e-5", 16)])
def test_closed_form_equilibria_apply_the_residual_cut(tmp_path, tol, n):
    """The identical-particle path of `equilibria` drops the Type II+ record
    above the default cut, as `stability` does, and keeps it under --tol."""
    out = tmp_path / "eq.json"
    flags = [] if tol is None else ["--tol", tol]
    assert main(["equilibria", *CUT_GRID, *flags, "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == n
    assert all(r["residual"] < float(tol or 1e-9) for r in records)


def test_equilibria_tol_sets_the_residual_cut(tmp_path):
    """solve_general keeps a record only below the cut; a cut at the largest
    default residual drops exactly the records at that residual."""
    out = tmp_path / "eq.json"
    args = ["equilibria", "--mu1", "1.3", "--mu2", "0.7", "--e2", "-2", "--B", "0.9",
            "--q", "1.2", "--out", str(out)]
    assert main(args) == 0
    records = json.loads(out.read_text())
    cut = max(r["residual"] for r in records)
    expected = [r for r in records if r["residual"] < cut]
    assert expected and len(expected) < len(records)
    assert main(args + ["--tol", repr(cut)]) == 0
    assert json.loads(out.read_text()) == expected


# The first run passes antipodal placement at t = 1.902, the second collides
# at t = 0.142 (reduced guard); RK4 steps of dt = 1e-3 either way.
COLLISION_RUNS = {
    "antipodal": ["--q", "1.4", "--m2", "0.05", "--B", "2.5", "--t-end", "5"],
    "collision": ["--q", "0.5", "--e2", "-1", "--p", "-1", "--B", "0.5", "--t-end", "5"],
}


@pytest.mark.parametrize("flags", COLLISION_RUNS.values(), ids=COLLISION_RUNS.keys())
def test_reconstruct_stops_where_simulate_does(tmp_path, capsys, flags):
    """Both commands exit 2 with CollisionApproach, the full-space run within
    10 steps of the reduced one."""
    stop = {}
    for command in ("simulate", "reconstruct"):
        assert main([command, *flags, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("CollisionApproach: ")
        stop[command] = float(re.search(r"at t=([0-9.e+-]+)", err).group(1))
    assert abs(stop["reconstruct"] - stop["simulate"]) <= 10 * 1e-3


def test_every_config_field_is_read():
    """A parsed flag or config key that no code reads is a bug: every
    RunConfig field but `command` is read as config.<field> or self.<field>
    in cli.py."""
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("config", "self")
    }
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    assert fields - read == set()


def test_readme_examples_run(tmp_path):
    """Every `magsphere ...` line of the README's sh blocks exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("magsphere ")
    ]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)[1:]
        i = argv.index("--out")
        argv[i + 1] = str(tmp_path / argv[i + 1])
        assert main(argv) == 0, line
