import json

import numpy as np
import pytest

from magsphere.cli import ConfigError, GridSpec, RunConfig, main, parse_config


def test_grid_spec_parsing():
    g = GridSpec.parse("0.5:2.5:5")
    assert np.allclose(g.axis(), np.linspace(0.5, 2.5, 5))
    assert GridSpec.parse(str(g)) == g
    for bad in ("1:2", "2:1:5", "a:b:c", "1:2:1"):
        with pytest.raises(ConfigError):
            GridSpec.parse(bad)


def test_run_config_round_trip():
    cfg = parse_config(
        ["equilibria", "--B", "2.5", "--grid-q", "0.5:2.5:10", "--family", "type1"]
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


def test_atlas_ec_cusp_rows(tmp_path):
    out = tmp_path / "ec.csv"
    assert main(["atlas", "--diagram", "ec", "--B", "2.5", "--out", str(out)]) == 0
    cusps = [l for l in out.read_text().splitlines() if l.endswith(",cusp")]
    assert len(cusps) == 3


def test_atlas_unknown_diagram():
    assert main(["atlas", "--diagram", "nope"]) == 1


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
