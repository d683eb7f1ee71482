"""Self-tests of the benchmark: counters add up, gates catch perturbed
results, and inputs and counts depend on the seed alone.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Tracer

magsphere, W = run.load()
A, E = magsphere.atlas, magsphere.equilibria


def traced_pass(name, seed, n):
    """One untraced and one traced pass over a small workload."""
    wl = W.build(name, seed, n)
    tracer = Tracer()
    passes = run.run_passes(wl, W, 0.0, tracer, magsphere)
    return wl, tracer, passes


@pytest.fixture(scope="module")
def atlas_run():
    return traced_pass("atlas", 3, 2)


@pytest.fixture(scope="module")
def general_run():
    return traced_pass("general", 3, 6)


def test_tracer_restores_the_library(atlas_run):
    assert A.type2 is E.type2 and not hasattr(E.type2, "__wrapped__")
    assert magsphere.reduced.rhs is magsphere.stability.rhs is magsphere.equilibria.rhs
    assert not hasattr(magsphere.reduced.Trajectory.to_csv, "__wrapped__")


@pytest.mark.parametrize("fixture", ["atlas_run", "general_run"])
def test_class_counts_sum_to_linearize_calls(fixture, request):
    wl, tracer, passes = request.getfixturevalue(fixture)
    m = run.per_layer(passes, wl, tracer)
    classes = sum(m[f"stability.{c}"][0] for c in ("stable", "unstable", "degenerate"))
    assert classes == m["stability.linearize_calls"][0] > 0


def test_atlas_cells_are_items_times_axis(atlas_run):
    wl, tracer, passes = atlas_run
    m = run.per_layer(passes, wl, tracer)
    assert m["atlas.cells"][0] == len(wl.items) * len(A.default_q_axis(W.ATLAS_Q_POINTS))


@pytest.mark.parametrize("fixture", ["atlas_run", "general_run"])
def test_self_times_sum_to_traced_wall(fixture, request):
    wl, tracer, passes = request.getfixturevalue(fixture)
    spans = tracer.by_name()
    self_total = sum(v[2] for v in spans.values())
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert self_total == pytest.approx(roots, rel=1e-9)
    m = run.per_layer(passes, wl, tracer)
    assert 0 <= m["trace.gap_frac"][0] < 0.01
    layers = sum(m[f"{layer}.self_s"][0] for layer in run.LAYERS)
    assert layers == pytest.approx(self_total, rel=1e-9)


def test_tracing_leaves_results_unchanged(general_run):
    _wl, _tracer, passes = general_run
    assert [p.traced for p in passes] == [False, True]
    assert run.consistency_errors(passes) == []


# -- gates -------------------------------------------------------------------

def _orbit():
    wl = W.build("orbits", 5, 1)
    params = magsphere.identical_params(W.ORBIT_B)
    V = magsphere.cot_potential(params)
    red = magsphere.integrate(wl.items[0], params, V, 0.05, W.ORBIT_DT)
    full = magsphere.full_integrate(magsphere.lift_state(wl.items[0], params), params, V, 0.05,
                                    W.ORBIT_DT)
    return red, full


def test_orbit_gates_catch_perturbed_results():
    red, full = _orbit()
    assert W.orbit_gates(red, full, 0.0) == []
    bumped = red.energy.copy()
    bumped[-1] += 1e-6
    assert W.orbit_gates(dataclasses.replace(red, energy=bumped), full, 0.0)
    bumped = red.casimir.copy()
    bumped[-1] += 1e-6
    assert W.orbit_gates(dataclasses.replace(red, casimir=bumped), full, 0.0)
    phi = full.phi.copy()
    phi[-1] += 1e-5
    assert W.orbit_gates(red, dataclasses.replace(full, phi=phi), 0.0)
    assert W.orbit_gates(red, full, 1e-5)


def _grid(B):
    q_axis = np.array([0.8, 2.2])
    return A.stability_grid(q_axis, [B]), B


def test_grid_gates_catch_perturbed_results():
    grid, B = _grid(6.0)
    assert W.grid_gates(grid, B) == []
    flipped = dataclasses.replace(grid, cells=[dict(c) for c in grid.cells])
    cell = flipped.cells[0]
    cell["entries"] = [
        (f, H, C, "LinearlyUnstable" if f in W.TYPE1 else k) for f, H, C, k in cell["entries"]
    ]
    (reason, known), = W.grid_gates(flipped, B)
    assert not known and "TypeI " in reason
    dropped = dataclasses.replace(grid, cells=[dict(c) for c in grid.cells])
    cell = dropped.cells[1]
    cell["entries"] = [e for e in cell["entries"] if e[0] != "TypeII+"]
    (reason, known), = W.grid_gates(dropped, B)
    assert not known and "TypeII" in reason
    low, B_low = _grid(0.5)
    added = dataclasses.replace(low, cells=[dict(c) for c in low.cells])
    added.cells[1]["entries"] = [("TypeII+", 0.0, 0.0, "LinearlyStable")]
    assert W.grid_gates(added, B_low)


def test_known_residual_cut_is_classified_known():
    q, B = float(A.default_q_axis(W.ATLAS_Q_POINTS)[-1]), 10.0
    cut = [r for r in E.type2(q, B) if r.residual > W.RECORD_RESIDUAL]
    failures = W.grid_gates(A.stability_grid(np.array([q]), [B]), B)
    if cut:
        assert failures and all(known for _reason, known in failures)
    else:
        assert failures == []


def test_region_gate_catches_an_inverted_range():
    region = A.bc_region(np.array([3.0]), n_q=20)
    assert W.region_gates(region) == []
    t = dict(region.traces[0], C_min=1.0, C_max=0.0)
    assert W.region_gates(dataclasses.replace(region, traces=[t]))


def test_general_gates_catch_perturbed_results():
    wl = W.build("general", 5, 1)
    q, params, V = wl.items[0]
    recs = E.solve_general(q, params, V)
    reps = [magsphere.linearize(r, V) for r in recs]
    images = W.opposite_charge_residuals(recs)
    assert W.general_gates(recs, reps, [], images) == []
    assert W.general_gates([], [], [], [])
    assert W.general_gates([dataclasses.replace(recs[0], residual=1e-6)], reps, [], images)
    bad_signature = dataclasses.replace(reps[0], hessian_signature=(2, 1, 0))
    assert W.general_gates(recs, [bad_signature], [], images)
    assert W.general_gates(recs, reps, [], [1e-6])


def test_raised_error_counts_as_failed_and_the_run_goes_on():
    def boom(item, index, tally):
        raise magsphere.NoAdmissibleRoot("perturbed")

    wl = dataclasses.replace(W.build("general", 5, 2), item_fn=boom)
    tally = W.Tally()
    for i in range(len(wl.items)):
        W.run_item(wl, i, tally)
    assert tally.failed_items() == 2
    assert not any(f.known for f in tally.failures)


def test_attempted_and_failed_do_not_depend_on_the_pass_count():
    wl = W.build("atlas", 1, 4)
    tally = W.Tally(failures=[W.Failure(0, "a", True), W.Failure(0, "b", True),
                              W.Failure(2, "c", True)])
    one = [run.Pass(False, 1.0, [0.25] * 4, tally)]
    assert run.outcome(wl, one) == run.outcome(wl, one * 7) == (4, 2)


# -- seeds -------------------------------------------------------------------

@pytest.mark.parametrize("name", W.BUILDERS)
def test_seed_fixes_inputs(name):
    n = 3
    assert W.build(name, 1, n).digest == W.build(name, 1, n).digest
    assert W.build(name, 1, n).digest != W.build(name, 2, n).digest


def test_one_seed_gives_identical_counts():
    a = traced_pass("general", 8, 4)
    b = traced_pass("general", 8, 4)
    assert a[2][0].tally.fingerprint() == b[2][0].tally.fingerprint()
    assert a[1].records == b[1].records > 0
    assert a[1].hot["reduced.rhs"][0] == b[1].hot["reduced.rhs"][0] > 0
    assert a[2][1].trace_counts == b[2][1].trace_counts


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    with pytest.raises((json.JSONDecodeError, IndexError)):
        json.loads(proc.stdout.strip().splitlines()[-1])
