"""Seeded inputs, items and correctness gates of the three workloads.

A workload is built from its seed alone.  Its `items` form one pass; a run
repeats the pass until its time is up, so every pass does the same work and
must leave the same `Tally`.  Each item calls magsphere's public API the way
the CLI subcommands do (`simulate --fullspace`, `atlas ec/bc`, `stability`,
`equilibria`), but not through `cli.main`.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List

import numpy as np

from magsphere import atlas as A
from magsphere import core as C
from magsphere import equilibria as E
from magsphere import fullspace as F
from magsphere import reduced as R
from magsphere import stability as S
from magsphere import symmetry as Y

# What an item may raise and still let the run go on; it counts as failed.
ITEM_ERRORS = (C.MagsphereError, ArithmeticError, np.linalg.LinAlgError)
RECORD_RESIDUAL = C.DEFAULT_TOL.record_residual

# orbits: criterion 07's states and gates; about ten reduced steps per full
# step, so that the two integrators take comparable shares of an item.
ORBIT_B = 2.5
ORBIT_DT = 1e-3
ORBIT_T_REDUCED = 1.0
ORBIT_T_FULL = 0.1
ORBIT_ITEMS = 10
DRIFT_GATE = 1e-8
PHI_GATE = 1e-7
CROSS_GATE = 1e-6

# atlas: one B per item, stratified over (0, 10] so that every pass holds
# the same mix of items below and above B* and of items near B = 10.
ATLAS_B_MAX = 10.0
ATLAS_ITEMS = 20
ATLAS_Q_POINTS = 120
ATLAS_MARGIN = 0.01
TYPE1 = ("TypeI+", "TypeI-")
A_TYPE1_BAND = 1e-4       # stability_grid skips Type I this close to pi/2
TYPE2 = ("TypeII+", "TypeII-")

# general: criterion 12's ranges; items alternate cot and table potentials.
GENERAL_ITEMS = 200
GENERAL_GATE = 1e-9
TABLE_NODES = 256


@dataclass
class Failure:
    """One failed gate or raised error.  `known` marks the documented
    Type II residual-cut defect (see README.md); anything else is not
    explained and makes the run incorrect."""

    item: int
    reason: str
    known: bool = False


@dataclass
class Tally:
    """Counts, worst values and failures of one pass."""

    counts: Counter = field(default_factory=Counter)
    worst: dict = field(default_factory=dict)
    failures: List[Failure] = field(default_factory=list)

    def add(self, **counts) -> None:
        self.counts.update(counts)

    def max(self, name: str, value) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), float(value))

    def classes(self, classifications) -> None:
        for c in classifications:
            self.counts[c] += 1

    def failed_items(self) -> int:
        return len({f.item for f in self.failures})

    def fingerprint(self) -> tuple:
        fails = tuple((f.item, f.reason, f.known) for f in self.failures)
        return tuple(sorted(self.counts.items())), tuple(sorted(self.worst.items())), fails


@dataclass
class Workload:
    items: list
    item_fn: Callable[[object, int, "Tally"], None]
    tail_pct: float           # the tail percentile reported as item_tail_ms
    digest: str               # hash of the generated inputs
    table_potential_s: float = 0.0

    @property
    def min_items(self) -> int:
        """Items a run needs for 10 to lie beyond the tail percentile."""
        return int(np.ceil(10.0 / (1.0 - self.tail_pct / 100.0)))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def run_item(wl: Workload, index: int, tally: Tally) -> None:
    """Run one item and its gates; a raised error counts as a failure."""
    try:
        wl.item_fn(wl.items[index], index, tally)
    except ITEM_ERRORS as exc:
        tally.failures.append(Failure(index, f"raised {type(exc).__name__}: {exc}"))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def orbit_states(n: int, rng) -> list:
    """Small perturbations of linearly stable isosceles equilibria, as in
    criterion 07: they stay in the guarded q-domain."""
    out = []
    for _ in range(n):
        q = rng.uniform(1.6, 2.0)
        x = E.type2(q, ORBIT_B)[0].state.as_array()
        x[[0, 1, 2, 4]] += rng.uniform(-0.05, 0.05, 4)
        x[3] += rng.uniform(-0.05, 0.05)
        out.append(C.ReducedState.from_array(x))
    return out


def orbit_gates(red, full, cross: float) -> List[str]:
    """Criterion 07: invariant drift, momentum-map drift, reduced vs full."""
    bad = []
    dH, dC, dphi = red.energy_drift.max(), red.casimir_drift.max(), full.phi_drift.max()
    if not dH < DRIFT_GATE:
        bad.append(f"|dH| = {dH:.3g}")
    if not dC < DRIFT_GATE:
        bad.append(f"|dC| = {dC:.3g}")
    if not dphi < PHI_GATE:
        bad.append(f"|dphi| = {dphi:.3g}")
    if not cross < CROSS_GATE:
        bad.append(f"reduced vs full = {cross:.3g}")
    return bad


def _orbit_item(state, index: int, tally: Tally) -> None:
    params = C.identical_params(ORBIT_B)
    V = C.cot_potential(params)
    red = R.integrate(state, params, V, ORBIT_T_REDUCED, ORBIT_DT)
    full = F.full_integrate(F.lift_state(state, params), params, V, ORBIT_T_FULL, ORBIT_DT)
    end = F.reduce_state(F.FullState.from_array(full.states[-1]), params)
    k = len(full.times) - 1
    cross = float(np.max(np.abs(end.as_array() - red.states[k])))
    csv_bytes = len(red.to_csv()) + len(full.to_csv())
    tally.add(steps=len(red.times) - 1, full_steps=k, csv_bytes=csv_bytes)
    tally.max("drift", max(red.energy_drift.max(), red.casimir_drift.max()))
    tally.max("phi_drift", full.phi_drift.max())
    tally.max("crossval", cross)
    tally.failures += [Failure(index, r) for r in orbit_gates(red, full, cross)]


def build_orbits(seed: int, n: int = ORBIT_ITEMS) -> Workload:
    states = orbit_states(n, np.random.default_rng(seed))
    digest = _digest(*[s.as_array() for s in states])
    return Workload(states, _orbit_item, 90.0, digest)


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def atlas_fields(n: int, rng) -> np.ndarray:
    """One B per stratum of (0, B_MAX]; shuffled so no pass runs sorted."""
    edges = np.linspace(0.0, ATLAS_B_MAX, n + 1)
    B = edges[:-1] + (edges[1:] - edges[:-1]) * (1.0 - rng.random(n))
    return rng.permutation(B)


def _residual_cut(q: float, B: float, kept: int) -> bool:
    """True when the Type II records missing from a cell are exactly those
    that `type2` returns with a residual just above the record cut."""
    recs = E.type2(q, B)
    cut = [r.residual for r in recs if r.residual > RECORD_RESIDUAL]
    return (
        len(recs) == 2
        and len(cut) == 2 - kept
        and all(r <= 10 * RECORD_RESIDUAL for r in cut)
    )


def grid_gates(grid, B: float) -> List[tuple]:
    """(reason, known) per failing cell of a one-column stability grid.

    Type I: for q < pi/2 and B more than 1% from type1_boundary(q), every
    side-by-side entry is stable exactly above the boundary (criterion 05).
    Type II: 2 entries more than 1% above type2_threshold(q), and 0 more
    than 1% below.
    """
    bad = []
    for cell in grid.cells:
        q, entries = cell["q"], cell["entries"]
        if q < np.pi / 2:
            b = S.type1_boundary(q)
            if abs(B - b) > ATLAS_MARGIN * b:
                want = "LinearlyStable" if B > b else "LinearlyUnstable"
                got = [e[3] for e in entries if e[0] in TYPE1]
                if any(c != want for c in got):
                    bad.append((f"TypeI at q={q:.6g}: {got}, want {want}", False))
        t = E.type2_threshold(q)
        kept = sum(e[0] in TYPE2 for e in entries)
        if B > (1 + ATLAS_MARGIN) * t and kept != 2:
            bad.append((f"TypeII at q={q:.6g}: {kept} of 2", _residual_cut(q, B, kept)))
        elif B < (1 - ATLAS_MARGIN) * t and kept != 0:
            bad.append((f"TypeII at q={q:.6g}: {kept} below threshold", False))
    return bad


def region_gates(region) -> List[str]:
    return [
        f"C_min > C_max at B={t['B']:.6g}" for t in region.traces if not t["C_min"] <= t["C_max"]
    ]


def ec_rows(diagram) -> list:
    """The rows `magsphere atlas --diagram ec` writes."""
    rows = []
    for b in diagram.branches:
        rows += [(b.tag, q, c, h, "") for q, c, h in zip(b.q, b.C, b.H)]
        rows += [(b.tag, q, c, h, "cusp") for q, c, h in b.cusps]
    return rows


def _atlas_item(item, index: int, tally: Tally) -> None:
    B, q_axis = item
    grid = A.stability_grid(q_axis, [B])
    diagram = A.energy_casimir_diagram(B)
    region = A.bc_region(np.array([B])) if B > A.B_CRITICAL else None
    meta = {"diagram": "ec", "B": B, "potential": "cot"}
    text = A.csv_with_metadata(("branch", "q", "C", "H", "tag"), ec_rows(diagram), meta)
    entries = [e for cell in grid.cells for e in cell["entries"]]
    type1_cells = sum(abs(c["q"] - np.pi / 2) > A_TYPE1_BAND for c in grid.cells)
    tally.add(cells=len(grid.cells), cusps=len(diagram.cusps), csv_bytes=len(text),
              type1_dropped=2 * type1_cells - sum(e[0] in TYPE1 for e in entries))
    tally.classes(e[3] for e in entries)
    cell_failures = grid_gates(grid, B)
    tally.add(gate_failures=len(cell_failures))
    tally.failures += [Failure(index, r, known) for r, known in cell_failures]
    if region is not None:
        tally.add(bc_traces=len(region.traces))
        tally.failures += [Failure(index, r) for r in region_gates(region)]


def build_atlas(seed: int, n: int = ATLAS_ITEMS) -> Workload:
    B = atlas_fields(n, np.random.default_rng(seed))
    q_axis = A.default_q_axis(ATLAS_Q_POINTS)
    return Workload([(float(b), q_axis) for b in B], _atlas_item, 90.0, _digest(B, q_axis))


# ---------------------------------------------------------------------------
# general
# ---------------------------------------------------------------------------

def table_nodes():
    """A smooth, strictly decreasing potential V(q) = cot q + q / 2."""
    q = np.linspace(0.1, np.pi - 0.1, TABLE_NODES)
    return q, 1.0 / np.tan(q) + 0.5 * q


def general_systems(n: int, rng) -> list:
    """(q, params) in the ranges of criterion 12."""
    out = []
    while len(out) < n:
        q = rng.uniform(0.25, np.pi - 0.25)
        if abs(q - np.pi / 2) < 0.05:
            continue
        params = C.SystemParams(
            rng.uniform(0.5, 3),
            rng.uniform(0.5, 3),
            rng.choice([-1, 1]) * rng.uniform(0.5, 2),
            rng.choice([-1, 1]) * rng.uniform(0.5, 2),
            rng.uniform(0.1, 5),
        )
        out.append((float(q), params))
    return out


def opposite_charge_residuals(records) -> List[float]:
    """Residual of each record's opposite-charge image in the conjugate
    system (cot potential only: V1(q) = -V(pi - q) holds for it)."""
    out = []
    for r in records:
        state, params = Y.opposite_charge(r.state, r.params)
        out.append(R.residual(state.as_array(), params, C.cot_potential(params)))
    return out


def general_gates(records, reports, right_angle, images) -> List[str]:
    bad = []
    if not records:
        bad.append("no record")
    for r in list(records) + list(right_angle):
        if not r.residual < GENERAL_GATE:
            bad.append(f"{r.family.value} residual {r.residual:.3g}")
    for rep in reports:
        if sum(rep.hessian_signature) != 4:
            bad.append(f"Hessian signature {rep.hessian_signature}")
    for res in images:
        if not res < GENERAL_GATE:
            bad.append(f"opposite-charge image residual {res:.3g}")
    return bad


def _general_item(item, index: int, tally: Tally) -> None:
    q, params, V = item
    records = E.solve_general(q, params, V)
    reports = [S.linearize(r, V) for r in records]
    right = E.solve_right_angle(params, V)
    right = right if isinstance(right, list) else []
    images = opposite_charge_residuals(records) if V.analytic else []
    tally.add(records=len(records), right_angle=len(right), checks=len(images),
              hessians=len(reports))
    tally.classes(rep.classification.value for rep in reports)
    tally.max("residual", max(r.residual for r in records + right))
    tally.failures += [Failure(index, r) for r in general_gates(records, reports, right, images)]


def build_general(seed: int, n: int = GENERAL_ITEMS) -> Workload:
    systems = general_systems(n, np.random.default_rng(seed))
    start = perf_counter()
    table = C.table_potential(*table_nodes())
    table_s = perf_counter() - start
    items = [
        (q, p, C.cot_potential(p) if i % 2 == 0 else table) for i, (q, p) in enumerate(systems)
    ]
    flat = [[q, p.mu1, p.mu2, p.e1, p.e2, p.B] for q, p in systems]
    return Workload(items, _general_item, 99.0, _digest(flat), table_s)


BUILDERS = {"orbits": build_orbits, "atlas": build_atlas, "general": build_general}


def build(name: str, seed: int, n: int = None) -> Workload:
    builder = BUILDERS[name]
    return builder(seed) if n is None else builder(seed, n)
