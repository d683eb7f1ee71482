"""Command-line interface.

Single binary with subcommands wiring the library modules to files:

    magsphere simulate    integrate the reduced (and optionally full) system
    magsphere equilibria  locate relative equilibria on a point or grid
    magsphere stability   classify equilibria over a (q, B) grid
    magsphere atlas       emit diagram data (threshold, stability maps, ...)
    magsphere reconstruct lift a reduced state and integrate the full system

Exit codes: 0 success, 1 configuration error, 2 runtime domain violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import atlas
from .core import (
    DEFAULT_TOL,
    DomainError,
    MagsphereError,
    Potential,
    ReducedState,
    SystemParams,
    Tolerances,
    cot_potential,
    table_potential,
)
from .equilibria import (
    RightAngleFamily,
    closed_form_grid,
    solve_general,
    solve_right_angle,
    type1,
    type2,
)
from .fullspace import full_integrate, lift_state
from .reduced import integrate
from .stability import stability_csv, stability_rows


class ConfigError(MagsphereError):
    """Bad flags, bad files, bad grid specs."""


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    n: int

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @staticmethod
    def parse(text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid spec must be a:b:n, got {text!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {text!r}: {exc}") from exc
        if n < 2 or hi <= lo:
            raise ConfigError(f"grid spec {text!r} needs hi > lo and n >= 2")
        return GridSpec(lo, hi, n)

    def __str__(self) -> str:
        return f"{self.lo:g}:{self.hi:g}:{self.n}"


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; round-trips losslessly through JSON."""

    command: str
    mu1: float = 1.0
    mu2: float = 1.0
    e1: float = 1.0
    e2: float = 1.0
    B: float = 1.0
    q: Optional[float] = None
    potential: str = "cot"
    potential_file: Optional[str] = None
    grid_q: Optional[GridSpec] = None
    grid_B: Optional[GridSpec] = None
    dt: float = 1e-3
    t_end: float = 10.0
    tol: float = DEFAULT_TOL.record_residual
    out: Optional[str] = None
    format: str = "csv"
    diagram: str = "threshold"
    family: str = "all"
    m1: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    p: float = 0.0
    fullspace: bool = False

    def params(self) -> SystemParams:
        return SystemParams(self.mu1, self.mu2, self.e1, self.e2, self.B)

    def tolerances(self) -> Tolerances:
        """The default tolerances with `tol` as the record residual cut."""
        return dataclasses.replace(DEFAULT_TOL, record_residual=self.tol)

    def make_potential(self) -> Potential:
        if self.potential == "cot":
            return cot_potential(self.params())
        if self.potential == "custom-table":
            if not self.potential_file:
                raise ConfigError("custom-table potential needs --potential-file")
            try:
                data = np.loadtxt(self.potential_file, delimiter=",")
            except OSError as exc:
                raise ConfigError(f"cannot read potential table: {exc}") from exc
            if data.ndim != 2 or data.shape[1] != 2:
                raise ConfigError("potential table must have two columns")
            return table_potential(data[:, 0], data[:, 1])
        raise ConfigError(f"unknown potential {self.potential!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key in ("grid_q", "grid_B"):
            if d[key] is not None:
                d[key] = str(getattr(self, key))
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        d = dict(d)
        for key in ("grid_q", "grid_B"):
            if d.get(key) is not None and not isinstance(d[key], GridSpec):
                d[key] = GridSpec.parse(d[key])
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(config: RunConfig) -> int:
    if config.q is None:
        raise ConfigError("simulate needs --q for the initial state")
    params = config.params()
    V = config.make_potential()
    state = ReducedState(config.m1, config.m2, config.m3, config.q, config.p)
    traj = integrate(state, params, V, config.t_end, config.dt)
    _write(config.out, traj.to_csv())
    if config.fullspace:
        full = full_integrate(lift_state(state, params), params, V, config.t_end, config.dt)
        base = config.out or "trajectory.csv"
        _write(base + ".full", full.to_csv())
    drift = max(float(traj.energy_drift.max()), float(traj.casimir_drift.max()))
    sys.stderr.write(f"max invariant drift {drift:.3e}\n")
    return 0


def _records_at(q: float, config: RunConfig, params: SystemParams, V: Potential):
    recs = []
    if params.identical and config.potential == "cot":
        if config.family in ("all", "type1") and abs(q - np.pi / 2) > 1e-4:
            recs += list(type1(q, params.B))
        if config.family in ("all", "type2"):
            recs += type2(q, params.B)
    elif abs(q - np.pi / 2) > 1e-4:
        recs += solve_general(q, params, V, config.tolerances())
    return recs


def cmd_equilibria(config: RunConfig) -> int:
    params = config.params()
    V = config.make_potential()
    out: list = []
    if config.family == "right-angle":
        result = solve_right_angle(params, V)
        if isinstance(result, RightAngleFamily):
            payload = {"family": "RightAngleFamily", "product": result.product}
        else:
            payload = [r.to_dict() for r in result]
        _write(config.out, json.dumps(payload, indent=1))
        return 0
    qs = config.grid_q.axis() if config.grid_q else [config.q]
    if qs[0] is None:
        raise ConfigError("equilibria needs --q or --grid-q")
    Bs = config.grid_B.axis() if config.grid_B else [params.B]
    for B in Bs:
        p = dataclasses.replace(params, B=float(B))
        Vb = cot_potential(p) if config.potential == "cot" else V
        for q in qs:
            out += [r.to_dict() for r in _records_at(float(q), config, p, Vb)]
    _write(config.out, json.dumps(out, indent=1))
    return 0


def cmd_stability(config: RunConfig) -> int:
    if not (config.grid_q and config.grid_B):
        raise ConfigError("stability needs --grid-q and --grid-B")
    if not config.params().identical:
        raise ConfigError("grid classification supports identical particles only")
    families = "both" if config.family == "all" else config.family
    tol = config.tolerances()
    grid = closed_form_grid(config.grid_q.axis(), config.grid_B.axis(), families, tol)
    # the residual cut of atlas.stability_grid: such records are dropped, not fatal
    records = [r for r in grid.records() if not r.residual > tol.record_residual]
    sys.stderr.write(
        f"dropped {grid.residual.size - len(records)} records with residual above "
        f"{tol.record_residual:g}\n"
    )
    rows = stability_rows(records, cot_potential(config.params()), tol)
    _write(config.out, stability_csv(rows))
    return 0


def cmd_atlas(config: RunConfig) -> int:
    md = {"diagram": config.diagram, "B": config.B, "potential": config.potential}
    if config.diagram == "threshold":
        qs = config.grid_q.axis() if config.grid_q else atlas.default_q_axis(200)
        curve = atlas.threshold_curve(qs)
        rows = [(q, B) for q, B in curve.points]
        md["min_q"], md["min_B"] = curve.minimum
        _write(config.out, atlas.csv_with_metadata(("q", "B"), rows, md))
    elif config.diagram == "type1-stability":
        from .stability import type1_boundary

        qs = config.grid_q.axis() if config.grid_q else np.linspace(0.05, np.pi / 2 - 0.01, 200)
        rows = [(q, type1_boundary(q)) for q in qs]
        _write(config.out, atlas.csv_with_metadata(("q", "B"), rows, md))
    elif config.diagram == "ec":
        d = atlas.energy_casimir_diagram(config.B)
        rows = []
        for b in d.branches:
            for q, C, H in zip(b.q, b.C, b.H):
                rows.append((b.tag, q, C, H, ""))
            for qc, Cc, Hc in b.cusps:
                rows.append((b.tag, qc, Cc, Hc, "cusp"))
        _write(config.out, atlas.csv_with_metadata(("branch", "q", "C", "H", "tag"), rows, md))
    elif config.diagram == "bc":
        region = atlas.bc_region()
        payload = {
            "meeting_point": list(region.meeting_point),
            "traces": [
                {"B": t["B"], "C_min": t["C_min"], "C_max": t["C_max"]}
                for t in region.traces
            ],
        }
        _write(config.out, atlas.json_with_metadata(payload, md))
    elif config.diagram == "zero-casimir":
        rep = atlas.zero_casimir_no_equilibria(config.B)
        _write(config.out, atlas.json_with_metadata(dataclasses.asdict(rep), md))
    elif config.diagram == "appendix-limits":
        reports = [atlas.appendix_limit_study(a) for a in (0.0, 1.0, 2.0)]
        rows = [
            (r.slope, r.m2_limit, r.m3_limit, r.product_limit, r.witness_product)
            for r in reports
        ]
        _write(
            config.out,
            atlas.csv_with_metadata(
                ("a", "m2_limit", "m3_limit", "product_limit", "witness_product"), rows, md
            ),
        )
    else:
        raise ConfigError(f"unknown diagram {config.diagram!r}")
    return 0


def cmd_reconstruct(config: RunConfig) -> int:
    if config.q is None:
        raise ConfigError("reconstruct needs --q for the reduced state")
    params = config.params()
    V = config.make_potential()
    state = ReducedState(config.m1, config.m2, config.m3, config.q, config.p)
    full = full_integrate(lift_state(state, params), params, V, config.t_end, config.dt)
    _write(config.out, full.to_csv())
    sys.stderr.write(f"max momentum drift {float(full.phi_drift.max()):.3e}\n")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "equilibria": cmd_equilibria,
    "stability": cmd_stability,
    "atlas": cmd_atlas,
    "reconstruct": cmd_reconstruct,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="magsphere", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--mu1", type=float)
        p.add_argument("--mu2", type=float)
        p.add_argument("--e1", type=float)
        p.add_argument("--e2", type=float)
        p.add_argument("--B", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--potential", choices=("cot", "custom-table"))
        p.add_argument("--potential-file", dest="potential_file")
        p.add_argument("--grid-q", dest="grid_q", type=GridSpec.parse, metavar="a:b:n")
        p.add_argument("--grid-B", dest="grid_B", type=GridSpec.parse, metavar="a:b:n")
        p.add_argument("--dt", type=float)
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--diagram")
        p.add_argument("--family")
        p.add_argument("--m1", type=float)
        p.add_argument("--m2", type=float)
        p.add_argument("--m3", type=float)
        p.add_argument("--p", type=float)
        p.add_argument("--fullspace", action="store_true", default=None)
    return parser


def parse_config(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    base: dict = {"command": ns.command}
    if ns.config:
        try:
            with open(ns.config) as fh:
                base.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
    for key, value in vars(ns).items():
        if key in ("config",) or value is None:
            continue
        base[key] = value
    return RunConfig.from_dict(base)


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    try:
        return COMMANDS[config.command](config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except MagsphereError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
