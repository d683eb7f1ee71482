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
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

from . import atlas
from .core import (
    DEFAULT_TOL,
    MagsphereError,
    Potential,
    ReducedState,
    SystemParams,
    Tolerances,
    check_q,
    cot_potential,
    table_potential,
)
from .equilibria import (
    GRID_FAMILIES,
    TYPE1_BAND,
    RightAngleFamily,
    closed_form_grid,
    solve_general,
    solve_right_angle,
)
from .fullspace import full_integrate, lift_state
from .reduced import integrate
from .stability import stability_csv, stability_rows, type1_boundary


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
        if n < 2 or not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigError(f"grid spec {text!r} needs finite ends, hi > lo and n >= 2")
        return GridSpec(lo, hi, n)

    def __str__(self) -> str:
        return f"{self.lo!r}:{self.hi!r}:{self.n}"


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

    def make_potential(self, qs) -> Potential:
        """The potential.  A table defines V on [q_0, q_n] only, so each q in
        `qs`, the values the command evaluates, must lie there."""
        if self.potential == "cot":
            return cot_potential(self.params())
        if self.potential == "custom-table":
            if not self.potential_file:
                raise ConfigError("custom-table potential needs --potential-file")
            try:
                data = np.loadtxt(self.potential_file, delimiter=",")
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read potential table: {exc}") from exc
            if data.ndim != 2 or data.shape[1] != 2:
                raise ConfigError("potential table must have two columns")
            V = table_potential(data[:, 0], data[:, 1])
            lo, hi = V.q_range
            for q in qs:
                if not lo <= q <= hi:
                    raise ConfigError(f"q={q} lies outside the potential table [{lo}, {hi}]")
            return V
        raise ConfigError(f"unknown potential {self.potential!r}")

    def reads(self) -> set:
        """The command's fields in COMMANDS less those that its selector
        values leave unread (UNREAD)."""
        unread = {field for (command, selector, value), fields in UNREAD.items()
                  if command == self.command and getattr(self, selector) == value
                  for field in fields}
        return set(COMMANDS[self.command][1]) - unread

    def to_dict(self) -> dict:
        """The command and the fields it reads, grids as a:b:n strings."""
        keep = {"command", *self.reads()}
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: str(v) if isinstance(v, GridSpec) else v
                for k, v in values.items() if k in keep}

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        d = dict(d)
        for key in ("grid_q", "grid_B"):
            if isinstance(d.get(key), str):
                d[key] = GridSpec.parse(d[key])
        unknown = set(d) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        types = get_type_hints(RunConfig)         # the field types, as the parser reads them
        for key, value in d.items():              # a JSON number such as 2 loads as an int
            if not isinstance(float(value) if type(value) is int else value, types[key]):
                raise ConfigError(f"{key} must be {RunConfig.__annotations__[key]}, not {value!r}")
        return RunConfig(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_simulate(config: RunConfig) -> int:
    if config.q is None:
        raise ConfigError("simulate needs --q for the initial state")
    params = config.params()
    V = config.make_potential([config.q])
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


def _grid_families(config: RunConfig) -> str:
    """The closed_form_grid `families` value of `--family`."""
    families = "both" if config.family == "all" else config.family
    if families not in GRID_FAMILIES:
        raise ConfigError(f"unknown family {config.family!r}")
    return families


def cmd_equilibria(config: RunConfig) -> int:
    params, tol = config.params(), config.tolerances()
    closed_form = params.identical and config.potential == "cot"
    if config.family in ("type1", "type2") and not closed_form:
        raise ConfigError(f"--family {config.family} selects closed-form equilibria, "
                          "which exist for identical particles with V = cot only")
    if config.family == "right-angle":
        result = solve_right_angle(params, config.make_potential([np.pi / 2]), tol)
        if isinstance(result, RightAngleFamily):
            payload = {"family": "RightAngleFamily", "product": result.product}
        else:
            payload = [r.to_dict() for r in result]
        _write(config.out, json.dumps(payload, indent=1))
        return 0
    families = _grid_families(config)
    qs = config.grid_q.axis() if config.grid_q else [config.q]
    if qs[0] is None:
        raise ConfigError("equilibria needs --q or --grid-q")
    Bs = config.grid_B.axis() if config.grid_B else [params.B]
    if closed_form:
        grid = closed_form_grid(qs, Bs, families, tol).cut(tol)
        # the grid lists cells q outer; the output lists them B outer
        records = grid.take(np.argsort(grid.cell % len(Bs), kind="stable")).records()
    else:
        V, records = config.make_potential(qs), []
        for B in Bs:
            p = dataclasses.replace(params, B=float(B))
            for q in qs:
                if not abs(q - np.pi / 2) <= TYPE1_BAND:  # skips pi/2; NaN raises below
                    records += solve_general(float(q), p, V, tol)
    _write(config.out, json.dumps([r.to_dict() for r in records], indent=1))
    return 0


def cmd_stability(config: RunConfig) -> int:
    if not (config.grid_q and config.grid_B):
        raise ConfigError("stability needs --grid-q and --grid-B")
    families, tol = _grid_families(config), config.tolerances()
    grid = closed_form_grid(config.grid_q.axis(), config.grid_B.axis(), families, tol)
    kept = grid.cut(tol)
    dropped = grid.residual.size - kept.residual.size
    sys.stderr.write(f"dropped {dropped} records with residual above {tol.record_residual:g}\n")
    rows = stability_rows(kept, cot_potential(config.params()), tol)
    _write(config.out, stability_csv(rows))
    return 0


def cmd_atlas(config: RunConfig) -> int:
    md = {"diagram": config.diagram, "B": config.B, "potential": "cot"}
    if "B" not in config.reads():
        del md["B"]
    if config.diagram == "bc":
        region = atlas.bc_region()
        traces = [{"B": t["B"], "C_min": t["C_min"], "C_max": t["C_max"]} for t in region.traces]
        payload = {"meeting_point": list(region.meeting_point), "traces": traces}
        _write(config.out, atlas.json_with_metadata(payload, md))
        return 0
    if config.diagram == "zero-casimir":
        rep = atlas.zero_casimir_no_equilibria(config.B)
        _write(config.out, atlas.json_with_metadata(dataclasses.asdict(rep), md))
        return 0
    if config.diagram == "threshold":
        qs = config.grid_q.axis() if config.grid_q else atlas.default_q_axis(200)
        curve = atlas.threshold_curve(qs)
        columns, rows = ("q", "B"), curve.points
        md["min_q"], md["min_B"] = curve.minimum
    elif config.diagram == "type1-stability":
        qs = config.grid_q.axis() if config.grid_q else np.linspace(0.05, np.pi / 2 - 0.01, 200)
        for q in qs:
            check_q(q)
        columns, rows = ("q", "B"), [(q, type1_boundary(q)) for q in qs]
    elif config.diagram == "ec":
        columns, rows = atlas.EC_COLUMNS, atlas.energy_casimir_diagram(config.B).rows()
    elif config.diagram == "appendix-limits":
        columns = ("a", "m2_limit", "m3_limit", "product_limit", "witness_product")
        reports = map(atlas.appendix_limit_study, (0.0, 1.0, 2.0))
        rows = [(r.slope, r.m2_limit, r.m3_limit, r.product_limit, r.witness_product)
                for r in reports]
    else:
        raise ConfigError(f"unknown diagram {config.diagram!r}")
    _write(config.out, atlas.csv_with_metadata(columns, rows, md))
    return 0


def cmd_reconstruct(config: RunConfig) -> int:
    if config.q is None:
        raise ConfigError("reconstruct needs --q for the reduced state")
    params = config.params()
    V = config.make_potential([config.q])
    state = ReducedState(config.m1, config.m2, config.m3, config.q, config.p)
    full = full_integrate(lift_state(state, params), params, V, config.t_end, config.dt)
    _write(config.out, full.to_csv())
    sys.stderr.write(f"max momentum drift {float(full.phi_drift.max()):.3e}\n")
    return 0


# Each subcommand's function and the RunConfig fields it reads, one
# `--field-name` flag each; nothing else decides which command takes which
# flag or --config key.
_SYSTEM = ("mu1", "mu2", "e1", "e2", "B", "potential", "potential_file")
_ORBIT = (*_SYSTEM, "q", "m1", "m2", "m3", "p", "dt", "t_end", "out")
COMMANDS = {
    "simulate": (cmd_simulate, (*_ORBIT, "fullspace")),
    "equilibria": (cmd_equilibria, (*_SYSTEM, "q", "grid_q", "grid_B", "tol", "family", "out")),
    "stability": (cmd_stability, ("grid_q", "grid_B", "tol", "family", "out")),
    "atlas": (cmd_atlas, ("diagram", "B", "grid_q", "out")),
    "reconstruct": (cmd_reconstruct, _ORBIT),
}
# The fields of COMMANDS that (command, selector field, value) leaves unread.
UNREAD = {
    ("equilibria", "family", "right-angle"): ("q", "grid_q", "grid_B"),
    ("atlas", "diagram", "threshold"): ("B",),
    ("atlas", "diagram", "type1-stability"): ("B",),
    ("atlas", "diagram", "ec"): ("grid_q",),
    ("atlas", "diagram", "zero-casimir"): ("grid_q",),
    ("atlas", "diagram", "bc"): ("B", "grid_q"),
    ("atlas", "diagram", "appendix-limits"): ("B", "grid_q"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# the argparse keywords of a flag, by the type of its RunConfig field
_FLAG_KWARGS = {"float": {"type": float}, "str": {},
                "GridSpec": {"type": GridSpec.parse, "metavar": "a:b:n"},
                "bool": {"action": "store_true", "default": None}}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="magsphere", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = {f.name: f.type.removeprefix("Optional[").rstrip("]")
             for f in dataclasses.fields(RunConfig)}
    for name, (_, fields) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for field in fields:
            p.add_argument("--" + field.replace("_", "-"), dest=field, **_FLAG_KWARGS[kinds[field]])
    return parser


def parse_config(argv) -> RunConfig:
    """The --config file's keys, overridden by the flags given.  A key the
    command does not read, such as B under `atlas --diagram bc`, is a
    ConfigError."""
    flags = vars(build_parser().parse_args(argv))
    path, given = flags.pop("config"), {}
    if path:
        try:
            with open(path) as fh:
                given = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError(f"config file {path} holds no JSON object")
    given.update((k, v) for k, v in flags.items() if v is not None)
    config = RunConfig.from_dict(given)
    unread = set(given) - config.reads() - {"command"}
    if unread:
        raise ConfigError(f"{config.command} does not read {sorted(unread)}")
    return config


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return COMMANDS[config.command][0](config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except MagsphereError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
