"""Relative equilibria of the reduced system.

All relative equilibria have m1 = p = 0.  For identical particles with the
cotangent potential the two families are available in closed form (the
side-by-side family for every q != pi/2, and the isosceles family above a
threshold field strength).  For general masses and charges the solver goes
through a quartic in m3 followed by admissibility filtering and a Newton
polish, and the right-angle configuration q = pi/2 is handled by its own
2x2 system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import List, NamedTuple, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    NearRightAngle,
    NoAdmissibleRoot,
    Potential,
    ReducedState,
    SystemParams,
    Tolerances,
    check_q,
    cot_potential,
    identical_params,
)
from .reduced import casimir_array, hamiltonian_array, rhs

RIGHT_ANGLE_BAND = 1e-6
TYPE1_BAND = 1e-4        # grid sweeps skip the side-by-side family this close to pi/2


class Family(Enum):
    TypeI_plus = "TypeI+"
    TypeI_minus = "TypeI-"
    TypeII_plus = "TypeII+"
    TypeII_minus = "TypeII-"
    General = "General"
    RightAngle = "RightAngle"


# Closed-form families in the row order of their kernels.
TYPE1_FAMILIES = (Family.TypeI_plus, Family.TypeI_minus)
TYPE2_FAMILIES = (Family.TypeII_plus, Family.TypeII_minus)


@dataclass(frozen=True)
class EquilibriumRecord:
    family: Family
    state: ReducedState
    params: SystemParams
    H: float
    C: float
    residual: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "q": self.state.q,
            "B": self.params.B,
            "m2": self.state.m2,
            "m3": self.state.m3,
            "H": self.H,
            "C": self.C,
            "residual": self.residual,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class RightAngleFamily:
    """One-parameter family of right-angle equilibria (B = 0, equal masses):
    the hyperbola m2 * m3 = product, with m1 = p = 0 and q = pi/2."""

    product: float
    params: SystemParams

    def member(self, m2: float) -> ReducedState:
        if m2 == 0:
            raise DomainError("m2 = 0 is not on the hyperbola")
        return ReducedState(0.0, m2, self.product / m2, np.pi / 2, 0.0)


def equilibrium_values(x, params: SystemParams, V: Potential):
    """H, C and the residual max|rhs| of a state x of shape (5,) or (5, ...)."""
    residual = np.max(np.abs(rhs(x, params, V)), axis=0)
    return hamiltonian_array(x, params, V), casimir_array(x, params), residual


def passes_residual_cut(residual, tol: Tolerances = DEFAULT_TOL):
    """The record residual cut on one residual or an array: kept iff below
    tol.record_residual, so a residual at the cut or NaN is dropped."""
    return np.asarray(residual) < tol.record_residual


def make_record(
    family: Family,
    m2: float,
    m3: float,
    q: float,
    params: SystemParams,
    V: Potential,
    degenerate: bool = False,
) -> EquilibriumRecord:
    check_q(q)                  # a DomainError, before V and rhs see q
    x = (0.0, float(m2), float(m3), float(q), 0.0)
    return _record(family, m2, m3, q, params, *equilibrium_values(x, params, V), degenerate)


def _record(family, m2, m3, q, params, H, C, residual, degenerate) -> EquilibriumRecord:
    """A record of the state (0, m2, m3, q, 0) with its H, C and residual."""
    return EquilibriumRecord(
        family=family,
        state=ReducedState(0.0, float(m2), float(m3), float(q), 0.0),
        params=params,
        H=float(H),
        C=float(C),
        residual=float(residual),
        degenerate=bool(degenerate),
    )


# ---------------------------------------------------------------------------
# closed forms for identical particles, V = cot
# ---------------------------------------------------------------------------

class ClosedForms(NamedTuple):
    """One closed-form family over broadcast (q, B) arrays of shape S.

    m2 and m3 have shape (2,) + S: row 0 is the + member, row 1 the -
    member.  `count` (shape S) is how many members exist: 2, or 1 on the
    isosceles threshold (row 0 only, a double root), or 0 below it.  Rows of
    members that do not exist hold NaN.
    """

    m2: np.ndarray
    m3: np.ndarray
    count: np.ndarray


def equilibrium_states(m2, m3, q) -> np.ndarray:
    """The states (0, m2, m3, q, 0) of arrays m2 and m3 with q broadcast to
    their shape S: shape (5,) + S."""
    zero = np.zeros_like(m2)
    return np.stack([zero, m2, m3, np.broadcast_to(q, np.shape(m2)), zero])


def type2_threshold(q: float) -> float:
    """Field strength above which the isosceles family exists at distance q."""
    return 2.0 * np.sqrt(1.0 / (np.sin(q) * (1.0 - np.cos(q))))


def type1_arrays(q, B) -> ClosedForms:
    """The side-by-side pair over broadcast (q, B) arrays.  The family does
    not exist at q = pi/2; callers exclude a band around it."""
    q, B = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(B, dtype=float))
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * q.ndim)
    h = q / 2
    s, c = np.sin(q), np.cos(q)
    tan = s / c
    rad = 4.0 / np.sin(h) + B**2 * (s * tan) ** 2 / np.cos(h)
    root = np.sqrt(rad)
    denom = np.sin(h) - np.sin(3 * h)
    m2 = (2 * B * np.sin(h) ** 3 * s + sign * np.cos(h) ** 1.5 * c * root) / denom
    m3 = 0.5 * (B * s * tan - sign * np.sqrt(np.cos(h)) * root)
    return ClosedForms(m2, m3, np.full(q.shape, 2))


def type2_arrays(q, B, tol: Tolerances = DEFAULT_TOL) -> ClosedForms:
    """The isosceles pair over broadcast (q, B) arrays.  A discriminant
    within tol.degenerate of zero is a double root (count 1); below that
    band the family does not exist (count 0)."""
    q, B = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(B, dtype=float))
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * q.ndim)
    h = q / 2
    disc = B**2 - 2.0 / (np.sin(h) ** 2 * np.sin(q))
    count = np.where(disc < -tol.degenerate, 0, np.where(np.abs(disc) <= tol.degenerate, 1, 2))
    root = np.sqrt(np.where(count == 2, disc, 0.0))
    exists = np.arange(2).reshape(sign.shape) < count
    m2 = np.where(exists, -2 * np.sin(h) ** 4 / np.sin(q) * (B + sign * root), np.nan)
    m3 = np.where(exists, np.sin(h) ** 2 * (B + sign * root), np.nan)
    return ClosedForms(m2, m3, count)


@dataclass(frozen=True)
class GridEquilibria:
    """Closed-form equilibria over a (q, B) grid: one entry per record that
    exists, in cell order (q outer, B inner) and family order within a cell
    (TypeI+, TypeI-, TypeII+, TypeII-).  All fields have one value per entry."""

    cell: np.ndarray
    family: np.ndarray        # Family objects
    q: np.ndarray
    B: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    H: np.ndarray
    C: np.ndarray
    residual: np.ndarray
    degenerate: np.ndarray

    def states(self) -> np.ndarray:
        """The entries' reduced states, shape (5, entries)."""
        return equilibrium_states(self.m2, self.m3, self.q)

    def take(self, keep) -> "GridEquilibria":
        """The entries picked by an index array or boolean mask."""
        return GridEquilibria(*(getattr(self, f.name)[keep] for f in fields(self)))

    def cut(self, tol: Tolerances = DEFAULT_TOL) -> "GridEquilibria":
        """The entries that pass the record residual cut."""
        return self.take(passes_residual_cut(self.residual, tol))

    def records(self) -> List[EquilibriumRecord]:
        """The entries as records, in entry order."""
        cols = (self.m2, self.m3, self.q, self.B, self.H, self.C, self.residual, self.degenerate)
        return [
            _record(fam, m2, m3, q, identical_params(B), *vals)
            for fam, m2, m3, q, B, *vals in zip(self.family, *(c.tolist() for c in cols))
        ]


def _entries(q, B, parts, families) -> GridEquilibria:
    """The grid entries of closed-form kernel results `parts` over the cells
    (q, B), 1-d arrays; `families` names the two rows of each part in turn.
    H, C and the residual are taken once, on the entries that exist."""

    def by_cell(rows):
        """The parts' (2, cells) arrays stacked part after part, cells first."""
        return np.concatenate(rows).T

    cell, row = np.nonzero(by_cell([np.arange(2)[:, None] < f.count for f in parts]))
    m2, m3 = (by_cell([getattr(f, name) for f in parts])[cell, row] for name in ("m2", "m3"))
    degenerate = by_cell([np.broadcast_to(f.count == 1, f.m2.shape) for f in parts])
    q, B = q[cell], B[cell]
    params = identical_params(B)
    values = equilibrium_values(equilibrium_states(m2, m3, q), params, cot_potential(params))
    return GridEquilibria(cell, np.array(families, dtype=object)[row], q, B, m2, m3, *values,
                          degenerate[cell, row])


def _one_cell(kernel, families, q: float, B: float, *args) -> List[EquilibriumRecord]:
    """The records of a closed-form kernel on the one cell (q, B), in row order."""
    check_q(q)                  # a DomainError (NaN too) before any kernel runs
    q, B = np.array([q], dtype=float), np.array([B], dtype=float)
    return _entries(q, B, [kernel(q, B, *args)], families).records()


def type1(q: float, B: float) -> tuple[EquilibriumRecord, EquilibriumRecord]:
    """The two closed-form side-by-side equilibria (exchange-related pair)."""
    if abs(q - np.pi / 2) < RIGHT_ANGLE_BAND:
        raise NearRightAngle("the side-by-side family does not exist at q = pi/2")
    return tuple(_one_cell(type1_arrays, TYPE1_FAMILIES, q, B))


def type2(q: float, B: float, tol: Tolerances = DEFAULT_TOL) -> List[EquilibriumRecord]:
    """Closed-form isosceles equilibria: 2 above the threshold, 1 on it, 0 below."""
    return _one_cell(type2_arrays, TYPE2_FAMILIES, q, B, tol)


GRID_FAMILIES = ("both", "type1", "type2")


def closed_form_grid(
    q_axis,
    B_axis,
    families: str = "both",
    tol: Tolerances = DEFAULT_TOL,
) -> GridEquilibria:
    """The closed-form records of every cell of q_axis x B_axis, from one
    kernel call per family.  `families` is one of GRID_FAMILIES: "both",
    "type1" or "type2"; any other value raises ValueError.  Type I is left
    out within TYPE1_BAND of q = pi/2.  A q_axis that leaves the guarded
    interval (or holds NaN) raises DomainError before anything is computed."""
    if families not in GRID_FAMILIES:
        raise ValueError(f"families must be one of {GRID_FAMILIES}, got {families!r}")
    check_q(np.min(q_axis))
    check_q(np.max(q_axis))
    q, B = (a.ravel() for a in np.meshgrid(q_axis, B_axis, indexing="ij"))
    fams, parts = (), []
    if families != "type2":
        away = np.abs(q - np.pi / 2) > TYPE1_BAND
        fams += TYPE1_FAMILIES
        parts.append(type1_arrays(q, B)._replace(count=np.where(away, 2, 0)))
    if families != "type1":
        fams += TYPE2_FAMILIES
        parts.append(type2_arrays(q, B, tol))
    return _entries(q, B, parts, fams)


def casimir_on_type1(q: float, B: float) -> float:
    """Closed-form Casimir value along the side-by-side family."""
    if abs(q - np.pi / 2) < RIGHT_ANGLE_BAND:
        raise NearRightAngle("q = pi/2 is outside the family")
    h = q / 2
    tan = np.tan(q)
    return np.cos(h) / np.sin(h) ** 3 * (1.0 + 0.5 * B**2 * np.sin(q) * tan**2)


# ---------------------------------------------------------------------------
# general masses and charges: quartic route
# ---------------------------------------------------------------------------

def quartic_coefficients(q: float, params: SystemParams, V: Potential) -> np.ndarray:
    """Descending coefficients of the squared equilibrium condition in m3."""
    mu1, mu2, e1, e2, B = params.mu1, params.mu2, params.e1, params.e2, params.B
    s, c = np.sin(q), np.cos(q)
    csc = 1.0 / s
    sec = 1.0 / c
    dV = V.derivative(q)
    c4 = -4 * mu1 * csc**4
    c3 = 4 * B * csc**4 * (e1 * mu2 - e2 * mu1 * np.cos(2 * q) * sec)
    c2 = 2 * csc**3 * sec * (
        2 * B**2 * e2 * s * (e2 * mu1 * c - e1 * mu2)
        - 2 * mu2 * dV * (mu2 + mu1 * np.cos(2 * q))
    )
    c1 = 4 * B * mu2 * csc * dV * (2 * e2 * mu1 - e1 * mu2 * sec)
    c0 = 4 * mu1 * mu2**2 * dV**2
    return np.array([c4, c3, c2, c1, c0])


def admissibility(m3: float, q: float, params: SystemParams) -> float:
    """Radicand A of the branch square root; candidates need A >= 0."""
    mu1, mu2, e1, e2, B = params.mu1, params.mu2, params.e1, params.e2, params.B
    s, c = np.sin(q), np.cos(q)
    cot, csc = c / s, 1.0 / s
    return (
        4 * mu2 * m3 * cot * csc * (mu2 * c * (B * e1 + m3) - B * e2 * mu1)
        + (-mu2 * (B * e1 + m3) + mu1 * m3 * csc**2 + mu2 * m3 * cot**2) ** 2
    )


def m2_from_m3(m3: float, sign, q: float, params: SystemParams):
    """m2 on the branch `sign` (+1 or -1, or an array of them) of m1' = 0."""
    mu1, mu2, e1, B = params.mu1, params.mu2, params.e1, params.B
    s, c = np.sin(q), np.cos(q)
    cot2 = (c / s) ** 2
    csc2 = 1.0 / s**2
    A = max(admissibility(m3, q, params), 0.0)
    return (
        np.tan(q)
        * (m3 * (mu1 * csc2 + mu2 * cot2 - mu2) - B * e1 * mu2 + sign * np.sqrt(A))
        / (2 * mu2)
    )


def _branch(m3: float, q: float, params: SystemParams, V: Potential) -> float:
    """The m2 of the m2_from_m3 sign branch that the quartic root m3
    satisfies: the one with the smaller (m1', p') residual, + on a tie."""
    plus, minus = m2_from_m3(m3, np.array([1.0, -1.0]), q, params).tolist()

    def miss(m2):
        f = rhs((0.0, m2, m3, q, 0.0), params, V)
        return max(abs(f[0]), abs(f[4]))

    return minus if miss(minus) < miss(plus) else plus


def _block(m2, m3, q, params):
    """The (m1', p') x (m2, m3) block (a, b, c, d) = (dm1'/dm2, dm1'/dm3,
    dp'/dm2, dp'/dm3) of the Jacobian of rhs at the state (0, m2, m3, q, 0)
    of floats, in closed form: neither row depends on m1 or p."""
    mu1, mu2, B, e1, e2 = params.mu1, params.mu2, params.B, params.e1, params.e2
    s = math.sin(q)
    cot, csc2 = math.cos(q) / s, 1.0 / (s * s)
    inv = 1.0 / (mu1 * mu2)
    u, w = m2 - m3 * cot, B * e1 + m2 * cot + m3
    return (-inv * (mu2 * (w + u * cot) - mu1 * m3 * csc2),
            -inv * (mu2 * (u - w * cot) + B * e2 * mu1 / s - mu1 * m2 * csc2),
            -inv * mu2 * m3 * csc2,
            -inv * (B * e2 * mu1 / s + csc2 * (mu2 * m2 - 2 * (mu1 + mu2) * m3 * cot)))


def _polish(m2, m3, q, params, V, iters=30, tol=1e-13):
    """Newton in (m2, m3), carried as floats, on the two nontrivial
    equilibrium conditions (m1', p') = 0, with `_block` as its derivative
    and the 2x2 step in closed form.  None if that block is singular or not
    finite, or unless it ends within 1e-10 of zero."""
    m2, m3, q = float(m2), float(m3), float(q)
    for i in range(iters + 1):
        f = rhs((0.0, m2, m3, q, 0.0), params, V)
        F1, F2 = f[0], f[4]
        if (abs(F1) < tol and abs(F2) < tol) or i == iters:
            break
        a, b, c, d = _block(m2, m3, q, params)
        det = a * d - b * c
        if det == 0 or not math.isfinite(det):
            return None
        m2, m3 = m2 - (d * F1 - b * F2) / det, m3 - (a * F2 - c * F1) / det
        if not (math.isfinite(m2) and math.isfinite(m3)):
            return None
    return (m2, m3) if abs(F1) <= 1e-10 and abs(F2) <= 1e-10 else None


def solve_general(
    q: float,
    params: SystemParams,
    V: Potential,
    tol: Tolerances = DEFAULT_TOL,
) -> List[EquilibriumRecord]:
    """All relative equilibria at distance q for arbitrary masses and
    charges, in the order of the quartic's roots from np.roots.

    Each admissible real root seeds a Newton polish of the un-squared system
    on the sign branch it satisfies.  At least one record is always returned
    for V'(q) != 0 (an existence theorem backs this; violation raises
    NoAdmissibleRoot).
    """
    check_q(q)                  # a DomainError (NaN too) before anything is computed
    if abs(q - np.pi / 2) < RIGHT_ANGLE_BAND:
        raise NearRightAngle("m2 is indeterminate at q = pi/2; use solve_right_angle")
    if V.derivative(q) == 0:
        raise DomainError("equilibrium theory requires V'(q) != 0")

    roots = np.roots(quartic_coefficients(q, params, V))
    scale = max(1.0, np.max(np.abs(roots)))
    found: list[tuple[float, float]] = []
    for r in roots:
        m3 = float(r.real)
        if abs(r.imag) > 1e-8 * scale or admissibility(m3, q, params) < -1e-12:
            continue
        z = _polish(_branch(m3, q, params, V), m3, q, params, V)
        if z is None or admissibility(z[1], q, params) < -1e-12:
            continue
        dup = any(
            abs(z[0] - u) < 1e-7 * max(1, abs(u)) and abs(z[1] - v) < 1e-7 * max(1, abs(v))
            for u, v in found
        )
        if not dup:
            found.append((float(z[0]), float(z[1])))
    records = [make_record(Family.General, m2, m3, q, params, V) for m2, m3 in found]
    records = [r for r in records if passes_residual_cut(r.residual, tol)]
    if not records:
        raise NoAdmissibleRoot(
            f"no admissible equilibrium found at q={q}; this contradicts the existence theorem"
        )
    return records


# ---------------------------------------------------------------------------
# the right-angle configuration q = pi/2
# ---------------------------------------------------------------------------

def right_angle_discriminant(params: SystemParams, V: Potential) -> float:
    dV = V.derivative(np.pi / 2)
    e1, e2, mu1, mu2, B = params.e1, params.e2, params.mu1, params.mu2, params.B
    return (
        B**4 * e1**2 * e2**2
        + 2 * B**2 * e1 * e2 * (mu1 + mu2) * dV
        + (mu1 - mu2) ** 2 * dV**2
    )


def solve_right_angle(
    params: SystemParams,
    V: Potential,
    tol: Tolerances = DEFAULT_TOL,
) -> Union[List[EquilibriumRecord], RightAngleFamily]:
    """Equilibria at q = pi/2: 0, 1 or 2 records by discriminant sign, each
    kept only if it passes the residual cut of `tol`.

    The special case B = 0 with equal masses degenerates into a hyperbola of
    solutions and is reported as a RightAngleFamily instead of records.
    """
    dV = V.derivative(np.pi / 2)
    e1, e2, mu1, mu2, B = params.e1, params.e2, params.mu1, params.mu2, params.B
    if B == 0:
        if mu1 == mu2:
            # the 2x2 system collapses to m2 * m3 = -mu * V'(pi/2)
            return RightAngleFamily(product=-mu1 * dV, params=params)
        return []

    # quadratic in m3 obtained by eliminating m2 from the 2x2 system
    a = B * e2 * mu1
    b = -(B**2 * e1 * e2 * mu2 + (mu2 - mu1) * mu2 * dV)
    c = -(mu2**2) * B * e1 * dV
    disc = right_angle_discriminant(params, V)
    if disc < -tol.degenerate:
        return []
    degenerate = abs(disc) <= tol.degenerate
    if degenerate:
        m3_roots = [-b / (2 * a)]
    else:
        sq = mu2 * np.sqrt(disc)  # b^2 - 4ac = mu2^2 * disc
        m3_roots = [(-b + sq) / (2 * a), (-b - sq) / (2 * a)]
    out = []
    for m3 in m3_roots:
        if m3 == 0:
            continue
        m2 = -mu1 * (B * e2 * m3 + mu2 * dV) / (mu2 * m3)
        z = _polish(m2, m3, np.pi / 2, params, V)
        if z is not None:
            m2, m3 = z
        out.append(
            make_record(Family.RightAngle, m2, m3, np.pi / 2, params, V, degenerate=degenerate)
        )
    return [r for r in out if passes_residual_cut(r.residual, tol)]
