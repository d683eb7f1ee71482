"""Parameter sweeps and derived curves.

Produces the data behind the bifurcation pictures: the isosceles existence
threshold, stability maps, energy-Casimir branch data with cusp locations,
the admissible (B, C) region for the isosceles family, and the directional
limit study of the side-by-side family at the right angle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    Tolerances,
    check_q,
    cot_potential,
    csv_text,
    identical_params,
)
from .equilibria import (
    EquilibriumRecord,
    closed_form_grid,
    equilibrium_states,
    type1,
    type1_arrays,
    type2,                  # not called here; perfbench checks atlas.type2 after tracing
    type2_arrays,
    type2_threshold,
)
from .reduced import casimir_array, hamiltonian_array, shifted_momentum
from .stability import stability_arrays

B_CRITICAL = (4.0 / 3.0) * 3.0**0.25      # minimum of the existence threshold
Q_CRITICAL = 2.0 * np.pi / 3.0
EC_COLUMNS = ("branch", "q", "C", "H", "tag")


# ---------------------------------------------------------------------------
# plumbing: grids and emission
# ---------------------------------------------------------------------------

def refined_axis(lo: float, hi: float, n: int, foci: Sequence[float] = ()) -> np.ndarray:
    """Axis of n samples on (lo, hi), log-refined toward each focus point."""
    base = np.linspace(lo, hi, n - 8 * len(foci) if foci else n)
    extra = []
    for f in foci:
        for side in (-1.0, 1.0):
            pts = f + side * np.geomspace(1e-4, 5e-2, 4) * (hi - lo)
            extra.append(pts)
    axis = np.concatenate([base] + extra) if extra else base
    axis = axis[(axis > lo) & (axis < hi)]
    return np.unique(np.sort(axis))


def default_q_axis(n: int = 400) -> np.ndarray:
    return refined_axis(0.02, np.pi - 0.02, n, foci=(np.pi / 2,))


def default_B_axis(n: int = 200) -> np.ndarray:
    return np.linspace(0.05, 10.0, n)


@dataclass(frozen=True)
class AtlasGrid:
    """Grid sweep output: per-cell equilibrium entries plus metadata."""

    axes: dict
    cells: list
    metadata: dict


def csv_with_metadata(columns: Sequence[str], rows: Iterable[Sequence], metadata: dict) -> str:
    return csv_text(columns, rows, metadata)


def json_with_metadata(payload, metadata: dict) -> str:
    return json.dumps({"metadata": metadata, "data": payload}, indent=1)


# ---------------------------------------------------------------------------
# threshold curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdCurve:
    points: list                     # (q, B) pairs
    minimum: tuple                   # (q*, B*)


def threshold_curve(q_samples: Iterable[float]) -> ThresholdCurve:
    """Existence threshold of the isosceles family, with its minimum point.
    Raises DomainError if a sample lies outside the guarded q interval."""
    qs = list(q_samples)
    for q in qs:
        check_q(q)
    pts = [(float(q), type2_threshold(q)) for q in qs]
    return ThresholdCurve(points=pts, minimum=(Q_CRITICAL, B_CRITICAL))


def type2_window(B: float) -> tuple[float, float]:
    """The q-interval on which the isosceles family exists at strength B.
    Its ends solve sin^3(q/2) cos(q/2) = B^-2 (type2_threshold(q) = B), by
    Newton in q/2 from the real roots u = sin^2(q/2) of u^3 (1 - u) = B^-4;
    within rounding of B*, where those are a complex pair, at Q_CRITICAL."""
    if B <= B_CRITICAL:
        raise DomainError(f"B={B} at or below the critical strength {B_CRITICAL}")
    b2 = B ** -2.0
    roots = np.roots([1.0, -1.0, 0.0, 0.0, b2 * b2])
    roots = roots[roots.real > 0]
    if np.any(roots.imag != 0):
        return Q_CRITICAL, Q_CRITICAL
    h = np.arcsin(np.sqrt(np.sort(roots.real)))
    for _ in range(3):
        s, c = np.sin(h), np.cos(h)
        h = h - (s * s * s * c - b2) / (s * s * (3 * c * c - s * s))
    return float(2 * h[0]), float(2 * h[1])


# ---------------------------------------------------------------------------
# energy-Casimir diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    tag: str
    q: np.ndarray
    C: np.ndarray
    H: np.ndarray
    cusps: list                      # refined (q, C, H) triples


@dataclass(frozen=True)
class EnergyCasimirDiagram:
    B: float
    branches: List[Branch]

    @property
    def cusps(self) -> list:
        return [c for b in self.branches for c in b.cusps]

    def rows(self) -> list:
        """The rows of `magsphere atlas --diagram ec` (EC_COLUMNS): each
        branch's points, then its cusps tagged `cusp`."""
        rows = []
        for b in self.branches:
            points = zip(b.q.tolist(), b.C.tolist(), b.H.tolist())
            rows += [(b.tag, q, C, H, "") for q, C, H in points]
            rows += [(b.tag, q, C, H, "cusp") for q, C, H in b.cusps]
        return rows


def _quadratic_vertex(x, y) -> float:
    """Sub-grid extremum location from a 3-point quadratic fit."""
    c = np.polyfit(x, y, 2)
    if c[0] == 0:
        return float(x[1])
    return float(-c[1] / (2 * c[0]))


def _find_cusps(q, C, H):
    """Extrema of C along a branch: divided-difference sign changes."""
    dC = np.diff(C)
    cusps = []
    for i in range(len(dC) - 1):
        if dC[i] == 0 or dC[i] * dC[i + 1] > 0:
            continue
        sl = slice(max(i, 0), i + 3)
        qc = _quadratic_vertex(q[sl], C[sl])
        Cc = float(np.interp(qc, q, C))
        Hc = float(np.interp(qc, q, H))
        cusps.append((qc, Cc, Hc))
    return cusps


def energy_casimir_diagram(
    B: float,
    q_samples: Optional[np.ndarray] = None,
) -> EnergyCasimirDiagram:
    """Branches of (C, H) values over the equilibrium families at fixed B.

    Cusps (extrema of C along a branch) mark the saddle-node bifurcations
    of the reduced systems parametrized by the Casimir.
    """
    if B <= 0:
        raise DomainError("B must be positive")
    if q_samples is None:
        q_samples = default_q_axis()
    rows = []                        # (tag, q, m2, m3) per branch
    for tag, lo, hi in (
        ("TypeI_acute", 0.0, np.pi / 2),
        ("TypeI_obtuse", np.pi / 2, np.pi),
    ):
        qs = q_samples[(q_samples > lo + 1e-4) & (q_samples < hi - 1e-4)]
        forms = type1_arrays(qs, B)
        rows.append((tag, qs, forms.m2[0], forms.m3[0]))
    if B > B_CRITICAL:
        q0, q1 = type2_window(B)
        qs = np.linspace(q0 + 1e-9, q1 - 1e-9, max(200, len(q_samples) // 2))
        forms = type2_arrays(qs, B)
        rows += [("TypeII_plus", qs, forms.m2[0], forms.m3[0]),
                 ("TypeII_minus", qs, forms.m2[1], forms.m3[1])]
    params = identical_params(B)
    branches = []
    for tag, qs, m2, m3 in rows:
        x = equilibrium_states(m2, m3, qs)
        C, H = casimir_array(x, params), hamiltonian_array(x, params, cot_potential(params))
        branches.append(Branch(tag, qs, C, H, _find_cusps(qs, C, H)))
    return EnergyCasimirDiagram(B=B, branches=branches)


# ---------------------------------------------------------------------------
# image of the energy-Casimir map; zero Casimir level
# ---------------------------------------------------------------------------

def image_halfplane_witness(C0: float, B: float) -> Callable[[float], float]:
    """H as a function of q on the Casimir level C0 (at m aligned, p = 0).

    Monotone decreasing from +inf to -inf, witnessing that every energy
    value is attained on every level set.
    """
    if C0 < 0:
        raise DomainError("C0 must be nonnegative")

    def H(q: float) -> float:
        return C0 / 2.0 + np.cos(q) / np.sin(q) + B**2 / np.tan(q / 2.0) ** 2

    return H


@dataclass(frozen=True)
class ZeroCasimirReport:
    B: float
    min_value: float
    min_q: float
    has_equilibria: bool


def zero_casimir_no_equilibria(B: float, q_samples: Optional[np.ndarray] = None) -> ZeroCasimirReport:
    """Evaluates the equilibrium obstruction csc q + 2 B^2 cot^2(q/2) on the
    zero Casimir level; a positive minimum proves there are no equilibria."""
    if B == 0:
        raise DomainError("B must be nonzero")
    if q_samples is None:
        q_samples = default_q_axis()
    vals = 1.0 / np.sin(q_samples) + 2 * B**2 / np.tan(q_samples / 2.0) ** 2
    i = int(np.argmin(vals))
    return ZeroCasimirReport(
        B=B, min_value=float(vals[i]), min_q=float(q_samples[i]),
        has_equilibria=bool(vals[i] <= 0),
    )


# ---------------------------------------------------------------------------
# (B, C) admissibility of the isosceles family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BCRegion:
    """Casimir range of the isosceles family per B.

    `meeting_point` is (B*, C*) = ((4/3) 3^(1/4), (25/4) B*^2), where the
    two branches merge at q = 2pi/3 and the region pinches off; C* equals
    100/(3 sqrt(3)).  C is in the `casimir_array` normalisation, |Phi|^2.
    """

    B_values: np.ndarray
    traces: list        # per B: dict with q, C_plus, C_minus, C_min, C_max
    meeting_point: tuple


def _type2_casimir(q, B):
    """C of the isosceles + and - members over broadcast (q, B) arrays."""
    forms = type2_arrays(q, B)
    C = casimir_array(equilibrium_states(forms.m2, forms.m3, q), identical_params(B))
    return C[0], np.where(forms.count == 2, C[1], C[0])    # on the threshold + stands for both


def bc_region(
    B_samples: Optional[np.ndarray] = None,
    n_q: int = 400,
) -> BCRegion:
    """Casimir values attained by the isosceles family, per field strength.

    For each admissible B the two branches trace a closed curve in (q, C);
    its extrema bound the (B, C) region and are the saddle-node locations.
    C is the `casimir_array` value, |Phi|^2.  The region pinches off at the
    meeting point (B*, C*) = ((4/3) 3^(1/4), (25/4) B*^2), where the two
    branches merge at q = 2pi/3.
    """
    if B_samples is None:
        B_samples = np.linspace(B_CRITICAL + 0.01, 10.0, 120)
    Bs = np.array([B for B in B_samples if B > B_CRITICAL], dtype=float)
    windows = [type2_window(B) for B in Bs]
    qs = np.array([np.linspace(q0 + 1e-10, q1 - 1e-10, n_q) for q0, q1 in windows])
    C_plus, C_minus = _type2_casimir(qs.reshape(len(Bs), n_q), Bs[:, None])  # reshape: no B > B*
    traces = []
    for B, q, Cp, Cm in zip(Bs, qs, C_plus, C_minus):
        allC = np.concatenate([Cp, Cm])
        traces.append(
            {"B": float(B), "q": q, "C_plus": Cp, "C_minus": Cm,
             "C_min": float(np.min(allC)), "C_max": float(np.max(allC))}
        )
    # the region pinches off at the critical strength, in one degenerate member
    C_star = float(_type2_casimir(Q_CRITICAL, B_CRITICAL)[0])
    return BCRegion(B_values=np.asarray(B_samples), traces=traces,
                    meeting_point=(B_CRITICAL, C_star))


# ---------------------------------------------------------------------------
# directional limits at the right angle
# ---------------------------------------------------------------------------

def _richardson(values: np.ndarray) -> float:
    """Limit of f(h), f(h/2), f(h/4), ... assuming an error series in h."""
    v = np.array(values, dtype=float)
    for k in range(1, len(v)):
        v = (2.0**k * v[1:] - v[:-1]) / (2.0**k - 1.0)
    return float(v[0])


@dataclass(frozen=True)
class LimitReport:
    slope: float
    m2_limit: float
    m3_limit: float
    product_limit: float
    expected: tuple
    witness_product: float           # fixed-B evaluation near pi/2
    metadata: dict


def appendix_limit_study(
    a: float,
    h0: float = 1e-2,
    depth: int = 8,
    witness_B: float = 0.01,
) -> LimitReport:
    """Directional limit of the side-by-side family along B = a (q - pi/2).

    Approaches from q > pi/2 (where B >= 0 for a >= 0); the other side is
    its image under time reversal.  A fixed-B evaluation at the same q
    witnesses that the limit is not uniform in B.
    """
    if a < 0:
        raise DomainError("slope must be nonnegative; use time reversal for a < 0")
    hs = h0 / 2.0 ** np.arange(depth)
    m2s, m3s = [], []
    for h in hs:
        q = np.pi / 2 + h
        rec = type1(q, a * h)[0]
        m2s.append(rec.state.m2)
        m3s.append(rec.state.m3)
    m2_lim = _richardson(np.array(m2s))
    m3_lim = _richardson(np.array(m3s))
    prod_lim = _richardson(np.array(m2s) * np.array(m3s))
    root = np.sqrt(a * a + 4.0)
    expected = ((a - root) / 2.0, (-root - a) / 2.0, 1.0)
    wrec = type1(np.pi / 2 + hs[-1], witness_B)[0]
    return LimitReport(
        slope=a,
        m2_limit=m2_lim,
        m3_limit=m3_lim,
        product_limit=prod_lim,
        expected=expected,
        witness_product=float(wrec.state.m2 * wrec.state.m3),
        metadata={
            "path": "B = a*(q - pi/2), approach from q > pi/2",
            "negative_side": "time-reversal image (B >= 0 convention)",
            "h0": h0, "depth": depth, "witness_B": witness_B,
        },
    )


# ---------------------------------------------------------------------------
# axis-angle geometry of the rotating configurations
# ---------------------------------------------------------------------------

def axis_angles(record: EquilibriumRecord) -> tuple[float, float]:
    """Cosines of the angles between each particle axis and the rotation axis.

    The rotation axis of a relative equilibrium is the momentum vector; in
    the body frame the particles sit at (0,0,-1) and (0, sin q, -cos q).
    """
    s = record.state
    phi = np.array(shifted_momentum((s.m1, s.m2, s.m3, s.q, s.p), record.params))
    # orient the axis so the isosceles family has both cosines = cos(q/2)
    n = -phi / np.linalg.norm(phi)
    x1 = np.array([0.0, 0.0, -1.0])
    x2 = np.array([0.0, np.sin(s.q), -np.cos(s.q)])
    return float(x1 @ n), float(x2 @ n)


# ---------------------------------------------------------------------------
# grid sweeps with stability classes
# ---------------------------------------------------------------------------

def stability_grid(
    q_axis: Optional[np.ndarray] = None,
    B_axis: Optional[np.ndarray] = None,
    families: str = "both",
    tol: Tolerances = DEFAULT_TOL,
) -> AtlasGrid:
    """Classified closed-form equilibria over a (q, B) grid (identical
    particles).  Cell entries are (family, H, C, class) tuples; records
    that fail the residual cut are left out."""
    if q_axis is None:
        q_axis = default_q_axis(120)
    if B_axis is None:
        B_axis = default_B_axis(60)
    grid = closed_form_grid(q_axis, B_axis, families, tol).cut(tol)
    params = identical_params(grid.B)
    _, _, classes = stability_arrays(grid.states(), params, cot_potential(params), tol)
    cells = [{"q": float(q), "B": float(B), "entries": []} for q in q_axis for B in B_axis]
    kept = zip(grid.cell.tolist(), grid.family, grid.H.tolist(), grid.C.tolist(), classes)
    for i, family, H, C, cls in kept:
        cells[i]["entries"].append((family.value, H, C, cls.value))
    metadata = {"potential": "cot", "tol_residual": tol.record_residual,
                "tol_classify": tol.classify}
    return AtlasGrid(axes={"q": q_axis, "B": B_axis}, cells=cells, metadata=metadata)
