"""Linear stability of relative equilibria, from two blocks of one Hessian.

At an equilibrium grad H = lam grad C, and M = D2H - lam D2C gives both
answers: J = sigma M is the Jacobian of rhs = sigma grad H, since sigma
grad C = 0, and M on the Casimir level set gives the energy-Casimir
signature.  M is A (+) K, with A on (m1, p) and K on (m2, m3, q), and at
m1 = p = 0, as at every relative equilibrium, sigma is [[0, X], [-X^T, 0]]
and grad C lies in K's coordinates (`reduced`).  So the characteristic
polynomial x(-x^4 + a x^2 + b) has a = -tr N and b = -det N, N = X K X^T A,
and the restricted Hessian has the eigenvalues of A and of K compressed
onto the plane normal to grad C.  One source serves one record as floats
(`linearize`) and a batch as arrays (`core.mathlib`).  J = sigma M holds
only at equilibria of the potential passed in, so `linearize` and
`stability_rows` take the residual under it.  Nothing here differentiates
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, List

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    OutsideDomain,
    Potential,
    ResidualTooLarge,
    Tolerances,
    check_q,
    csv_text,
    identical_params,
    mathlib,
)
from .equilibria import EquilibriumRecord, GridEquilibria, equilibrium_values, passes_residual_cut
from .reduced import (grad_casimir, grad_hamiltonian, hessian_casimir, hessian_hamiltonian,
                      poisson_blocks, residual, rhs)  # perfbench's tracer test reads stability.rhs


class Classification(Enum):
    LinearlyStable = "LinearlyStable"
    LinearlyUnstable = "LinearlyUnstable"
    Degenerate = "Degenerate"


@dataclass(frozen=True)
class LinearizationReport:
    jacobian: np.ndarray
    char_coeffs: tuple[float, float]       # (a, b) of x(-x^4 + a x^2 + b)
    classification: Classification
    hessian_signature: tuple[int, int, int]


_CLASSES = np.array(
    [Classification.LinearlyStable, Classification.LinearlyUnstable, Classification.Degenerate],
    dtype=object,
)


def classify(a, b, tol: float = 1e-10):
    """Stability from the reduced characteristic factor -x^4 + a x^2 + b.

    Linear stability needs all four nonzero roots imaginary: a < 0,
    a^2 + 4b > 0 and b < 0.  Anything within tol of a boundary is
    reported Degenerate rather than forced into a class.  Scalar (a, b)
    give one Classification, arrays an object array of them.
    """
    disc = a * a + 4 * b
    degenerate = (abs(a) <= tol) | (abs(b) <= tol) | (abs(disc) <= tol)
    stable = (a < 0) & (disc > 0) & (b < 0)
    return _CLASSES[2 * degenerate + (1 - degenerate) * (1 - stable)]   # Degenerate, else 0 or 1


def _check_residual(residual, tol: Tolerances) -> None:
    """Raise ResidualTooLarge unless the residual (a float or an array) passes the record cut."""
    kept = passes_residual_cut(residual, tol)
    if not (kept if isinstance(kept, bool) else kept.all()):
        raise ResidualTooLarge(f"record residual {np.max(residual)} fails the cut {tol.record_residual}")


def energy_casimir_hessian(x, params, V: Potential):
    """The blocks A on (m1, p) and K on (m2, m3, q) of M = D2H - lam D2C,
    lam = grad H . grad C / |grad C|^2, as lists of rows, and grad C, at
    states x = (m1, m2, m3, q, p) of floats or arrays.  params.B may be an
    array broadcasting against x[0]."""
    (h0, h1, h2, h3, h4), gC = grad_hamiltonian(x, params, V), grad_casimir(x, params)
    g0, g1, g2, g3, g4 = gC
    # written out left to right: from Python 3.12, sum() of floats compensates rounding
    dot = h0 * g0 + h1 * g1 + h2 * g2 + h3 * g3 + h4 * g4
    norm2 = g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4
    lam = math.nan if isinstance(norm2, float) and not norm2 else dot / norm2   # numpy's 0/0
    A, K = ([[h - lam * c for h, c in zip(rh, rc)] for rh, rc in zip(bh, bc)]
            for bh, bc in zip(hessian_hamiltonian(x, params, V), hessian_casimir(x, params)))
    return A, K, gC


def _blocks(x, params, V: Potential):
    """A, K, the block X of sigma and the (m2, m3, q) part of grad C at
    states x with m1 = p = 0 (DomainError otherwise), floats or arrays."""
    off = (x[0] != 0) | (x[4] != 0)
    if off if isinstance(off, bool) else off.any():
        raise DomainError("the block form of sigma M needs m1 = p = 0, as at every equilibrium")
    A, K, gC = energy_casimir_hessian(x, params, V)
    return A, K, poisson_blocks(x, params)[0], gC[1:4]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _coefficients(A, K, X):
    """(a, b) of x(-x^4 + a x^2 + b) = -det(x - J), a = -tr N and b = -det N
    with N = G A and G = X K X^T, and the rows of X K."""
    XK = [[_dot(row, col) for col in K] for row in X]     # K is symmetric
    (g11, g12), (g21, g22) = [[_dot(u, v) for v in X] for u in XK]
    (a11, a12), (a21, a22) = A
    a = -(g11 * a11 + g12 * a21 + g21 * a12 + g22 * a22)
    b = -((g11 * g22 - g12 * g21) * (a11 * a22 - a12 * a21))
    return a, b, XK


def _jacobian(A, XK, X) -> np.ndarray:
    """J = [[0, X K], [-X^T A, 0]] over (m1, p) and (m2, m3, q), as the 5x5
    array in the order (m1, m2, m3, q, p), for one record."""
    (a11, a12), (a21, a22) = A
    rows = [(-(u * a11 + v * a21), 0.0, 0.0, 0.0, -(u * a12 + v * a22)) for u, v in zip(*X)]
    return np.array([(0.0, *XK[0], 0.0), *rows, (0.0, *XK[1], 0.0)])


def _eigenvalues(t, d):
    """The two eigenvalues of a symmetric 2x2 matrix of trace t and determinant d."""
    h = t / 2
    r2 = h * h - d
    r = mathlib(r2).sqrt(r2 * (r2 > 0))          # rounding can leave r2 just below 0
    return h - r, h + r


def _signature(A, K, g, tol: Tolerances):
    """(n_plus, n_minus, n_zero) of M restricted to the complement of grad C
    (g its (m2, m3, q) part), or (0, 0, 4) where that is singular: the
    eigenvalues of A and of K compressed onto the plane normal to n = g/|g|,
    of trace tr K - n^T K n and determinant n^T adj(K) n."""
    (a11, a12), (_, a22) = A
    (k11, k12, k13), (_, k22, k23), (_, _, k33) = K        # both symmetric
    adj = ((k22 * k33 - k23 * k23, k13 * k23 - k12 * k33, k12 * k23 - k13 * k22),
           (k13 * k23 - k12 * k33, k11 * k33 - k13 * k13, k12 * k13 - k11 * k23),
           (k12 * k23 - k13 * k22, k12 * k13 - k11 * k23, k11 * k22 - k12 * k12))
    gg = _dot(g, g)
    tK = k11 + k22 + k33 - _dot(g, [_dot(row, g) for row in K]) / gg
    dK = _dot(g, [_dot(row, g) for row in adj]) / gg
    dA = a11 * a22 - a12 * a12
    w = (*_eigenvalues(a11 + a22, dA), *_eigenvalues(tK, dK))
    regular = 1 - (abs(dA * dK) < 1e-10)             # dA dK: the four eigenvalues' product
    plus = sum(v > tol.eigenvalue for v in w) * regular
    minus = sum(v < -tol.eigenvalue for v in w) * regular
    return plus, minus, 4 - plus - minus


def stability_arrays(x, params, V: Potential, tol: Tolerances = DEFAULT_TOL):
    """(a, b) and classes at equilibria x of shape (5, ...).  params.B may
    be an array broadcasting against x[0]."""
    a, b, _ = _coefficients(*_blocks(x, params, V)[:3])
    return a, b, classify(a, b, tol.classify)


def hessian_signature(record: EquilibriumRecord, V: Potential,
                      tol: Tolerances = DEFAULT_TOL) -> tuple[int, int, int]:
    """The signature of `linearize` at one residual-checked equilibrium."""
    return linearize(record, V, tol).hessian_signature


def linearize(record: EquilibriumRecord, V: Potential,
              tol: Tolerances = DEFAULT_TOL) -> LinearizationReport:
    """Full linear analysis at an equilibrium, from the blocks of one
    Hessian M: the Jacobian sigma M, (a, b), the class and the signature of
    M.  The record's state must be an equilibrium under V: its residual
    under V, from one `rhs` call, must pass the record cut
    (ResidualTooLarge otherwise)."""
    s, params = record.state, record.params
    x = (s.m1, s.m2, s.m3, s.q, s.p)
    _check_residual(residual(x, params, V), tol)
    A, K, X, g = _blocks(x, params, V)
    a, b, XK = _coefficients(A, K, X)
    return LinearizationReport(
        jacobian=_jacobian(A, XK, X),
        char_coeffs=(a, b),
        classification=classify(a, b, tol.classify),
        hessian_signature=_signature(A, K, g, tol),
    )


def type1_boundary(q: float) -> float:
    """Field strength where the side-by-side family changes stability.  A q
    outside the guarded interval, or NaN, is a DomainError."""
    check_q(q)
    s, c = np.sin(q), np.cos(q)
    rad = c**3 * (2 + c) / (2 * s**3 * np.sin(q / 2) ** 2)
    if rad < 0:
        raise OutsideDomain(f"no stability boundary at q={q} (radicand < 0)")
    return float(np.sqrt(rad))


def threshold_stability(q0: float) -> Classification:
    """Stability of the single degenerate isosceles equilibrium on the
    existence threshold; governed by the sign of 1 + 2 cos(q0)."""
    s = 1 + 2 * np.cos(q0)
    if abs(s) <= 1e-12:
        return Classification.Degenerate
    return Classification.LinearlyStable if s > 0 else Classification.LinearlyUnstable


_COLUMNS = ("q", "B", "family", "a", "b", "class", "n_plus", "n_minus", "n_zero")


def stability_rows(grid: GridEquilibria, V: Potential, tol: Tolerances = DEFAULT_TOL) -> List[dict]:
    """Rows of `stability_csv`, one per entry of a closed-form grid, from
    the batched blocks of M: (a, b), class and signature as `linearize`
    gives them.  As in `linearize`, the entries' residual is taken under V,
    in one batch: ResidualTooLarge if an entry fails the cut."""
    x, params = grid.states(), identical_params(grid.B)
    _check_residual(equilibrium_values(x, params, V)[2], tol)
    A, K, X, g = _blocks(x, params, V)
    a, b, _ = _coefficients(A, K, X)
    sigs = (n.tolist() for n in _signature(A, K, g, tol))
    classes = [c.value for c in classify(a, b, tol.classify)]
    families = [f.value for f in grid.family]
    cols = zip(grid.q.tolist(), grid.B.tolist(), families, a.tolist(), b.tolist(), classes, *sigs)
    return [dict(zip(_COLUMNS, row)) for row in cols]


def stability_csv(rows: Iterable[dict]) -> str:
    return csv_text(_COLUMNS, map(itemgetter(*_COLUMNS), rows))
