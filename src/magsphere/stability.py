"""Linear stability of relative equilibria, from two blocks of one Hessian.

At an equilibrium grad H = lam grad C, and M = D2H - lam D2C gives both
answers: J = sigma M is the Jacobian of rhs = sigma grad H, since sigma
grad C = 0, and M on the Casimir level set gives the energy-Casimir
signature.  M is A (+) K, with A on (m1, p) and K on (m2, m3, q), and at
m1 = p = 0, as at every relative equilibrium, sigma is [[0, X], [-X^T, 0]]
and grad C lies in K's coordinates (`reduced`).  So the characteristic
polynomial x(-x^4 + a x^2 + b) has a = -tr N and b = -det N, N = X K X^T A,
and the restricted Hessian has the eigenvalues of A and of K compressed
onto the plane normal to grad C.  Each entry is one straight-line
expression over named entries, so one source serves one record as floats
(`linearize`) and a batch as arrays (`core.mathlib`), bit for bit.  The
5x5 J = [[0, X K], [-X^T A, 0]] is built only when a report's `jacobian`
is read.  J = sigma M holds only at equilibria of the potential passed in,
so `linearize` and `stability_rows` take the residual under it.  Nothing
here differentiates numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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
from .equilibria import EquilibriumRecord, GridEquilibria, passes_residual_cut
from .reduced import (grad_casimir, grad_hamiltonian, hessian_casimir, hessian_hamiltonian,
                      poisson_blocks, residual, rhs)


class Classification(Enum):
    LinearlyStable = "LinearlyStable"
    LinearlyUnstable = "LinearlyUnstable"
    Degenerate = "Degenerate"


@dataclass(frozen=True)
class LinearizationReport:
    """What `linearize` finds at one equilibrium.  The 5x5 Jacobian J =
    sigma M is built from the blocks (A, X K, X) when `jacobian` is first
    read, and kept: (a, b), the class and the signature do not need it."""
    char_coeffs: tuple[float, float]       # (a, b) of x(-x^4 + a x^2 + b)
    classification: Classification
    hessian_signature: tuple[int, int, int]
    _jacobian_blocks: tuple = field(repr=False, compare=False)     # (A, X K, X)

    @cached_property
    def jacobian(self) -> np.ndarray:
        return _jacobian(*self._jacobian_blocks)


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
    lam = grad H . grad C / |grad C|^2, as tuples of rows, and grad C, at
    states x = (m1, m2, m3, q, p) of floats or arrays.  params.B may be an
    array broadcasting against x[0].  Both Hessians are symmetric, entry
    for entry, so each entry of M is formed once, above the diagonal."""
    (h0, h1, h2, h3, h4), gC = grad_hamiltonian(x, params, V), grad_casimir(x, params)
    g0, g1, g2, g3, g4 = gC
    # written out left to right: from Python 3.12, sum() of floats compensates rounding
    dot = h0 * g0 + h1 * g1 + h2 * g2 + h3 * g3 + h4 * g4
    norm2 = g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4
    lam = math.nan if isinstance(norm2, float) and not norm2 else dot / norm2   # numpy's 0/0
    # u: the block on (m1, p), w: on (m2, m3, q)
    ((hu11, hu12), (_, hu22)), ((hw11, hw12, hw13), (_, hw22, hw23), (_, _, hw33)) = \
        hessian_hamiltonian(x, params, V)
    ((cu11, cu12), (_, cu22)), ((cw11, cw12, cw13), (_, cw22, cw23), (_, _, cw33)) = \
        hessian_casimir(x, params)
    # lam times D2C's zeros stays: it keeps NaN where lam is NaN, as a full product does
    a11, a12, a22 = hu11 - lam * cu11, hu12 - lam * cu12, hu22 - lam * cu22
    k11, k12, k13 = hw11 - lam * cw11, hw12 - lam * cw12, hw13 - lam * cw13
    k22, k23, k33 = hw22 - lam * cw22, hw23 - lam * cw23, hw33 - lam * cw33
    return ((a11, a12), (a12, a22)), ((k11, k12, k13), (k12, k22, k23), (k13, k23, k33)), gC


def _blocks(x, params, V: Potential):
    """A, K, the block X of sigma and the (m2, m3, q) part of grad C at
    states x with m1 = p = 0 (DomainError otherwise), floats or arrays."""
    off = (x[0] != 0) | (x[4] != 0)
    if off if isinstance(off, bool) else off.any():
        raise DomainError("the block form of sigma M needs m1 = p = 0, as at every equilibrium")
    A, K, gC = energy_casimir_hessian(x, params, V)
    return A, K, poisson_blocks(x, params)[0], gC[1:4]


def _coefficients(A, K, X):
    """(a, b) of x(-x^4 + a x^2 + b) = -det(x - J), a = -tr N and b = -det N
    with N = G A and G = X K X^T, and the rows of X K.  Each product of
    rows sums u1 v1 + u2 v2 + u3 v3, left to right."""
    (a11, a12), (a21, a22) = A
    (k11, k12, k13), (_, k22, k23), (_, _, k33) = K        # symmetric
    (x11, x12, x13), (x21, x22, x23) = X
    y11, y12, y13 = (x11 * k11 + x12 * k12 + x13 * k13, x11 * k12 + x12 * k22 + x13 * k23,
                     x11 * k13 + x12 * k23 + x13 * k33)
    y21, y22, y23 = (x21 * k11 + x22 * k12 + x23 * k13, x21 * k12 + x22 * k22 + x23 * k23,
                     x21 * k13 + x22 * k23 + x23 * k33)
    g11, g12 = y11 * x11 + y12 * x12 + y13 * x13, y11 * x21 + y12 * x22 + y13 * x23
    g21, g22 = y21 * x11 + y22 * x12 + y23 * x13, y21 * x21 + y22 * x22 + y23 * x23
    a = -(g11 * a11 + g12 * a21 + g21 * a12 + g22 * a22)
    b = -((g11 * g22 - g12 * g21) * (a11 * a22 - a12 * a21))
    return a, b, ((y11, y12, y13), (y21, y22, y23))


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
    g1, g2, g3 = g
    c11, c12, c13 = k22 * k33 - k23 * k23, k13 * k23 - k12 * k33, k12 * k23 - k13 * k22
    c22, c23, c33 = k11 * k33 - k13 * k13, k12 * k13 - k11 * k23, k11 * k22 - k12 * k12
    gg = g1 * g1 + g2 * g2 + g3 * g3
    gKg = (g1 * (k11 * g1 + k12 * g2 + k13 * g3) + g2 * (k12 * g1 + k22 * g2 + k23 * g3)
           + g3 * (k13 * g1 + k23 * g2 + k33 * g3))
    tK = k11 + k22 + k33 - gKg / gg
    dK = (g1 * (c11 * g1 + c12 * g2 + c13 * g3) + g2 * (c12 * g1 + c22 * g2 + c23 * g3)
          + g3 * (c13 * g1 + c23 * g2 + c33 * g3)) / gg
    dA = a11 * a22 - a12 * a12
    (w1, w2), (w3, w4) = _eigenvalues(a11 + a22, dA), _eigenvalues(tK, dK)
    regular = 1 - (abs(dA * dK) < 1e-10)             # dA dK: the four eigenvalues' product
    e = tol.eigenvalue
    # each count starts from the int 0: on arrays, bool + bool is a logical or
    plus = (0 + (w1 > e) + (w2 > e) + (w3 > e) + (w4 > e)) * regular
    minus = (0 + (w1 < -e) + (w2 < -e) + (w3 < -e) + (w4 < -e)) * regular
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
    Hessian M: (a, b), the class and the signature of M, and the Jacobian
    sigma M, built when the report's `jacobian` is read.  The record's
    state must be an equilibrium under V: its residual under V, from one
    `rhs` call, must pass the record cut (ResidualTooLarge otherwise)."""
    s, params = record.state, record.params
    x = (s.m1, s.m2, s.m3, s.q, s.p)
    _check_residual(residual(x, params, V), tol)
    A, K, X, g = _blocks(x, params, V)
    a, b, XK = _coefficients(A, K, X)
    return LinearizationReport(
        char_coeffs=(a, b),
        classification=classify(a, b, tol.classify),
        hessian_signature=_signature(A, K, g, tol),
        _jacobian_blocks=(A, XK, X),
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
    gives them.  As in `linearize`, the entries' residual max|rhs| is taken
    under V, from one batched `rhs` call: ResidualTooLarge if an entry fails
    the cut."""
    x, params = grid.states(), identical_params(grid.B)
    _check_residual(np.max(np.abs(rhs(x, params, V)), axis=0), tol)
    A, K, X, g = _blocks(x, params, V)
    a, b, _ = _coefficients(A, K, X)
    sigs = (n.tolist() for n in _signature(A, K, g, tol))
    classes = [c.value for c in classify(a, b, tol.classify)]
    families = [f.value for f in grid.family]
    cols = zip(grid.q.tolist(), grid.B.tolist(), families, a.tolist(), b.tolist(), classes, *sigs)
    return [dict(zip(_COLUMNS, row)) for row in cols]


def stability_csv(rows: Iterable[dict]) -> str:
    return csv_text(_COLUMNS, map(itemgetter(*_COLUMNS), rows))
