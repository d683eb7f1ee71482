"""Linear stability of relative equilibria, from one Hessian per equilibrium.

At an equilibrium grad H = lam grad C, and M = D2H - lam D2C, both Hessians
in closed form (`reduced.hessian_hamiltonian`, `reduced.hessian_casimir`),
gives both answers: the Jacobian of rhs = sigma grad H is J = sigma M, since
sigma grad C = 0, and M on the Casimir level set gives the energy-Casimir
signature.  J = sigma M holds only at equilibria of the potential passed in,
so `linearize` takes a record's residual under that potential.  Nothing
here differentiates numerically.  The kernels take a batch of states, or
one record as a tuple of floats (`linearize`), and one `eigvalsh` gives the
signature.  The characteristic polynomial at an equilibrium is
x(-x^4 + a x^2 + b); the class is read off (a, b).
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
    OutsideDomain,
    Potential,
    ResidualTooLarge,
    Tolerances,
    check_q,
    csv_text,
    identical_params,
)
from .equilibria import EquilibriumRecord, GridEquilibria, passes_residual_cut
from .reduced import (grad_casimir, grad_hamiltonian, hessian_casimir, hessian_hamiltonian,
                      poisson_matrix, residual, rhs)  # perfbench's tracer test reads stability.rhs


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

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.jacobian)


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


def char_coefficients(J: np.ndarray):
    """(a, b) of x(-x^4 + a x^2 + b), the characteristic polynomial of
    Jacobians J of shape (..., 5, 5) after deflating the zero root that the
    Casimir forces.

    The coefficients c1..c4 of det(x - J) = x^5 + c1 x^4 + ... + c5 follow
    from the power sums p_k = tr J^k by Newton's identities; a = -c2 and
    b = -c4.  Scalar for one Jacobian, arrays of shape (...) for a batch.
    """
    J2 = J @ J
    p1 = J.trace(axis1=-2, axis2=-1)
    p2 = J2.trace(axis1=-2, axis2=-1)
    p3 = (J2 * J.swapaxes(-1, -2)).sum(axis=(-2, -1))
    p4 = (J2 * J2.swapaxes(-1, -2)).sum(axis=(-2, -1))
    c1 = -p1
    c2 = -(c1 * p1 + p2) / 2
    c3 = -(c2 * p1 + c1 * p2 + p3) / 3
    c4 = -(c3 * p1 + c2 * p2 + c1 * p3 + p4) / 4
    if J.ndim == 2:
        return -float(c2), -float(c4)
    return -c2, -c4


def stability_arrays(x, params, V: Potential, tol: Tolerances = DEFAULT_TOL):
    """(a, b) and classes at equilibria x of shape (5, ...), from the batched
    Jacobians sigma M.  params.B may be an array broadcasting against x[0]."""
    M, _ = energy_casimir_hessian(x, params, V)
    a, b = char_coefficients(poisson_matrix(x, params) @ M)
    return a, b, classify(a, b, tol.classify)


def _check_residual(residual, tol: Tolerances) -> None:
    """Raise ResidualTooLarge unless the residual (a float or an array) passes the record cut."""
    kept = passes_residual_cut(residual, tol)
    if not (kept if isinstance(kept, bool) else kept.all()):
        raise ResidualTooLarge(f"record residual {np.max(residual)} fails the cut {tol.record_residual}")


def energy_casimir_hessian(x, params, V: Potential):
    """M = D2H - lam D2C, lam = grad H . grad C / |grad C|^2, at
    equilibria x of shape (5, ...), with shape (..., 5, 5), and grad C with
    its component axis last.  params.B may be an array broadcasting
    against x[0].  For one state x, a tuple of floats, lam is a float,
    summed left to right from 0.0 as numpy sums five terms."""
    gH, gC = grad_hamiltonian(x, params, V), grad_casimir(x, params)
    if isinstance(x, tuple):
        (h0, h1, h2, h3, h4), (g0, g1, g2, g3, g4) = gH, gC
        # written out: from Python 3.12, sum() of floats compensates rounding
        dot = 0.0 + h0 * g0 + h1 * g1 + h2 * g2 + h3 * g3 + h4 * g4
        norm2 = 0.0 + g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4
        lam = dot / norm2 if norm2 else math.nan         # numpy's 0/0
        gC = np.array(gC)
    else:
        gH, gC = np.array(gH), np.array(gC)
        last = (*range(1, gC.ndim), 0)                  # puts the component axis last
        gH, gC = gH.transpose(last), gC.transpose(last)
        lam = ((gH * gC).sum(axis=-1) / (gC * gC).sum(axis=-1))[..., None, None]
    return hessian_hamiltonian(x, params, V) - lam * hessian_casimir(x, params), gC


def _restricted_eigenvalues(M: np.ndarray, gC: np.ndarray) -> np.ndarray:
    """The eigenvalues of the Hessians M restricted to the complements of
    grad C, shape (..., 4).  With n = grad C/|grad C| and P = I - n n^T, the
    four smallest eigenvalues of P M P + c n n^T, c = 1 + |M|_F > |M|_2,
    are those of M on n's complement: n is the fifth eigenvector, with
    eigenvalue c."""
    nn = gC[..., :, None] * gC[..., None, :] / (gC * gC).sum(axis=-1)[..., None, None]
    P = np.eye(5) - nn
    c = 1.0 + np.sqrt((M * M).sum(axis=(-2, -1)))
    return np.linalg.eigvalsh(P @ M @ P + c[..., None, None] * nn)[..., :4]


def _signature(w, tol: Tolerances) -> tuple[int, int, int]:
    """`_signatures` read off four restricted eigenvalues w, as floats."""
    if abs(w[0] * w[1] * w[2] * w[3]) < 1e-10:
        return 0, 0, 4
    plus = sum(v > tol.eigenvalue for v in w)
    minus = sum(v < -tol.eigenvalue for v in w)
    return plus, minus, 4 - plus - minus


def _signatures(M: np.ndarray, gC: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Signatures of the Hessians M restricted to the complements of grad C,
    shape (..., 3); (0, 0, 4) wherever the restriction is singular."""
    w = _restricted_eigenvalues(M, gC)
    side = np.where(np.abs(w) > tol.eigenvalue, np.sign(w), 0.0)    # +1, -1 or 0
    sig = (side[..., None] == (1.0, -1.0, 0.0)).sum(axis=-2)
    singular = np.abs(w.prod(axis=-1)) < 1e-10
    return np.where(singular[..., None], (0, 0, 4), sig)


def signature_arrays(x, params, V: Potential, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Signatures (n_plus, n_minus, n_zero) of the Hessian of H restricted
    to the Casimir level set at equilibria x of shape (5, ...), with shape
    (..., 3); (0, 0, 4) wherever that Hessian is singular (a cusp).  That
    is M of `energy_casimir_hessian` on the orthogonal complement of grad C.
    params.B may be an array broadcasting against x[0].
    """
    return _signatures(*energy_casimir_hessian(x, params, V), tol)


def hessian_signature(
    record: EquilibriumRecord,
    V: Potential,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[int, int, int]:
    """The signature of `linearize` at one residual-checked equilibrium."""
    return linearize(record, V, tol).hessian_signature


def linearize(
    record: EquilibriumRecord,
    V: Potential,
    tol: Tolerances = DEFAULT_TOL,
) -> LinearizationReport:
    """Full linear analysis at an equilibrium, from one Hessian M: the
    Jacobian sigma M and the signature of M.  The record's state must be an
    equilibrium under V: its residual under V, from one `rhs` call, must
    pass the record cut (ResidualTooLarge otherwise)."""
    s, params = record.state, record.params
    x = (s.m1, s.m2, s.m3, s.q, s.p)
    _check_residual(residual(x, params, V), tol)
    M, gC = energy_casimir_hessian(x, params, V)
    J = poisson_matrix(x, params) @ M
    a, b = char_coefficients(J)
    return LinearizationReport(
        jacobian=J,
        char_coeffs=(a, b),
        classification=classify(a, b, tol.classify),
        hessian_signature=_signature(_restricted_eigenvalues(M, gC).tolist(), tol),
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
    one batched Hessian M: (a, b) and class from the Jacobians sigma M, and
    the signatures of M.  Raises ResidualTooLarge if an entry fails the
    residual cut."""
    _check_residual(grid.residual, tol)
    x, params = grid.states(), identical_params(grid.B)
    M, gC = energy_casimir_hessian(x, params, V)
    a, b = char_coefficients(poisson_matrix(x, params) @ M)
    sigs = _signatures(M, gC, tol)
    classes = [c.value for c in classify(a, b, tol.classify)]
    families = [f.value for f in grid.family]
    cols = zip(grid.q.tolist(), grid.B.tolist(), families, a.tolist(), b.tolist(), classes,
               *sigs.T.tolist())
    return [dict(zip(_COLUMNS, row)) for row in cols]


def stability_csv(rows: Iterable[dict]) -> str:
    return csv_text(_COLUMNS, map(itemgetter(*_COLUMNS), rows))
