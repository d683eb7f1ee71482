"""References for `magsphere` kept in plain form.  Numerical derivatives
for the closed forms: complex step where the function takes complex input
(V = cot, or any kernel that does not call V), central differences
otherwise.  The RK4 loop with its stages summed by generators over zip,
and the sphere projection as one loop over particles: the integrators'
states must equal theirs bit for bit.  The general solver's per-record
steps and `linearize` on numpy scalars and arrays: the records and reports
of the float path must equal theirs bit for bit."""

import math
from array import array

import numpy as np

from magsphere import stability
from magsphere.core import DEFAULT_TOL, NonFiniteState, ResidualTooLarge
from magsphere.reduced import casimir_array, hamiltonian_array, poisson_matrix, rhs


def derivative_matrix(f, x, analytic: bool) -> np.ndarray:
    """df/dx at states x of shape (5, ...), with shape (..., 5, 5); f maps
    x to five components (array or tuple).

    Complex step (one call of f per column) when f accepts complex input,
    otherwise central differences with step 1e-6 (two calls per column).
    """
    x = np.asarray(x, dtype=float)
    last = (*range(1, x.ndim), 0)          # puts the component axis of f(x) last
    D = np.empty(x.shape[1:] + (5, 5))
    f_array = lambda z: np.asarray(f(z)).transpose(last)
    for j in range(5):
        if analytic:
            z = x.astype(complex)
            z[j] += 1e-200j
            D[..., j] = f_array(z).imag / 1e-200
        else:
            e = np.zeros_like(x)
            e[j] = 1e-6
            D[..., j] = (f_array(x + e) - f_array(x - e)) / 2e-6
    return D


def jacobian_matrix(x, params, V) -> np.ndarray:
    """d(rhs)/dx at states x of shape (5, ...), with shape (..., 5, 5):
    complex step for V = cot, central differences for a table."""
    return derivative_matrix(lambda z: rhs(z, params, V), x, V.analytic)


def rk4(f, x0, dt, n_steps, project=None, guard=None):
    """`core.rk4` with its stages summed by generators over zip."""
    x = tuple(np.asarray(x0, dtype=float).tolist())
    states = array("d", x)
    project = project or (lambda x: x)
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n_steps + 1):
        try:
            k1 = f(x)
            k2 = f(project(tuple(a + half * b for a, b in zip(x, k1))))
            k3 = f(project(tuple(a + half * b for a, b in zip(x, k2))))
            k4 = f(project(tuple(a + dt * b for a, b in zip(x, k3))))
            k = zip(x, k1, k2, k3, k4)
            x = project(tuple(a + sixth * (b + 2 * c + 2 * d + e) for a, b, c, d, e in k))
        except (ArithmeticError, ValueError) as exc:
            raise NonFiniteState(f"non-finite state at t={i * dt}") from exc
        if not all(map(math.isfinite, x)):
            raise NonFiniteState(f"non-finite state at t={i * dt}")
        if guard is not None:
            guard(x, i * dt)
        states.extend(x)
    return np.frombuffer(states).reshape(n_steps + 1, len(x))


def project(y):
    """`fullspace._project` as one loop over the k particles of y: positions
    of all k, then their momenta, 6k float components; returns a tuple."""
    n = len(y) // 2
    q, p = [], []
    for i in range(0, n, 3):
        qx, qy, qz = y[i : i + 3]
        px, py, pz = y[n + i : n + i + 3]
        r = math.sqrt(qx * qx + qy * qy + qz * qz)
        qx, qy, qz = qx / r, qy / r, qz / r
        d = px * qx + py * qy + pz * qz
        q += qx, qy, qz
        p += px - d * qx, py - d * qy, pz - d * qz
    return (*q, *p)


def quartic_coefficients(q, params, V) -> np.ndarray:
    """`equilibria.quartic_coefficients` with numpy's sin and cos."""
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


def admissibility(m3, q, params):
    """`equilibria.admissibility` with numpy's sin and cos."""
    mu1, mu2, e1, e2, B = params.mu1, params.mu2, params.e1, params.e2, params.B
    s, c = np.sin(q), np.cos(q)
    cot, csc = c / s, 1.0 / s
    return (
        4 * mu2 * m3 * cot * csc * (mu2 * c * (B * e1 + m3) - B * e2 * mu1)
        + (-mu2 * (B * e1 + m3) + mu1 * m3 * csc**2 + mu2 * m3 * cot**2) ** 2
    )


def m2_from_m3(m3, sign, q, params):
    """m2 on the branch `sign` (+1 or -1, or an array of them) of m1' = 0,
    with numpy's sin, cos, tan and sqrt."""
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


def equilibrium_values(x, params, V):
    """H, C and the residual max|rhs| of one state x, from the kernels on x
    as a batch of one (numpy's sin and cos), as numpy scalars."""
    X = np.asarray(x, dtype=float)[:, None]
    residual = np.max(np.abs(rhs(X, params, V)), axis=0)
    return hamiltonian_array(X, params, V)[0], casimir_array(X, params)[0], residual[0]


def linearize(record, V, tol=DEFAULT_TOL):
    """`stability.linearize` that trusts the record's stored residual and
    runs the batched kernels on its state as a batch of one."""
    if not record.residual < tol.record_residual:
        raise ResidualTooLarge(f"record residual {record.residual}")
    x = record.state.as_array()[:, None]
    M, gC = stability.energy_casimir_hessian(x, record.params, V)
    J = (poisson_matrix(x, record.params) @ M)[0]
    a, b = stability.char_coefficients(J)
    return stability.LinearizationReport(
        jacobian=J,
        char_coeffs=(a, b),
        classification=stability.classify(a, b, tol.classify),
        hessian_signature=tuple(stability._signatures(M, gC, tol)[0].tolist()),
    )
