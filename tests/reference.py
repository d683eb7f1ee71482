"""References for `magsphere` kept in plain form.  Numerical derivatives
for the closed forms: complex step where the function takes complex input
(V = cot, or any kernel that does not call V), central differences
otherwise.  The RK4 loop with its stages summed by generators over zip,
and the sphere projection as one loop over particles: the integrators'
states must equal theirs bit for bit."""

import math
from array import array

import numpy as np

from magsphere.core import NonFiniteState
from magsphere.reduced import rhs


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
