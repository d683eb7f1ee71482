"""References for `magsphere` kept in plain form.  Numerical derivatives
for the closed forms: complex step where the function takes complex input
(V = cot, or any kernel that does not call V), central differences
otherwise.  The RK4 loop with its stages summed by generators over zip,
and the sphere projection as one loop over particles: the integrators'
states must equal theirs bit for bit.  The general solver's per-record
steps and `linearize` on numpy scalars and arrays: the records and reports
of the float path must equal theirs bit for bit.  The 5x5 route to
stability that the block kernels of `stability` replaced: D2H, D2C, sigma
and M as 5x5 arrays, (a, b) by Newton's identities on tr J^k of J = sigma
M, and the signature from one eigvalsh of P M P + c n n^T."""

import math
from array import array

import numpy as np

from magsphere import reduced, stability
from magsphere.core import DEFAULT_TOL, NonFiniteState, ResidualTooLarge
from magsphere.reduced import casimir_array, hamiltonian_array, rhs


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
    runs the block kernels on its state as a batch of one; J from the
    blocks' entries as numpy scalars."""
    if not record.residual < tol.record_residual:
        raise ResidualTooLarge(f"record residual {record.residual}")
    x = record.state.as_array()[:, None]
    A, K, X, g = stability._blocks(x, record.params, V)
    a, b, XK = stability._coefficients(A, K, X)
    first = lambda blocks: [[np.asarray(v).reshape(-1)[0] for v in row] for row in blocks]
    return stability.LinearizationReport(
        char_coeffs=(a[0], b[0]),
        classification=stability.classify(a, b, tol.classify)[0],
        hessian_signature=tuple(int(n[0]) for n in stability._signature(A, K, g, tol)),
        _jacobian_blocks=(first(A), first(XK), first(X)),
    )


U, W = (0, 4), (1, 2, 3)      # the indices of (m1, p) and of (m2, m3, q)


def _matrix(uu, uw, wu, ww) -> np.ndarray:
    """The 5x5 matrices, in the order (m1, m2, m3, q, p), of the blocks uu
    on (m1, p) x (m1, p), uw on (m1, p) x (m2, m3, q), wu and ww likewise:
    tuples of rows of floats or arrays, or None for a zero block.  Shape
    (..., 5, 5), the entries' broadcast shape first."""
    blocks = [(rows, I, J) for rows, I, J in ((uu, U, U), (uw, U, W), (wu, W, U), (ww, W, W))
              if rows is not None]
    values = [v for rows, _, _ in blocks for row in rows for v in row]
    D = np.zeros(np.broadcast_shapes(*map(np.shape, values)) + (5, 5),
                 dtype=np.result_type(*values, 0.0))
    for rows, I, J in blocks:
        for i, row in zip(I, rows):
            for j, v in zip(J, row):
                D[..., i, j] = v
    return D


def hessian_hamiltonian(x, params, V) -> np.ndarray:
    A, K = reduced.hessian_hamiltonian(x, params, V)
    return _matrix(A, None, None, K)


def hessian_casimir(x, params) -> np.ndarray:
    A, K = reduced.hessian_casimir(x, params)
    return _matrix(A, None, None, K)


def poisson_matrix(x, params) -> np.ndarray:
    X, Y = reduced.poisson_blocks(x, params)
    return _matrix(None, X, tuple(zip(*((-v for v in row) for row in X))), Y)


def energy_casimir_hessian(x, params, V):
    """M of `stability.energy_casimir_hessian` as 5x5 arrays, and grad C
    with its component axis last."""
    A, K, gC = stability.energy_casimir_hessian(x, params, V)
    return _matrix(A, None, None, K), np.moveaxis(np.broadcast_arrays(*gC), 0, -1)


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


def restricted_eigenvalues(M: np.ndarray, gC: np.ndarray) -> np.ndarray:
    """The eigenvalues of the Hessians M restricted to the complements of
    grad C, shape (..., 4).  With n = grad C/|grad C| and P = I - n n^T, the
    four smallest eigenvalues of P M P + c n n^T, c = 1 + |M|_F > |M|_2,
    are those of M on n's complement: n is the fifth eigenvector, with
    eigenvalue c."""
    nn = gC[..., :, None] * gC[..., None, :] / (gC * gC).sum(axis=-1)[..., None, None]
    P = np.eye(5) - nn
    c = 1.0 + np.sqrt((M * M).sum(axis=(-2, -1)))
    return np.linalg.eigvalsh(P @ M @ P + c[..., None, None] * nn)[..., :4]


def signatures(M: np.ndarray, gC: np.ndarray, tol) -> np.ndarray:
    """Signatures of the Hessians M restricted to the complements of grad C,
    shape (..., 3); (0, 0, 4) wherever the restriction is singular."""
    w = restricted_eigenvalues(M, gC)
    side = np.where(np.abs(w) > tol.eigenvalue, np.sign(w), 0.0)    # +1, -1 or 0
    sig = (side[..., None] == (1.0, -1.0, 0.0)).sum(axis=-2)
    singular = np.abs(w.prod(axis=-1)) < 1e-10
    return np.where(singular[..., None], (0, 0, 4), sig)


def linearize_5x5(x, params, V, tol=DEFAULT_TOL):
    """The 5x5 route at equilibria x of shape (5, ...): J = sigma M, (a, b)
    by `char_coefficients`, their classes, and `signatures`."""
    M, gC = energy_casimir_hessian(x, params, V)
    J = poisson_matrix(x, params) @ M
    a, b = char_coefficients(J)
    return J, (a, b), stability.classify(a, b, tol.classify), signatures(M, gC, tol)
