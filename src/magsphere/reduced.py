"""The reduced Poisson system on (m1, m2, m3, q, p).

Hamiltonian and Casimir with their gradients, their closed-form Hessians
and the bracket matrix (each as its blocks over (m1, p) and (m2, m3, q)),
equations of motion and a fixed-step integrator with invariant
monitoring.  The bracket table is normative; a test pins the identity
rhs = sigma . grad(H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CollisionApproach,
    DomainError,
    Potential,
    Q_EDGE,
    ReducedState,
    SystemParams,
    csv_text,
    kinetic_gradient,
    mathlib,
    rk4,
    step_count,
)


def hamiltonian(state: ReducedState, params: SystemParams, V: Potential) -> float:
    return float(hamiltonian_array(state.as_array(), params, V))


def hamiltonian_array(x, params: SystemParams, V: Potential):
    mu1, mu2 = params.mu1, params.mu2
    m1, m2, m3, q, p = x
    # squares as products: numpy's scalar ** calls pow(), which can differ
    # from the array square by 1 ulp, and one state must give the same
    # value alone as in a batch
    m = mathlib(q)
    s = m.sin(q)
    cot = m.cos(q) / s
    csc2 = 1.0 / (s * s)
    kinetic = (
        mu2 * ((m1 - p) * (m1 - p) + m2 * m2)
        + m3 * (-2 * mu2 * m2 * cot + mu1 * m3 * csc2 + mu2 * m3 * (cot * cot))
    ) / (2 * mu1 * mu2)
    return kinetic + p * p / (2 * mu2) + V.value(q)


def grad_hamiltonian(x, params: SystemParams, V: Potential):
    """Analytic gradient of H, five components (floats or arrays), as a
    tuple; the (m, p)-components are the body velocities."""
    dm1, dm2, dm3, dq, dp = kinetic_gradient(x, params)
    return dm1, dm2, dm3, dq + V.derivative(x[3]), dp


def hessian_hamiltonian(x, params: SystemParams, V: Potential):
    """D2H = D2T + V''(q) e_q e_q^T in closed form at states x = (m1, m2,
    m3, q, p), floats or arrays; T is quadratic in the momenta.  D2H couples
    neither m1 nor p to (m2, m3, q), so it is returned as its two blocks,
    tuples of rows: the 2x2 block on (m1, p), then the 3x3 block on (m2, m3,
    q)."""
    mu1, mu2 = params.mu1, params.mu2
    m1, m2, m3, q, p = x
    m = mathlib(q)
    s, c = m.sin(q), m.cos(q)
    s2, k, mu = s * s, mu1 * mu2, mu1 + mu2
    a, h12, h13 = 1 / mu1, -c / (mu1 * s), m3 / (mu1 * s2)
    h22 = (mu1 + mu2 * c * c) / (k * s2)
    h23 = (mu2 * m2 * s - 2 * mu * m3 * c) / (k * s2 * s)
    h33 = m3 * (mu * m3 * (1 + 2 * c * c) - 2 * mu2 * m2 * s * c) / (k * s2 * s2) + V.second(q)
    return ((a, -a), (-a, mu / k)), ((a, h12, h13), (h12, h22, h23), (h13, h23, h33))


def _momentum_shift(q, params: SystemParams):
    """(B e2 sin q, B (e1 + e2 cos q)): what the field takes from m2 and
    adds to m3 in the shifted momentum (see `shifted_momentum`)."""
    B, e2 = params.B, params.e2
    m = mathlib(q)
    return B * e2 * m.sin(q), B * (params.e1 + e2 * m.cos(q))


def shifted_momentum(x, params: SystemParams):
    """Phi = (m1, m2 - B e2 sin q, m3 + B (e1 + e2 cos q)) at x = (m1, m2,
    m3, q, p): the Casimir is |Phi|^2, and Phi points along the rotation
    axis of a relative equilibrium."""
    m1, m2, m3, q, p = x
    shift2, shift3 = _momentum_shift(q, params)
    return m1, m2 - shift2, m3 + shift3


def casimir(state: ReducedState, params: SystemParams) -> float:
    return float(casimir_array(state.as_array(), params))


def casimir_array(x, params: SystemParams):
    v1, v2, v3 = shifted_momentum(x, params)
    return v1 * v1 + v2 * v2 + v3 * v3


def grad_casimir(x, params: SystemParams):
    """Gradient of C, five components (floats or arrays), as a tuple."""
    v1, v2, v3 = shifted_momentum(x, params)
    q = x[3]
    m = mathlib(q)
    return (2 * v1, 2 * v2, 2 * v3,
            -2 * params.B * params.e2 * (v2 * m.cos(q) + v3 * m.sin(q)), 0.0 * v1)


def hessian_casimir(x, params: SystemParams):
    """D2C in closed form at states x, as `hessian_hamiltonian` gives D2H:
    with b = B e2, 2 on the m diagonal, d2C/dm2dq = -2b cos q, d2C/dm3dq =
    -2b sin q, d2C/dq2 = 2b (m2 sin q - (m3 + B e1) cos q) and 0 else."""
    m1, m2, m3, q, p = x
    b = params.B * params.e2
    m = mathlib(q)
    s, c = m.sin(q), m.cos(q)
    h13, h23 = -2 * b * c, -2 * b * s
    h33 = 2 * b * (m2 * s - (m3 + params.B * params.e1) * c)
    return ((2.0, 0.0), (0.0, 0.0)), ((2.0, 0.0, h13), (0.0, 2.0, h23), (h13, h23, h33))


def poisson_blocks(x, params: SystemParams):
    """The bracket matrix sigma, {x_i, x_j} = sigma[i, j], at states x,
    floats or arrays, as its blocks X and Y, tuples of rows: sigma is
    [[0, X], [-X^T, Y]] over (m1, p) and (m2, m3, q).  Y is zero where m1
    is, as at every relative equilibrium."""
    v1, v2, v3 = shifted_momentum(x, params)
    q = x[3]
    m = mathlib(q)
    b2 = params.B * params.e2
    c, s = b2 * m.cos(q), b2 * m.sin(q)
    return ((-v3, v2, 0.0), (-c, -s, -1.0)), ((0.0, -v1, 0.0), (v1, 0.0, 0.0), (0.0, 0.0, 0.0))


def rhs(x, params: SystemParams, V: Potential):
    """The vector field at x, five components (floats or arrays), as a tuple."""
    mu1, mu2 = params.mu1, params.mu2
    B, e1, e2 = params.B, params.e1, params.e2
    m1, m2, m3, q, p = x
    m = mathlib(q)
    s = m.sin(q)
    c = m.cos(q)
    cot = c / s
    csc = 1.0 / s
    csc2 = csc * csc
    inv = 1.0 / (mu1 * mu2)

    dm1 = -inv * (
        mu2 * (m2 - m3 * cot) * (B * e1 + m2 * cot + m3)
        + B * e2 * mu1 * m3 * csc
        - mu1 * m2 * m3 * csc2
    )
    dm2 = inv * (
        mu2 * (m1 - p) * (B * e1 + m3)
        + B * e2 * mu1 * p * c
        + mu2 * m1 * cot * (m2 - m3 * cot)
        - mu1 * m1 * m3 * csc2
    )
    dm3 = inv * (mu1 * B * e2 * p * s + mu2 * (m2 * p - m1 * m3 * cot))
    dq = inv * (p * (mu1 + mu2) - mu2 * m1)
    dp = -inv * (
        m3 * csc * (B * e2 * mu1 + csc * (mu2 * m2 - m3 * (mu1 + mu2) * cot))
        + mu1 * mu2 * V.derivative(q)
    )
    return dm1, dm2, dm3, dq, dp


def max_norm(f) -> float:
    """max |f_i| of floats f; NaN if any f_i is NaN, as np.max gives."""
    a = [abs(v) for v in f]
    return math.nan if math.isnan(sum(a)) else max(a)


def residual(x, params: SystemParams, V: Potential) -> float:
    """Max-norm of the reduced vector field at one state, from one `rhs`
    call on its five floats; zero at relative equilibria."""
    return max_norm(rhs(tuple(map(float, x)), params, V))


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step sample of a reduced orbit with invariant-drift records."""

    times: np.ndarray
    states: np.ndarray            # shape (n, 5)
    energy: np.ndarray
    casimir: np.ndarray
    params: SystemParams
    potential_name: str = "cot"

    @property
    def energy_drift(self) -> np.ndarray:
        return np.abs(self.energy - self.energy[0])

    @property
    def casimir_drift(self) -> np.ndarray:
        return np.abs(self.casimir - self.casimir[0])

    def final_state(self) -> ReducedState:
        return ReducedState.from_array(self.states[-1])

    def to_csv(self) -> str:
        table = np.column_stack([self.times, self.states, self.energy, self.casimir])
        return csv_text(("t", "m1", "m2", "m3", "q", "p", "H", "C"), table.tolist())


def _casimir_projection(x, params: SystemParams, c_target: float):
    """Rescale the shifted momentum vector back onto the Casimir sphere (a
    zero vector: ZeroDivisionError on floats, NaN in a batch)."""
    m1, m2, m3, q, p = x
    shift2, shift3 = _momentum_shift(q, params)
    v1, v2, v3 = m1, m2 - shift2, m3 + shift3
    norm2 = v1 * v1 + v2 * v2 + v3 * v3
    m = mathlib(q)
    k = m.sqrt(c_target) / m.sqrt(norm2)
    return v1 * k, v2 * k + shift2, v3 * k - shift3, q, p


def _q_guard(V: Potential):
    """The guard of a run under V: CollisionApproach when q leaves
    [Q_EDGE, pi - Q_EDGE], DomainError when it leaves `V.q_range`.  A step
    makes one test, against the intersection of the two."""
    lo, hi = V.q_range
    a, b = max(lo, Q_EDGE), min(hi, np.pi - Q_EDGE)

    def guard(x, t: float) -> None:
        if not a <= x[3] <= b:
            if Q_EDGE <= x[3] <= np.pi - Q_EDGE:
                raise DomainError(f"q={x[3]} left the potential table [{lo}, {hi}] at t={t}")
            raise CollisionApproach(f"q={x[3]} left the guarded domain at t={t}")

    return guard


def integrate(
    initial: ReducedState,
    params: SystemParams,
    V: Potential,
    t_end: float,
    dt: float,
    project_casimir: bool = False,
) -> Trajectory:
    """Classical fixed-step RK4 (`core.rk4`) on the reduced equations.

    H and C are taken on the stored trajectory and monitored, not enforced,
    unless `project_casimir` is set (useful for long runs): then every stage
    and step is mapped back onto the initial Casimir level.  Raises
    DomainError unless t_end is a whole number of steps dt or if q leaves
    `V.q_range`, CollisionApproach if q leaves the guarded interval and
    NonFiniteState on numeric blow-up.
    """
    n_steps = step_count(t_end, dt)
    x0 = initial.as_array()
    c0 = casimir_array(x0, params)
    project = (lambda x: _casimir_projection(x, params, c0)) if project_casimir else None
    # rhs is looked up at call time, so a wrapper bound in its place sees every call
    states = rk4(lambda x: rhs(x, params, V), x0, dt, n_steps, project, _q_guard(V))
    return Trajectory(
        np.arange(n_steps + 1) * dt,
        states,
        hamiltonian_array(states.T, params, V),
        casimir_array(states.T, params),
        params,
        V.name,
    )
