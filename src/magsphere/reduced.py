"""The reduced Poisson system on (m1, m2, m3, q, p).

Hamiltonian, Casimir, bracket tensor, equations of motion and a fixed-step
integrator with invariant monitoring.  The bracket table is normative; a
test pins the identity rhs = sigma . grad(H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CollisionApproach,
    Potential,
    Q_EDGE,
    ReducedState,
    SystemParams,
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
    s = np.sin(q)
    cot = np.cos(q) / s
    csc2 = 1.0 / (s * s)
    kinetic = (
        mu2 * ((m1 - p) * (m1 - p) + m2 * m2)
        + m3 * (-2 * mu2 * m2 * cot + mu1 * m3 * csc2 + mu2 * m3 * (cot * cot))
    ) / (2 * mu1 * mu2)
    return kinetic + p * p / (2 * mu2) + V.value(q)


def grad_hamiltonian(x, params: SystemParams, V: Potential):
    """Analytic gradient of H; the (m, p)-components are the body velocities."""
    mu1, mu2 = params.mu1, params.mu2
    m1, m2, m3, q, p = x
    s = np.sin(q)
    cot = np.cos(q) / s
    csc2 = 1.0 / s**2
    dm1 = (m1 - p) / mu1
    dm2 = (m2 - m3 * cot) / mu1
    dm3 = cot * (m3 * cot - m2) / mu1 + m3 * csc2 / mu2
    dq = m3 * csc2 * (mu2 * m2 - (mu1 + mu2) * m3 * cot) / (mu1 * mu2) + V.derivative(q)
    dp = (p * (mu1 + mu2) - mu2 * m1) / (mu1 * mu2)
    return np.array([dm1, dm2, dm3, dq, dp])


def casimir(state: ReducedState, params: SystemParams) -> float:
    return float(casimir_array(state.as_array(), params))


def casimir_array(x, params: SystemParams):
    m1, m2, m3, q, p = x
    B, e1, e2 = params.B, params.e1, params.e2
    u = m2 - B * e2 * np.sin(q)
    w = m3 + B * (e1 + e2 * np.cos(q))
    return m1 * m1 + u * u + w * w


def grad_casimir(x, params: SystemParams):
    m1, m2, m3, q, p = x
    B, e1, e2 = params.B, params.e1, params.e2
    u = m2 - B * e2 * np.sin(q)
    w = m3 + B * (e1 + e2 * np.cos(q))
    return np.array(
        [
            2 * m1,
            2 * u,
            2 * w,
            -2 * B * e2 * (u * np.cos(q) + w * np.sin(q)),
            0.0 * m1,
        ]
    )


@dataclass(frozen=True)
class PoissonTensor:
    """Antisymmetric 5x5 bracket matrix evaluated at a state."""

    matrix: np.ndarray

    def apply(self, grad: np.ndarray) -> np.ndarray:
        return self.matrix @ grad


def poisson_tensor(state: ReducedState, params: SystemParams) -> PoissonTensor:
    return PoissonTensor(poisson_matrix(state.as_array(), params))


def poisson_matrix(x, params: SystemParams) -> np.ndarray:
    m1, m2, m3, q, p = x
    B, e1, e2 = params.B, params.e1, params.e2
    s, c = np.sin(q), np.cos(q)
    sig = np.zeros((5, 5), dtype=np.result_type(x, float))
    pairs = {
        (0, 1): -m3 - B * (e1 + e2 * c),
        (0, 2): m2 - B * e2 * s,
        (1, 2): -m1,
        (1, 4): B * e2 * c,
        (2, 4): B * e2 * s,
        (3, 4): 1.0,
    }
    for (i, j), v in pairs.items():
        sig[i, j] = v
        sig[j, i] = -v
    return sig


def vector_field(state: ReducedState, params: SystemParams, V: Potential) -> np.ndarray:
    """Right-hand side (m1', m2', m3', q', p') of the reduced equations."""
    return rhs(state.as_array(), params, V)


def rhs(x, params: SystemParams, V: Potential):
    mu1, mu2 = params.mu1, params.mu2
    B, e1, e2 = params.B, params.e1, params.e2
    m1, m2, m3, q, p = x
    s = np.sin(q)
    c = np.cos(q)
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
    return np.array([dm1, dm2, dm3, dq, dp])


def residual(x, params: SystemParams, V: Potential) -> float:
    """Max-norm of the reduced vector field; zero at relative equilibria."""
    return float(np.max(np.abs(rhs(np.asarray(x, dtype=float), params, V))))


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
        row = ",".join(["%.15g"] * table.shape[1]) + "\n"
        return "t,m1,m2,m3,q,p,H,C\n" + "".join(row % tuple(r) for r in table.tolist())


def _casimir_projection(x, params: SystemParams, c_target: float):
    """Rescale the shifted momentum vector back onto the Casimir sphere."""
    m1, m2, m3, q, p = x
    B, e1, e2 = params.B, params.e1, params.e2
    shift2 = B * e2 * np.sin(q)
    shift3 = B * (e1 + e2 * np.cos(q))
    v1, v2, v3 = m1, m2 - shift2, m3 + shift3
    norm = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    if norm == 0:
        return x
    k = np.sqrt(c_target) / norm
    return np.array([v1 * k, v2 * k + shift2, v3 * k - shift3, q, p])


def _q_guard(x, t: float) -> None:
    if not (Q_EDGE <= x[3] <= np.pi - Q_EDGE):
        raise CollisionApproach(f"q={x[3]} left the guarded domain at t={t}")


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
    DomainError unless t_end is a whole number of steps dt, CollisionApproach
    if q leaves the guarded interval and NonFiniteState on numeric blow-up.
    """
    n_steps = step_count(t_end, dt)
    x0 = initial.as_array()
    project = None
    if project_casimir:
        c0 = casimir_array(x0, params)
        project = lambda x: _casimir_projection(x, params, c0)
    # rhs is looked up at call time, so a wrapper bound in its place sees every call
    states = rk4(lambda x: rhs(x, params, V), x0, dt, n_steps, project, _q_guard)
    return Trajectory(
        np.arange(n_steps + 1) * dt,
        states,
        hamiltonian_array(states.T, params, V),
        casimir_array(states.T, params),
        params,
        V.name,
    )
