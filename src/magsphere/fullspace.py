"""Unreduced dynamics of one and two charged particles on the unit sphere.

This module is the oracle side of the build: everything here is phrased in
ambient 3-space with constraint forces, and is used to cross-validate the
reduced system.  The magnetic field is radial with uniform magnitude B, so
the Lorentz force on a particle at position x with velocity v is
e * B * (v x x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BodyFrameVelocity,
    CollisionApproach,
    DegenerateConfiguration,
    DomainError,
    NonFiniteState,
    Potential,
    Q_EDGE,
    ReducedState,
    SystemParams,
    body_velocity_to_reduced,
    csv_text,
    mathlib,
    reduced_to_body_velocity,
    rk4,
    step_count,
)

_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class FullState:
    """Positions and momenta of both particles in ambient coordinates."""

    q1: np.ndarray
    q2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        for name in ("q1", "q2", "p1", "p2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if abs(np.linalg.norm(self.q1) - 1) > _UNIT_TOL or abs(np.linalg.norm(self.q2) - 1) > _UNIT_TOL:
            raise DomainError("positions must lie on the unit sphere")
        if abs(self.q1 @ self.p1) > _UNIT_TOL or abs(self.q2 @ self.p2) > _UNIT_TOL:
            raise DomainError("momenta must be tangent to the sphere")
        if np.linalg.norm(np.cross(self.q1, self.q2)) < 1e-12:
            raise DegenerateConfiguration("particles coincident or antipodal")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q1, self.q2, self.p1, self.p2])

    @staticmethod
    def from_array(y) -> "FullState":
        y = np.asarray(y, dtype=float)
        return FullState(y[0:3], y[3:6], y[6:9], y[9:12])


def _cross_and_distance(q1, q2):
    """q1 x q2 as a tuple of components, and the angle between q1 and q2;
    the components are floats or arrays with a trailing batch axis."""
    ax, ay, az = q1
    bx, by, bz = q2
    c = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    sin2 = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
    # numpy's atan2 on floats too: math.atan2 differs in the last bit on 8% of
    # inputs (numpy 2.4, AVX-512), and one state must give what a batch gives
    return c, np.arctan2(mathlib(sin2).sqrt(sin2), ax * bx + ay * by + az * bz)


def geodesic_distance(q1, q2):
    """Angle between two position vectors of float or array components."""
    return _cross_and_distance(q1, q2)[1]


def momentum_map_array(y, params: SystemParams):
    """Conserved momentum -B (e1 q1 + e2 q2) + q1 x p1 + q2 x p2 of a full
    state array, shape (12,) or (12, ...); returns shape (3,) or (3, ...)."""
    q1x, q1y, q1z, q2x, q2y, q2z, p1x, p1y, p1z, p2x, p2y, p2z = y
    b1, b2 = params.B * params.e1, params.B * params.e2
    return np.array(
        [
            -(b1 * q1x + b2 * q2x) + (q1y * p1z - q1z * p1y) + (q2y * p2z - q2z * p2y),
            -(b1 * q1y + b2 * q2y) + (q1z * p1x - q1x * p1z) + (q2z * p2x - q2x * p2z),
            -(b1 * q1z + b2 * q2z) + (q1x * p1y - q1y * p1x) + (q2x * p2y - q2y * p2x),
        ]
    )


def momentum_map(state: FullState, params: SystemParams) -> np.ndarray:
    """The momentum map of a full state, shape (3,)."""
    return momentum_map_array(state.as_array(), params)


def full_rhs(y, params: SystemParams, V: Potential):
    """Newtonian equations with Lorentz, inter-particle and constraint forces.

    y has 12 float or array components, positions q1, q2 then momenta p1,
    p2; returns y' as a tuple."""
    q1x, q1y, q1z, q2x, q2y, q2z, p1x, p1y, p1z, p2x, p2y, p2z = y
    mu1, mu2, e1, e2, B = params.mu1, params.mu2, params.e1, params.e2, params.B
    v1x, v1y, v1z = p1x / mu1, p1y / mu1, p1z / mu1
    v2x, v2y, v2z = p2x / mu2, p2y / mu2, p2z / mu2

    q = geodesic_distance((q1x, q1y, q1z), (q2x, q2y, q2z))
    m = mathlib(q)
    cos_q = m.cos(q)
    # tangential gradient of the geodesic distance at each particle, times V'
    g = V.derivative(q) / m.sin(q)

    # Lorentz force e B (v x q); Lagrange multipliers keep q_i . v_i = 0
    b1, b2 = e1 * B, e2 * B
    lam1 = -mu1 * (v1x * v1x + v1y * v1y + v1z * v1z)
    lam2 = -mu2 * (v2x * v2x + v2y * v2y + v2z * v2z)
    return (
        v1x, v1y, v1z,
        v2x, v2y, v2z,
        g * (q2x - cos_q * q1x) + b1 * (v1y * q1z - v1z * q1y) + lam1 * q1x,
        g * (q2y - cos_q * q1y) + b1 * (v1z * q1x - v1x * q1z) + lam1 * q1y,
        g * (q2z - cos_q * q1z) + b1 * (v1x * q1y - v1y * q1x) + lam1 * q1z,
        g * (q1x - cos_q * q2x) + b2 * (v2y * q2z - v2z * q2y) + lam2 * q2x,
        g * (q1y - cos_q * q2y) + b2 * (v2z * q2x - v2x * q2z) + lam2 * q2y,
        g * (q1z - cos_q * q2z) + b2 * (v2x * q2y - v2y * q2x) + lam2 * q2z,
    )


def _on_sphere(y):
    """One particle y = (x, p), six floats or arrays: x scaled onto the unit
    sphere, then the component of p along it removed; returns a tuple."""
    qx, qy, qz, px, py, pz = y
    r2 = qx * qx + qy * qy + qz * qz
    r = mathlib(r2).sqrt(r2)
    qx, qy, qz = qx / r, qy / r, qz / r
    d = px * qx + py * qy + pz * qz
    return qx, qy, qz, px - d * qx, py - d * qy, pz - d * qz


def _project(y):
    """`_on_sphere` for both particles of a full state y = (q1, q2, p1, p2),
    12 floats or arrays; returns a tuple."""
    q1x, q1y, q1z, q2x, q2y, q2z, p1x, p1y, p1z, p2x, p2y, p2z = y
    q1x, q1y, q1z, p1x, p1y, p1z = _on_sphere((q1x, q1y, q1z, p1x, p1y, p1z))
    q2x, q2y, q2z, p2x, p2y, p2z = _on_sphere((q2x, q2y, q2z, p2x, p2y, p2z))
    return q1x, q1y, q1z, q2x, q2y, q2z, p1x, p1y, p1z, p2x, p2y, p2z


@dataclass(frozen=True)
class FullTrajectory:
    times: np.ndarray
    states: np.ndarray            # shape (n, 12)
    phi: np.ndarray               # shape (n, 3)
    params: SystemParams

    @property
    def phi_drift(self) -> np.ndarray:
        return np.max(np.abs(self.phi - self.phi[0]), axis=1)

    def to_csv(self) -> str:
        cols = [f"{v}{i}{a}" for v in ("q", "p") for i in (1, 2) for a in "xyz"]
        table = np.column_stack([self.times, self.states, self.phi])
        return csv_text(["t", *cols, "phix", "phiy", "phiz"], table.tolist())


def _distance_guard(y0, V: Potential):
    """The guard of a run from y0 under V.  It raises CollisionApproach when
    the geodesic distance leaves [Q_EDGE, pi - Q_EDGE], and also when the
    orientation q1 x q2 reverses from one step to the next: the particles
    then passed through collision or antipodal placement within the step.
    It raises DomainError when the distance leaves `V.q_range`.  A step
    tests the distance once, against the intersection of the two ranges."""
    last = _cross_and_distance(y0[0:3], y0[3:6])[0]
    lo, hi = V.q_range
    a, b = max(lo, Q_EDGE), min(hi, np.pi - Q_EDGE)

    def guard(y, t: float) -> None:
        nonlocal last
        c, q = _cross_and_distance(y[0:3], y[3:6])
        if not a <= q <= b:
            if Q_EDGE <= q <= np.pi - Q_EDGE:
                raise DomainError(
                    f"geodesic distance {q} left the potential table [{lo}, {hi}] at t={t}")
            raise CollisionApproach(f"geodesic distance {q} left guarded domain at t={t}")
        if c[0] * last[0] + c[1] * last[1] + c[2] * last[2] < 0:
            raise CollisionApproach(
                f"orientation q1 x q2 reversed at t={t}: the particles passed through "
                "collision or antipodal placement within the step"
            )
        last = c

    return guard


def full_integrate(
    initial: FullState,
    params: SystemParams,
    V: Potential,
    t_end: float,
    dt: float,
) -> FullTrajectory:
    """RK4 (`core.rk4`) with projection of every stage and step onto the
    sphere and its tangent planes; the momentum map is taken on the stored
    trajectory.  Raises DomainError unless t_end is a whole number of steps
    dt or if the distance leaves `V.q_range`, CollisionApproach if the
    particles come within Q_EDGE of collision or of antipodal placement or
    pass through either within a step, and NonFiniteState on numeric blow-up."""
    n_steps = step_count(t_end, dt)
    y0 = initial.as_array()
    # full_rhs is looked up at call time, so a wrapper bound in its place sees every call
    states = rk4(lambda y: full_rhs(y, params, V), y0, dt, n_steps, _project, _distance_guard(y0, V))
    phi = momentum_map_array(states.T, params).T
    return FullTrajectory(np.arange(n_steps + 1) * dt, states, phi, params)


def body_frame(q1, q2) -> np.ndarray:
    """Rotation g carrying the reference placement onto (q1, q2).

    Reference: particle 1 at (0,0,-1), particle 2 at (0, sin q, -cos q).
    Built directly from the two position vectors; no Euler angles.
    """
    q = geodesic_distance(q1, q2)
    if not (Q_EDGE <= q <= np.pi - Q_EDGE):
        raise DegenerateConfiguration("particles coincident or antipodal")
    e3 = -np.asarray(q1, dtype=float)
    e2 = (np.asarray(q2, dtype=float) + np.cos(q) * e3) / np.sin(q)
    e1 = np.cross(e2, e3)
    return np.column_stack([e1, e2, e3])


def reduce_state(state: FullState, params: SystemParams) -> ReducedState:
    """Quotient a full state by the rotation group.

    Finds the body frame, pulls the velocities back, extracts the angular
    velocity and qdot, and applies the kinetic-energy Legendre map.
    """
    q = geodesic_distance(state.q1, state.q2)
    g = body_frame(state.q1, state.q2)
    u1 = g.T @ (state.p1 / params.mu1)
    u2 = g.T @ (state.p2 / params.mu2)
    s, c = np.sin(q), np.cos(q)
    # u1 = w x (0,0,-1) = (-w2, w1, 0)
    w1 = u1[1]
    w2 = -u1[0]
    # u2 = w x (0, s, -c) + (0, c, s) qdot
    w3 = (-u2[0] - w2 * c) / s
    # both remaining components carry w1 + qdot; combine for conditioning
    w1_plus_qdot = (c * u2[1] + s * u2[2])
    qdot = w1_plus_qdot - w1
    vel = BodyFrameVelocity(w1, w2, w3, qdot)
    return body_velocity_to_reduced(vel, q, params)


def lift_state(state: ReducedState, params: SystemParams) -> FullState:
    """Embed a reduced state at the reference placement (g = identity)."""
    vel = reduced_to_body_velocity(state, params)
    q = state.q
    s, c = np.sin(q), np.cos(q)
    x1 = np.array([0.0, 0.0, -1.0])
    x2 = np.array([0.0, s, -c])
    w = np.array([vel.omega1, vel.omega2, vel.omega3])
    v1 = np.cross(w, x1)
    v2 = np.cross(w, x2) + np.array([0.0, c, s]) * vel.qdot
    return FullState(x1, x2, params.mu1 * v1, params.mu2 * v2)


def one_particle_rhs(y, mu: float, e: float, B: float):
    """Free charged particle: y = (x, p), six components, floats or arrays;
    returns y' as a tuple."""
    x1, x2, x3, p1, p2, p3 = y
    v1, v2, v3 = p1 / mu, p2 / mu, p3 / mu
    eB = e * B
    lam = -mu * (v1 * v1 + v2 * v2 + v3 * v3)
    return (
        v1, v2, v3,
        eB * (v2 * x3 - v3 * x2) + lam * x1,
        eB * (v3 * x1 - v1 * x3) + lam * x2,
        eB * (v1 * x2 - v2 * x1) + lam * x3,
    )


def one_particle_integrate(x0, v0, mu: float, e: float, B: float, t_end: float, dt: float):
    """Free charged particle on the sphere; returns (times, states(n, 6)).
    Raises DomainError unless t_end is a whole number of steps dt."""
    n_steps = step_count(t_end, dt)
    y0 = np.concatenate([np.asarray(x0, dtype=float), mu * np.asarray(v0, dtype=float)])
    states = rk4(lambda y: one_particle_rhs(y, mu, e, B), _on_sphere(y0), dt, n_steps, _on_sphere)
    return np.arange(n_steps + 1) * dt, states


def circle_radius(states, mu: float, e: float, B: float) -> float:
    """Euclidean radius of a one-particle orbit, extracted from its conserved
    momentum value: the orbit lies on the cone x . phi = const."""
    x, p = states[0, 0:3], states[0, 3:6]
    phi = -e * B * x + np.cross(x, p)
    n = phi / np.linalg.norm(phi)
    cos_alpha = states[:, 0:3] @ n
    if np.max(np.abs(cos_alpha - cos_alpha[0])) > 1e-7:
        raise NonFiniteState("orbit does not stay on a cone; not a circle")
    return float(np.sqrt(1.0 - cos_alpha[0] ** 2))
