"""Shared domain types: physical parameters, reduced states, potentials.

Everything in here is an immutable value; all functions are pure.  The
five reduced coordinates are (m1, m2, m3, q, p): the three body-frame
momentum components, the geodesic distance between the particles and its
conjugate momentum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

# Guard band keeping q away from the collision / antipodal sets, where
# csc(q) and cot(q) overflow.
Q_EDGE = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Central numerics policy.  All solvers and classifiers read from here."""

    residual: float = 1e-10        # target residual for equilibrium solvers
    record_residual: float = 1e-9  # a record above this is rejected
    eigenvalue: float = 1e-8       # eigenvalue comparison / zero-mode detection
    classify: float = 1e-10        # degeneracy band for the (a, b) stability test
    degenerate: float = 1e-12      # discriminant magnitude treated as a double root
    q_edge: float = Q_EDGE


DEFAULT_TOL = Tolerances()


class MagsphereError(Exception):
    """Base class for all domain errors."""


class DomainError(MagsphereError):
    """Input outside the admissible configuration space."""


class CollisionApproach(MagsphereError):
    """Trajectory left the guarded q-interval [eps, pi - eps]."""


class NonFiniteState(MagsphereError):
    """A coordinate became inf or nan during integration."""


class DegenerateConfiguration(MagsphereError):
    """Particles coincident or antipodal; the body frame is undefined."""


class NearRightAngle(MagsphereError):
    """q too close to pi/2 for the generic solver; use the dedicated one."""


class NoAdmissibleRoot(MagsphereError):
    """Internal assertion: the quartic produced no admissible equilibrium."""


class ResidualTooLarge(MagsphereError):
    """An operation was handed a record that is not actually an equilibrium."""


class OutsideDomain(MagsphereError):
    """Requested point outside the domain of an analytic curve."""


class DegeneratePoint(MagsphereError):
    """Restricted Hessian is singular at this record (cusp)."""


@dataclass(frozen=True)
class SystemParams:
    """Masses, charges and magnetic strength of the two-particle system.

    B may also be an array that broadcasts against a batch of states, so
    that one call of `rhs` or its derivatives covers many field strengths.
    """

    mu1: float
    mu2: float
    e1: float
    e2: float
    B: float

    def __post_init__(self):
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise DomainError(f"masses must be positive: mu1={self.mu1}, mu2={self.mu2}")
        if self.e1 == 0 or self.e2 == 0:
            raise DomainError("charges must be nonzero")

    @property
    def identical(self) -> bool:
        return self.mu1 == self.mu2 == 1.0 and self.e1 == self.e2 == 1.0


def identical_params(B: float) -> SystemParams:
    """Two identical unit-mass, unit-charge particles."""
    return SystemParams(mu1=1.0, mu2=1.0, e1=1.0, e2=1.0, B=B)


@dataclass(frozen=True)
class ReducedState:
    """Point of the reduced phase space.  Requires q in (0, pi)."""

    m1: float
    m2: float
    m3: float
    q: float
    p: float

    def __post_init__(self):
        check_q(self.q)

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3, self.q, self.p], dtype=float)

    @staticmethod
    def from_array(x) -> "ReducedState":
        m1, m2, m3, q, p = (float(v) for v in x)
        return ReducedState(m1, m2, m3, q, p)

    def replace(self, **kw) -> "ReducedState":
        return replace(self, **kw)


def check_q(q: float, eps: float = Q_EDGE) -> None:
    if not (eps <= q <= np.pi - eps):
        raise DomainError(f"q={q} outside guarded interval [{eps}, pi - {eps}]")


# How far t_end/dt may sit from a whole number of steps, relative to it.
STEP_COUNT_TOL = 1e-9


def step_count(t_end: float, dt: float) -> int:
    """Number of fixed steps of size dt that reach t_end.

    Raises DomainError unless both are positive and t_end/dt is a whole
    number to within STEP_COUNT_TOL relative: a remainder is not rounded
    away in silence.
    """
    if dt <= 0 or t_end <= 0:
        raise DomainError("dt and t_end must be positive")
    ratio = t_end / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > STEP_COUNT_TOL * ratio:
        raise DomainError(f"t_end={t_end} is not a whole number of steps dt={dt}")
    return n


def rk4(f, x0, dt: float, n_steps: int, project=None, guard=None) -> np.ndarray:
    """Classical fixed-step RK4 for x' = f(x); returns the states, shape
    (n_steps + 1,) + x0.shape, starting with x0.

    `project`, if given, maps each stage input and each new state back onto
    the constraint set (projection method, Hairer-Lubich-Wanner IV.4).  Each
    new state is checked for finiteness (NonFiniteState) and then handed to
    `guard(x, t)`, which raises if x has left the caller's domain.
    """
    x = np.asarray(x0, dtype=float)
    states = np.empty((n_steps + 1,) + x.shape)
    states[0] = x
    if project is None:
        project = _identity
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n_steps + 1):
        k1 = f(x)
        k2 = f(project(x + half * k1))
        k3 = f(project(x + half * k2))
        k4 = f(project(x + dt * k3))
        x = project(x + sixth * (k1 + 2 * k2 + 2 * k3 + k4))
        if not np.isfinite(x).all():
            raise NonFiniteState(f"non-finite state at t={i * dt}")
        if guard is not None:
            guard(x, i * dt)
        states[i] = x
    return states


def _identity(x):
    return x


@dataclass(frozen=True)
class BodyFrameVelocity:
    """Body-frame angular velocity plus the rate of change of q."""

    omega1: float
    omega2: float
    omega3: float
    qdot: float


@dataclass(frozen=True)
class Potential:
    """Inter-particle potential as a function of geodesic distance.

    `value` and `derivative` must be supplied together; `second_derivative`
    is optional (used by the linearizer; a finite-difference fallback exists).
    `analytic` marks callables that accept complex arguments, which enables
    complex-step differentiation.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    second_derivative: Optional[Callable[[float], float]] = None
    name: str = "custom"
    analytic: bool = False

    def d2(self, q: float, h: float = 1e-6) -> float:
        if self.second_derivative is not None:
            return self.second_derivative(q)
        return (self.derivative(q + h) - self.derivative(q - h)) / (2 * h)


def cot_potential(params: SystemParams) -> Potential:
    """V(q) = e1*e2*cot(q), the fundamental repelling/attracting potential."""
    k = params.e1 * params.e2

    def value(q):
        return k * np.cos(q) / np.sin(q)

    def derivative(q):
        return -k / np.sin(q) ** 2

    def second_derivative(q):
        return 2 * k * np.cos(q) / np.sin(q) ** 3

    return Potential(value, derivative, second_derivative, name="cot", analytic=True)


def table_potential(q_nodes, v_nodes) -> Potential:
    """Potential sampled on a grid, with monotone-cubic interpolation.

    Rejects tables whose interpolated derivative vanishes somewhere on the
    covered range, since the equilibrium theory assumes V'(q) != 0.
    """
    from scipy.interpolate import PchipInterpolator

    q_nodes = np.asarray(q_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    if q_nodes.ndim != 1 or q_nodes.shape != v_nodes.shape or len(q_nodes) < 4:
        raise DomainError("potential table needs two equal-length columns, >= 4 rows")
    if np.any(np.diff(q_nodes) <= 0):
        raise DomainError("potential table q-column must be strictly increasing")
    spline = PchipInterpolator(q_nodes, v_nodes)
    dspline = spline.derivative()
    probe = np.linspace(q_nodes[0], q_nodes[-1], 512)
    dprobe = dspline(probe)
    if np.min(np.abs(dprobe)) < 1e-12 or np.min(dprobe) * np.max(dprobe) <= 0:
        raise DomainError("potential table has vanishing derivative; V'(q) != 0 required")
    d2spline = spline.derivative(2)
    # [()] makes a scalar of a 0-d result and leaves arrays of states alone
    return Potential(
        value=lambda q: spline(q)[()],
        derivative=lambda q: dspline(q)[()],
        second_derivative=lambda q: d2spline(q)[()],
        name="custom-table",
        analytic=False,
    )


def reduced_to_body_velocity(state: ReducedState, params: SystemParams) -> BodyFrameVelocity:
    """Invert the Legendre relations: (m1, m2, m3, p) -> (w1, w2, w3, qdot)."""
    mu1, mu2 = params.mu1, params.mu2
    m1, m2, m3, q, p = state.m1, state.m2, state.m3, state.q, state.p
    cot = np.cos(q) / np.sin(q)
    csc2 = 1.0 / np.sin(q) ** 2
    w1 = (m1 - p) / mu1
    w2 = (m2 - m3 * cot) / mu1
    w3 = cot * (m3 * cot - m2) / mu1 + m3 * csc2 / mu2
    qdot = (p * (mu1 + mu2) - mu2 * m1) / (mu1 * mu2)
    return BodyFrameVelocity(w1, w2, w3, qdot)


def body_velocity_to_reduced(vel: BodyFrameVelocity, q: float, params: SystemParams) -> ReducedState:
    """Legendre map of the kinetic energy: (w, qdot) -> (m, p) at distance q."""
    check_q(q)
    mu1, mu2 = params.mu1, params.mu2
    w1, w2, w3, qdot = vel.omega1, vel.omega2, vel.omega3, vel.qdot
    s, c = np.sin(q), np.cos(q)
    swing = s * w3 + c * w2  # velocity of particle 2 along its latitude circle
    m1 = mu1 * w1 + mu2 * (w1 + qdot)
    m2 = mu1 * w2 + mu2 * c * swing
    m3 = mu2 * s * swing
    p = mu2 * (w1 + qdot)
    return ReducedState(m1, m2, m3, q, p)
