"""Shared domain types: physical parameters, reduced states, potentials.

Everything in here is an immutable value; all functions are pure.  The
five reduced coordinates are (m1, m2, m3, q, p): the three body-frame
momentum components, the geodesic distance between the particles and its
conjugate momentum.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# Guard band keeping q away from the collision / antipodal sets, where
# csc(q) and cot(q) overflow.
Q_EDGE = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Central numerics policy.  All solvers and classifiers read from here."""

    record_residual: float = 1e-9  # a record is kept only below this
    eigenvalue: float = 1e-8       # eigenvalue comparison / zero-mode detection
    classify: float = 1e-10        # degeneracy band for the (a, b) stability test
    degenerate: float = 1e-12      # discriminant magnitude treated as a double root


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


@dataclass(frozen=True)
class SystemParams:
    """Masses, charges and magnetic strength of the two-particle system.

    B may also be an array that broadcasts against a batch of states, so
    that one call of `rhs` or its derivatives covers many field strengths.
    Every field must be finite; the scalar ones are stored as Python floats,
    so that the float kernels do float arithmetic on them.
    """

    mu1: float
    mu2: float
    e1: float
    e2: float
    B: float

    def __post_init__(self):
        array_B = np.ndim(self.B) > 0
        for name in ("mu1", "mu2", "e1", "e2") + (() if array_B else ("B",)):
            object.__setattr__(self, name, float(getattr(self, name)))
        finite_B = np.isfinite(self.B).all() if array_B else math.isfinite(self.B)
        if not (finite_B and all(map(math.isfinite, (self.mu1, self.mu2, self.e1, self.e2)))):
            raise DomainError(f"parameters must be finite: {self}")
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


def mathlib(x):
    """`math` for a real scalar x (numpy float64 included), else numpy: the
    kernels' sin, cos and sqrt, so one source serves floats and arrays."""
    return math if isinstance(x, float) else np


_RK4_STEPS: dict = {}     # (state length, projected) -> step, built on first use


def _rk4_step(n: int, projected: bool):
    """`step(f, project, x, half, dt, sixth)`: one RK4 step on n-tuples, with
    each stage input and the new state written out as one tuple expression
    (a generator over zip costs three to four times as much), in the order
    of x + h k and x + sixth (k1 + 2 k2 + 2 k3 + k4).  `project` maps each
    of them when `projected` and is not called otherwise."""
    if (n, projected) not in _RK4_STEPS:
        x, k1, k2, k3, k4 = ([f"{v}{i}" for i in range(n)] for v in "xabcd")
        tup = ("project(({},))" if projected else "({},)").format
        stage = lambda h, k: tup(", ".join(f"{a} + {h} * {b}" for a, b in zip(x, k)))
        end = tup(", ".join(f"{a} + sixth * ({b} + 2 * {c} + 2 * {d} + {e})"
                            for a, b, c, d, e in zip(x, k1, k2, k3, k4)))
        namespace: dict = {}
        exec(f"def step(f, project, x, half, dt, sixth):\n"
             f"    {', '.join(x)}, = x\n"
             f"    {', '.join(k1)}, = f(x)\n"
             f"    {', '.join(k2)}, = f({stage('half', k1)})\n"
             f"    {', '.join(k3)}, = f({stage('half', k2)})\n"
             f"    {', '.join(k4)}, = f({stage('dt', k3)})\n"
             f"    return {end}\n", namespace)
        _RK4_STEPS[n, projected] = namespace["step"]
    return _RK4_STEPS[n, projected]


def rk4(f, x0, dt: float, n_steps: int, project=None, guard=None) -> np.ndarray:
    """Classical fixed-step RK4 for x' = f(x) from one state x0, carried as
    a tuple of floats that f and `project` take and return; returns the
    states, shape (n_steps + 1, len(x0)), starting with x0.

    `project`, if given, maps each stage input and each new state back onto
    the constraint set (projection method, Hairer-Lubich-Wanner IV.4).  Each
    new state is checked for finiteness (NonFiniteState) and then handed to
    `guard(x, t)`, which raises if x has left the caller's domain.
    """
    x = tuple(np.asarray(x0, dtype=float).tolist())
    states = array("d", x)              # 8 bytes a component, no float objects kept
    step = _rk4_step(len(x), project is not None)
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n_steps + 1):
        try:
            x = step(f, project, x, half, dt, sixth)
        except (ArithmeticError, ValueError) as exc:
            # float arithmetic raises (x / 0, math.sin(inf)) where numpy gives inf or nan
            raise NonFiniteState(f"non-finite state at t={i * dt}") from exc
        if not all(map(math.isfinite, x)):
            raise NonFiniteState(f"non-finite state at t={i * dt}")
        if guard is not None:
            guard(x, i * dt)
        states.extend(x)
    return np.frombuffer(states).reshape(n_steps + 1, len(x))


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

    `value`, `derivative` and `second` (V, V' and V'') must be supplied
    together.  `analytic` marks the closed-form `cot`; nothing in the
    library reads it.  `q_range` is where V is defined: all of [0, pi], or
    the nodes [q_0, q_n] of a table.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    second: Callable[[float], float]
    name: str = "custom"
    analytic: bool = False
    q_range: tuple[float, float] = (0.0, math.pi)


def cot_potential(params: SystemParams) -> Potential:
    """V(q) = e1*e2*cot(q), the fundamental repelling/attracting potential."""
    k = params.e1 * params.e2

    def value(q):
        m = mathlib(q)
        return k * m.cos(q) / m.sin(q)

    def derivative(q):
        s = mathlib(q).sin(q)
        return -k / (s * s)

    def second(q):
        m = mathlib(q)
        s = m.sin(q)
        return 2 * k * m.cos(q) / (s * s * s)

    return Potential(value, derivative, second, name="cot", analytic=True)


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Node derivatives of the monotone cubic with interval widths h and
    secant slopes m, n >= 3 nodes: the Fritsch-Butland rule of
    `PchipInterpolator`, operation for operation.  Inside, the weighted
    harmonic mean of the two secants, or 0 where they change sign or one
    vanishes; at each end, the one-sided three-point slope, kept to the
    shape of the data."""
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.empty(len(m) + 1)
    d[1:-1] = np.where(flat, 0.0, inner)
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _end_slope(h0, h1, m0, m1) -> float:
    """One-sided slope at an end node with secants m0 (end interval, width
    h0) and m1 (next one in): 0 if its sign differs from m0's, 3 m0 if the
    secants change sign and it is steeper than that (Moler, Numerical
    Computing with MATLAB, 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y):
    """V, V' and V'' of the monotone cubic through (x, y), each taking a
    float (returns a float) or an array.  All three continue the end cubics
    outside [x[0], x[-1]], as `PchipInterpolator` does by default.

    Each interval holds the power-basis coefficients of `CubicHermiteSpline`,
    and the powers of q - x[i] are summed in the order of `PPoly`, so that
    the values can match `PchipInterpolator` and its derivatives to the
    last bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    d = _pchip_slopes(h, m)
    t = (d[:-1] + d[1:] - 2 * m) / h
    cubic = np.array([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])   # powers 3..0
    slope = np.array([3.0 * cubic[0], 2.0 * cubic[1], cubic[2]])     # powers 2..0
    # q lies in interval i when i inner nodes are <= q: x[i] <= q < x[i + 1]
    # inside, and the end cubics continue beyond the end nodes
    inner = x[1:-1]
    nodes, inner_list = x.tolist(), inner.tolist()
    cubic_rows, slope_rows = cubic.T.tolist(), slope.T.tolist()

    def piece(q, coef, rows):
        """q - x[i] and the coefficients of the interval i that q falls in."""
        if isinstance(q, float):
            i = bisect_right(inner_list, q)
            return float(q) - nodes[i], rows[i]
        i = np.searchsorted(inner, q, side="right")
        return q - x[i], coef[:, i]

    def value(q):
        s, (a3, a2, a1, a0) = piece(q, cubic, cubic_rows)
        return a0 + a1 * s + a2 * (s * s) + a3 * (s * s * s)

    def derivative(q):
        s, (a2, a1, a0) = piece(q, slope, slope_rows)
        return a0 + a1 * s + a2 * (s * s)

    def second(q):                  # 2 * 3 a3 is 6 a3 exactly, as PPoly scales it
        s, (a2, a1, _) = piece(q, slope, slope_rows)
        return a1 + 2.0 * a2 * s

    return value, derivative, second


def table_potential(q_nodes, v_nodes) -> Potential:
    """Potential sampled on a grid, with monotone-cubic interpolation (`pchip`),
    defined on the nodes' range [q_0, q_n] (its `q_range`).

    Rejects tables whose interpolated derivative vanishes somewhere on the
    covered range, since the equilibrium theory assumes V'(q) != 0.
    """
    q_nodes = np.asarray(q_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    if q_nodes.ndim != 1 or q_nodes.shape != v_nodes.shape or len(q_nodes) < 4:
        raise DomainError("potential table needs two equal-length columns, >= 4 rows")
    if not (np.isfinite(q_nodes).all() and np.isfinite(v_nodes).all()):
        raise DomainError("potential table must hold finite numbers")
    if np.any(np.diff(q_nodes) <= 0):
        raise DomainError("potential table q-column must be strictly increasing")
    value, derivative, second = pchip(q_nodes, v_nodes)
    probe = np.linspace(q_nodes[0], q_nodes[-1], 512)
    dprobe = derivative(probe)
    if np.min(np.abs(dprobe)) < 1e-12 or np.min(dprobe) * np.max(dprobe) <= 0:
        raise DomainError("potential table has vanishing derivative; V'(q) != 0 required")
    q_range = (float(q_nodes[0]), float(q_nodes[-1]))
    return Potential(value, derivative, second, name="custom-table", q_range=q_range)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence],
             metadata: Optional[dict] = None) -> str:
    """The one CSV writer: an optional `# k=v ...` metadata line, the header,
    then one line per row.  One `%` row template serves the whole table,
    `%s` for a column whose first value is a str and `%.15g` for any other,
    which writes a float, numpy float, int or bool as f"{v:.15g}" does."""
    head = ",".join(columns) + "\n"
    if metadata is not None:
        head = "# " + " ".join(f"{k}={v}" for k, v in metadata.items()) + "\n" + head
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return head
    template = ",".join("%s" if isinstance(v, str) else "%.15g" for v in first) + "\n"
    return head + "".join([template % tuple(r) for r in chain([first], rows)])


def kinetic_gradient(x, params: SystemParams):
    """Gradient of the kinetic energy at x = (m1, m2, m3, q, p), as floats or
    arrays.  Its (m1, m2, m3, p)-components are the body velocities (w1, w2,
    w3, qdot), the Legendre map; `reduced.grad_hamiltonian` adds V'(q) to the
    q-component, and `reduced.hessian_hamiltonian` is its derivative."""
    mu1, mu2 = params.mu1, params.mu2
    m1, m2, m3, q, p = x
    m = mathlib(q)
    s = m.sin(q)
    cot = m.cos(q) / s
    csc2 = 1.0 / (s * s)
    w1 = (m1 - p) / mu1
    w2 = (m2 - m3 * cot) / mu1
    w3 = cot * (m3 * cot - m2) / mu1 + m3 * csc2 / mu2
    dq = m3 * csc2 * (mu2 * m2 - (mu1 + mu2) * m3 * cot) / (mu1 * mu2)
    qdot = (p * (mu1 + mu2) - mu2 * m1) / (mu1 * mu2)
    return w1, w2, w3, dq, qdot


def reduced_to_body_velocity(state: ReducedState, params: SystemParams) -> BodyFrameVelocity:
    """Invert the Legendre relations: (m1, m2, m3, p) -> (w1, w2, w3, qdot)."""
    w1, w2, w3, _, qdot = kinetic_gradient(
        (state.m1, state.m2, state.m3, state.q, state.p), params)
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
