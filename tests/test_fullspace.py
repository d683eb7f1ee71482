import warnings

import numpy as np
import pytest

from magsphere.core import (
    CollisionApproach,
    DegenerateConfiguration,
    DomainError,
    NonFiniteState,
    Potential,
    ReducedState,
    SystemParams,
    cot_potential,
    identical_params,
)
from magsphere.fullspace import (
    FullState,
    body_frame,
    full_integrate,
    full_rhs,
    geodesic_distance,
    lift_state,
    momentum_map,
    momentum_map_array,
    one_particle_integrate,
    one_particle_rhs,
    circle_radius,
    reduce_state,
    _project,
)
from magsphere.reduced import casimir, integrate

import reference
from conftest import orbit_states

GENERAL = SystemParams(1.3, 0.7, 1.0, -2.0, 0.9)


def test_full_state_validation():
    with pytest.raises(DomainError):
        FullState([0, 0, -2], [0, 1, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(DomainError):
        FullState([0, 0, -1], [0, 1, 0], [0, 0, 1], [0, 0, 0])  # p1 not tangent
    with pytest.raises(DegenerateConfiguration):
        FullState([0, 0, -1], [0, 0, 1], [0, 0, 0], [0, 0, 0])  # antipodal


def test_geodesic_distance():
    assert geodesic_distance([0, 0, 1], [0, 1, 0]) == pytest.approx(np.pi / 2)
    assert geodesic_distance([1, 0, 0], [np.cos(0.3), np.sin(0.3), 0]) == pytest.approx(0.3)


def test_body_frame_is_rotation(rng):
    for _ in range(20):
        q1 = rng.normal(size=3)
        q1 /= np.linalg.norm(q1)
        q2 = rng.normal(size=3)
        q2 /= np.linalg.norm(q2)
        g = body_frame(q1, q2)
        assert np.allclose(g.T @ g, np.eye(3), atol=1e-12)
        assert np.linalg.det(g) == pytest.approx(1.0)
        # g carries the reference placement onto the configuration
        q = geodesic_distance(q1, q2)
        assert np.allclose(g @ [0, 0, -1], q1, atol=1e-12)
        assert np.allclose(g @ [0, np.sin(q), -np.cos(q)], q2, atol=1e-12)


def test_reduce_lift_roundtrip(rng):
    for p in (identical_params(2.5), GENERAL):
        for _ in range(30):
            s = ReducedState(*rng.uniform(-1, 1, 3), rng.uniform(0.3, 2.8), rng.uniform(-1, 1))
            back = reduce_state(lift_state(s, p), p)
            assert np.max(np.abs(back.as_array() - s.as_array())) < 1e-12


def test_momentum_map_squared_is_casimir(rng):
    for p in (identical_params(2.5), GENERAL):
        for _ in range(30):
            s = ReducedState(*rng.uniform(-1, 1, 3), rng.uniform(0.3, 2.8), rng.uniform(-1, 1))
            phi = momentum_map(lift_state(s, p), p)
            assert float(phi @ phi) == pytest.approx(casimir(s, p), rel=1e-12)


def test_constraint_forces_preserve_sphere(params, V):
    s = ReducedState(0.05, -0.1, 0.12, 1.5, 0.03)
    full = lift_state(s, params)
    dy = full_rhs(full.as_array(), params, V)
    # d|q_i|^2/dt = 0 and d(q_i . p_i)/dt = 0
    y = full.as_array()
    for qi, pi in ((0, 6), (3, 9)):
        assert abs(y[qi:qi + 3] @ dy[qi:qi + 3]) < 1e-14
        assert abs(y[qi:qi + 3] @ dy[pi:pi + 3] + dy[qi:qi + 3] @ y[pi:pi + 3]) < 1e-14


def test_full_integration_conserves_momentum(params, V):
    from magsphere.equilibria import type2

    rec = type2(1.8, params.B)[0]
    s = rec.state.replace(m1=0.02, m2=rec.state.m2 + 0.03, p=0.01)
    traj = full_integrate(lift_state(s, params), params, V, t_end=5.0, dt=1e-3)
    assert traj.phi_drift.max() < 1e-10


def test_full_reduces_to_reduced_trajectory(params, V):
    s = ReducedState(0.05, -0.1, 0.12, 1.5, 0.03)
    red = integrate(s, params, V, t_end=2.0, dt=1e-3)
    full = full_integrate(lift_state(s, params), params, V, t_end=2.0, dt=1e-3)
    end = reduce_state(FullState.from_array(full.states[-1]), params)
    assert np.max(np.abs(end.as_array() - red.states[-1])) < 1e-8


def test_one_particle_circle_law(rng):
    """A free charged particle moves on a circle of radius
    r^2 = mu^2 |v|^2 / (B^2 e^2 + mu^2 |v|^2)."""
    for _ in range(10):
        mu = rng.uniform(0.5, 2.0)
        e = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        B = rng.uniform(0.5, 4.0)
        x0 = rng.normal(size=3)
        v0 = rng.normal(size=3)
        _, states = one_particle_integrate(x0, v0, mu, e, B, t_end=3.0, dt=1e-3)
        v = np.linalg.norm(states[0, 3:6] / mu)
        expected = mu**2 * v**2 / (B**2 * e**2 + mu**2 * v**2)
        assert circle_radius(states, mu, e, B) ** 2 == pytest.approx(expected, rel=1e-8)


def test_full_csv_header(params, V):
    s = ReducedState(0, 0.05, 0, 1.4, 0)
    traj = full_integrate(lift_state(s, params), params, V, t_end=0.05, dt=1e-2)
    header = traj.to_csv().splitlines()[0]
    assert header.startswith("t,q1x,q1y,q1z,q2x") and header.endswith("phix,phiy,phiz")


# ---------------------------------------------------------------------------
# component-wise kernels against the np.cross / np.linalg.norm formulas they
# replaced, kept here as the reference
# ---------------------------------------------------------------------------

def _ref_geodesic_distance(q1, q2):
    return np.arctan2(np.linalg.norm(np.cross(q1, q2)), np.dot(q1, q2))


def _ref_momentum_map(y, params):
    q1, q2, p1, p2 = y[0:3], y[3:6], y[6:9], y[9:12]
    return -params.B * (params.e1 * q1 + params.e2 * q2) + np.cross(q1, p1) + np.cross(q2, p2)


def _ref_full_rhs(y, params, V):
    q1, q2, p1, p2 = y[0:3], y[3:6], y[6:9], y[9:12]
    mu1, mu2, e1, e2, B = params.mu1, params.mu2, params.e1, params.e2, params.B
    v1, v2 = p1 / mu1, p2 / mu2
    q = _ref_geodesic_distance(q1, q2)
    dV = V.derivative(q)
    f1 = dV * (q2 - np.cos(q) * q1) / np.sin(q)
    f2 = dV * (q1 - np.cos(q) * q2) / np.sin(q)
    dp1 = f1 + e1 * B * np.cross(v1, q1) - mu1 * (v1 @ v1) * q1
    dp2 = f2 + e2 * B * np.cross(v2, q2) - mu2 * (v2 @ v2) * q2
    return np.concatenate([v1, v2, dp1, dp2])


def _ref_project(y):
    out = y.copy()
    for qi, pi in ((0, 6), (3, 9)):
        q = out[qi : qi + 3]
        q /= np.linalg.norm(q)
        p = out[pi : pi + 3]
        p -= (p @ q) * q
    return out


def _ref_one_particle_rhs(y, mu, e, B):
    x, p = y[0:3], y[3:6]
    v = p / mu
    return np.concatenate([v, e * B * np.cross(v, x) - mu * (v @ v) * x])


def _random_full_states(rng, n):
    """(12, n) states near the sphere: unit positions, tangent momenta."""
    q1, q2 = (v / np.linalg.norm(v, axis=0) for v in rng.normal(size=(2, 3, n)))
    p1, p2 = rng.normal(size=(2, 3, n))
    p1 -= np.sum(p1 * q1, axis=0) * q1
    p2 -= np.sum(p2 * q2, axis=0) * q2
    return np.concatenate([q1, q2, p1, p2])


def _rel(new, ref):
    """Max difference relative to the largest reference component."""
    return np.max(np.abs(new - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("p", [identical_params(2.5), GENERAL])
def test_componentwise_kernels_match_cross_product_formulas(rng, p):
    V = cot_potential(p)
    Y = _random_full_states(rng, 200)
    raw = Y + rng.normal(scale=0.3, size=Y.shape)   # off the sphere and its tangent planes
    batch = {
        "full_rhs": (np.array(full_rhs(Y, p, V)), lambda y: _ref_full_rhs(y, p, V), Y),
        "project": (np.array(_project(raw)), _ref_project, raw),
        "phi": (momentum_map_array(Y, p), lambda y: _ref_momentum_map(y, p), Y),
        "distance": (geodesic_distance(Y[0:3], Y[3:6]),
                     lambda y: _ref_geodesic_distance(y[0:3], y[3:6]), Y),
    }
    for name, (new, ref_fn, inputs) in batch.items():
        for j in range(inputs.shape[1]):
            ref = ref_fn(inputs[:, j])
            assert _rel(new[..., j], ref) < 1e-14, name
    for j in range(20):
        y = Y[:, j]
        assert _rel(full_rhs(y, p, V), _ref_full_rhs(y, p, V)) < 1e-14
        assert _rel(_project(raw[:, j]), _ref_project(raw[:, j])) < 1e-14
        assert _rel(geodesic_distance(y[0:3], y[3:6]), _ref_geodesic_distance(y[0:3], y[3:6])) < 1e-14
        phi = momentum_map(FullState.from_array(y), p)
        assert _rel(phi, _ref_momentum_map(y, p)) < 1e-14


def test_full_integrate_equals_reference_rk4(rng):
    """`full_integrate` gives the states of the reference RK4 loop under
    the reference projection, bit for bit, from lifted `orbits` states;
    `_project` alone gives that projection's floats on states off the sphere."""
    p = identical_params(2.5)
    V = cot_potential(p)
    for x in orbit_states(rng, 3):
        y0 = lift_state(ReducedState.from_array(x), p).as_array()
        full = full_integrate(FullState.from_array(y0), p, V, t_end=0.1, dt=1e-3)
        want = reference.rk4(lambda y: full_rhs(y, p, V), y0, 1e-3, 100, reference.project)
        assert np.array_equal(full.states, want)
    raw = _random_full_states(rng, 20) + rng.normal(scale=0.3, size=(12, 20))
    for y in raw.T.tolist():
        assert _project(y) == reference.project(y)


def test_one_particle_integrate_equals_reference_rk4(rng):
    """`one_particle_integrate` gives the reference RK4 loop's states under
    the reference projection, bit for bit, from points off the sphere."""
    for _ in range(3):
        mu, e, B = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)
        x0, v0 = rng.normal(size=3), rng.normal(size=3)
        _, states = one_particle_integrate(x0, v0, mu, e, B, t_end=0.5, dt=1e-3)
        y0 = reference.project(np.concatenate([x0, mu * v0]))
        want = reference.rk4(lambda y: one_particle_rhs(y, mu, e, B), y0, 1e-3, 500,
                             reference.project)
        assert np.array_equal(states, want)


def test_one_particle_rhs_matches_cross_product_formula(rng):
    for _ in range(20):
        y = _random_full_states(rng, 1)[[0, 1, 2, 6, 7, 8], 0]
        mu, e, B = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)
        assert _rel(one_particle_rhs(y, mu, e, B), _ref_one_particle_rhs(y, mu, e, B)) < 1e-14


def test_full_integrate_non_finite_state(params):
    """A NaN force is reported as NonFiniteState at the first step, before
    the distance guard sees the NaN state."""
    nan = Potential(value=lambda q: q * np.nan, derivative=lambda q: q * np.nan,
                    second=lambda q: q * np.nan, name="nan")
    s = ReducedState(0.05, -0.1, 0.12, 1.5, 0.03)
    with pytest.raises(NonFiniteState, match=r"non-finite state at t=0\.001$"):
        full_integrate(lift_state(s, params), params, nan, t_end=0.01, dt=1e-3)


def test_full_integrate_collision_guard():
    """Two force-free particles run head-on along one great circle and meet
    at t = 0.25; the distance guard stops the run at that step."""
    free = Potential(value=lambda q: 0.0 * q, derivative=lambda q: 0.0 * q,
                     second=lambda q: 0.0 * q, name="free")
    p = SystemParams(1, 1, 1, 1, 0.0)
    a = 0.25
    s, c = np.sin(a), np.cos(a)
    start = FullState([0, -s, -c], [0, s, -c], [0, c, -s], [0, -c, -s])
    with pytest.raises(CollisionApproach, match=r"^geodesic distance \S+ left guarded domain at t=0\.25$"):
        full_integrate(start, p, free, t_end=1.0, dt=1e-2)


@pytest.mark.parametrize(
    "theta, omega",
    [((-0.255, 0.255), (1, -1)), ((0.255 - np.pi / 2, np.pi / 2 - 0.255), (-1, 1))],
    ids=["collision", "antipodal"],
)
def test_full_integrate_catches_a_pass_within_one_step(theta, omega):
    """Two force-free particles on one great circle meet (or reach antipodal
    placement) at t = 0.255, between the steps at 0.25 and 0.26, where the
    distance is 0.01 from the edge on either side: only the reversal of
    q1 x q2 shows the pass."""
    free = Potential(value=lambda q: 0.0 * q, derivative=lambda q: 0.0 * q,
                     second=lambda q: 0.0 * q, name="free")
    p = SystemParams(1, 1, 1, 1, 0.0)
    x = [[0, np.sin(a), -np.cos(a)] for a in theta]
    v = [[0, w * np.cos(a), w * np.sin(a)] for a, w in zip(theta, omega)]
    start = FullState(x[0], x[1], v[0], v[1])
    with pytest.raises(CollisionApproach, match=r"^orientation q1 x q2 reversed at t=0\.26: "):
        full_integrate(start, p, free, t_end=1.0, dt=1e-2)
    assert full_integrate(start, p, free, t_end=0.25, dt=1e-2).states.shape == (26, 12)


@pytest.mark.parametrize("t_end, dt", [(0.1005, 1e-2), (1.0, 0.3), (1e-3, 1e-2)])
def test_full_integrators_reject_a_partial_step(params, V, t_end, dt):
    full = lift_state(ReducedState(0.05, -0.1, 0.12, 1.5, 0.03), params)
    with pytest.raises(DomainError, match="whole number of steps"):
        full_integrate(full, params, V, t_end=t_end, dt=dt)
    with pytest.raises(DomainError, match="whole number of steps"):
        one_particle_integrate([0, 0, 1], [1, 0, 0], 1.0, 1.0, 2.0, t_end=t_end, dt=dt)


@pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_one_particle_integrate_rejects_a_position_it_cannot_project(x0):
    """A zero or non-finite initial position is a DomainError before any
    step, where it used to divide 0/0 and fail as NonFiniteState at t=dt."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="initial position"):
            one_particle_integrate(x0, [1.0, 0.0, 0.0], 1.0, 1.0, 1.0, 0.01, 1e-3)
