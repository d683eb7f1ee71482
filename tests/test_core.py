import numpy as np
import pytest

from magsphere.core import (
    BodyFrameVelocity,
    DomainError,
    ReducedState,
    SystemParams,
    body_velocity_to_reduced,
    cot_potential,
    identical_params,
    kinetic_gradient,
    reduced_to_body_velocity,
    table_potential,
)


def test_params_validation():
    with pytest.raises(DomainError):
        SystemParams(-1.0, 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        SystemParams(1.0, 1.0, 0.0, 1.0, 0.5)
    p = SystemParams(1.0, 1.0, 1.0, -1.0, 0.0)  # B = 0 and opposite charges allowed
    assert not p.identical
    assert identical_params(3.0).identical


def test_state_q_guard():
    with pytest.raises(DomainError):
        ReducedState(0, 0, 0, 0.0, 0)
    with pytest.raises(DomainError):
        ReducedState(0, 0, 0, np.pi, 0)
    s = ReducedState(0.1, 0.2, 0.3, 1.5, 0.4)
    assert ReducedState.from_array(s.as_array()) == s
    assert s.replace(p=1.0).p == 1.0


def test_cot_potential_derivatives():
    V = cot_potential(SystemParams(1.0, 2.0, 1.5, -0.5, 1.0))
    k = 1.5 * -0.5
    for q in (0.4, 1.1, 2.7):
        assert V.value(q) == pytest.approx(k / np.tan(q))
        h = 1e-6
        fd = (V.value(q + h) - V.value(q - h)) / (2 * h)
        assert V.derivative(q) == pytest.approx(fd, abs=1e-8)
    assert V.analytic


def test_table_potential_matches_nodes():
    qs = np.linspace(0.3, 2.8, 40)
    vs = 1.0 / np.tan(qs)
    V = table_potential(qs, vs)
    assert V.value(1.234) == pytest.approx(1 / np.tan(1.234), abs=1e-4)
    assert V.derivative(1.234) == pytest.approx(-1 / np.sin(1.234) ** 2, abs=1e-2)
    assert not V.analytic


def test_table_potential_rejects_flat():
    qs = np.linspace(0.3, 2.8, 40)
    with pytest.raises(DomainError):
        table_potential(qs, np.sin(qs))  # derivative vanishes at pi/2
    with pytest.raises(DomainError):
        table_potential(qs[:3], qs[:3])


def test_legendre_roundtrip(rng):
    params = SystemParams(1.3, 0.7, 1.0, -2.0, 0.9)
    for _ in range(50):
        vel = BodyFrameVelocity(*rng.uniform(-2, 2, 4))
        q = rng.uniform(0.2, 2.9)
        state = body_velocity_to_reduced(vel, q, params)
        back = reduced_to_body_velocity(state, params)
        assert np.allclose(
            [back.omega1, back.omega2, back.omega3, back.qdot],
            [vel.omega1, vel.omega2, vel.omega3, vel.qdot],
            atol=1e-12,
        )


def test_legendre_map_is_the_momentum_gradient_of_H(rng):
    """The body velocities are the (m1, m2, m3, p)-components of grad H, bit
    for bit, on one state and on a batch."""
    from magsphere.reduced import grad_hamiltonian

    params = SystemParams(1.3, 0.7, 1.0, -2.0, 0.9)
    V = cot_potential(params)
    X = np.vstack([rng.uniform(-2, 2, (3, 20)), rng.uniform(0.2, 2.9, 20), rng.uniform(-2, 2, 20)])
    G = grad_hamiltonian(X, params, V)[[0, 1, 2, 4]]
    assert np.array_equal(np.array(kinetic_gradient(X, params))[[0, 1, 2, 4]], G)
    state = ReducedState.from_array(X[:, 0])
    vel = reduced_to_body_velocity(state, params)
    one = [vel.omega1, vel.omega2, vel.omega3, vel.qdot]
    assert one == grad_hamiltonian(state.as_array(), params, V)[[0, 1, 2, 4]].tolist()


def test_step_count_takes_whole_numbers_of_steps():
    from magsphere.core import step_count

    assert step_count(10.0, 1e-3) == 10000
    assert step_count(0.3, 0.1) == 3          # 0.3 / 0.1 = 2.9999999999999996
    assert step_count(0.05, 1e-2) == 5
    for t_end, dt in ((0.1005, 1e-2), (1.0, 0.3), (1e-3, 1e-2), (1.0, 0.0), (-1.0, 0.1)):
        with pytest.raises(DomainError):
            step_count(t_end, dt)
