import numpy as np
import pytest

from magsphere.core import (
    CollisionApproach,
    DomainError,
    NonFiniteState,
    Potential,
    Q_EDGE,
    ReducedState,
    SystemParams,
    cot_potential,
    identical_params,
)
from magsphere.reduced import (
    casimir_array,
    grad_casimir,
    grad_hamiltonian,
    hamiltonian_array,
    integrate,
    poisson_matrix,
    residual,
    rhs,
)

from conftest import random_states

GENERAL = SystemParams(1.3, 0.7, 1.0, -2.0, 0.9)


def test_rhs_is_tensor_times_gradient(rng):
    """The equations of motion are the bracket applied to grad H."""
    for p in (identical_params(2.5), GENERAL):
        V = cot_potential(p)
        for x in random_states(rng, 50):
            lhs = rhs(x, p, V)
            sigma = poisson_matrix(x, p)
            assert np.max(np.abs(lhs - sigma @ grad_hamiltonian(x, p, V))) < 1e-12


def test_gradients_match_finite_differences(rng):
    V = cot_potential(GENERAL)
    h = 1e-6
    for x in random_states(rng, 20, q_range=(0.5, 2.6)):
        for grad, f in (
            (grad_hamiltonian(x, GENERAL, V), lambda z: hamiltonian_array(z, GENERAL, V)),
            (grad_casimir(x, GENERAL), lambda z: casimir_array(z, GENERAL)),
        ):
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                assert grad[j] == pytest.approx((f(x + e) - f(x - e)) / (2 * h), abs=1e-5, rel=1e-6)


def test_casimir_gradient_in_kernel(rng):
    """grad C spans the kernel of the bracket: sigma . grad C = 0."""
    for p in (identical_params(2.5), GENERAL):
        for x in random_states(rng, 100):
            v = poisson_matrix(x, p) @ grad_casimir(x, p)
            assert np.max(np.abs(v)) < 1e-12


def test_poisson_matrix_antisymmetric(rng):
    for x in random_states(rng, 10):
        s = poisson_matrix(x, GENERAL)
        assert np.array_equal(s, -s.T)


def test_integration_conserves_invariants(params, V):
    # a bounded orbit: small perturbation of a stable isosceles equilibrium
    from magsphere.equilibria import type2

    rec = type2(1.8, params.B)[0]
    x0 = rec.state.replace(m1=0.02, m2=rec.state.m2 + 0.03, p=0.01)
    traj = integrate(x0, params, V, t_end=5.0, dt=1e-3)
    assert traj.energy_drift.max() < 1e-10
    assert traj.casimir_drift.max() < 1e-10
    assert traj.times[-1] == pytest.approx(5.0)


def test_casimir_projection_pins_casimir(params, V):
    x0 = ReducedState(0.05, -0.1, 0.12, 1.5, 0.03)
    traj = integrate(x0, params, V, t_end=2.0, dt=1e-2, project_casimir=True)
    assert traj.casimir_drift.max() < 1e-12


def test_collision_guard(V):
    params = identical_params(0.5)
    Vm = cot_potential(SystemParams(1, 1, 1, -1, 0.5))
    x0 = ReducedState(0.0, 0.0, 0.0, 0.5, -1.0)
    with pytest.raises(CollisionApproach):
        integrate(x0, SystemParams(1, 1, 1, -1, 0.5), Vm, t_end=5.0, dt=1e-3)


def test_trajectory_csv_round_trip(params, V):
    traj = integrate(ReducedState(0, 0.05, 0, 1.4, 0), params, V, t_end=0.1, dt=1e-2)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,m1,m2,m3,q,p,H,C"
    assert len(lines) == len(traj.times) + 1
    row = np.array([float(v) for v in lines[-1].split(",")])
    assert row[0] == pytest.approx(0.1)
    assert np.allclose(row[1:6], traj.states[-1], rtol=1e-12)


def test_residual_zero_only_at_equilibria(params, V):
    from magsphere.equilibria import type1

    rec = type1(1.0, params.B)[0]
    assert residual(rec.state.as_array(), params, V) < 1e-12
    assert residual(rec.state.replace(m2=rec.state.m2 + 0.1).as_array(), params, V) > 1e-3


def _plain_rk4(x, params, V, dt, n):
    """The per-step loop `integrate` replaced: states with H and C taken
    one state at a time; stops early at the first state outside the q guard."""
    states, energy, cas = [x], [hamiltonian_array(x, params, V)], [casimir_array(x, params)]
    for _ in range(n):
        k1 = rhs(x, params, V)
        k2 = rhs(x + 0.5 * dt * k1, params, V)
        k3 = rhs(x + 0.5 * dt * k2, params, V)
        k4 = rhs(x + dt * k3, params, V)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
        energy.append(hamiltonian_array(x, params, V))
        cas.append(casimir_array(x, params))
        if not (Q_EDGE <= x[3] <= np.pi - Q_EDGE):
            break
    return np.array(states), np.array(energy), np.array(cas)


@pytest.mark.parametrize("p", [identical_params(2.5), GENERAL])
def test_integrate_equals_plain_rk4_loop(rng, p):
    """Without projection, `integrate` gives the plain loop's states, H and
    C bit for bit, and times i * dt."""
    V = cot_potential(p)
    for x in random_states(rng, 3, q_range=(1.2, 2.0), scale=0.3):
        traj = integrate(ReducedState.from_array(x), p, V, t_end=0.5, dt=1e-3)
        states, energy, cas = _plain_rk4(x, p, V, 1e-3, 500)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.energy, energy)
        assert np.array_equal(traj.casimir, cas)
        assert np.array_equal(traj.times, np.array([i * 1e-3 for i in range(501)]))


def test_trajectory_csv_matches_row_by_row_formatting(params, V):
    traj = integrate(ReducedState(0.05, -0.1, 0.12, 1.5, 0.03), params, V, t_end=0.5, dt=1e-2)
    ref = "t,m1,m2,m3,q,p,H,C\n"
    for t, x, h, c in zip(traj.times, traj.states, traj.energy, traj.casimir):
        ref += ",".join(f"{v:.15g}" for v in [t, *x, h, c]) + "\n"
    assert traj.to_csv() == ref


def test_integrate_non_finite_state(params):
    """A NaN force is reported as NonFiniteState, before the q guard sees the
    NaN state."""
    nan = Potential(value=lambda q: q * np.nan, derivative=lambda q: q * np.nan, name="nan")
    with pytest.raises(NonFiniteState, match=r"non-finite state at t=0\.001$"):
        integrate(ReducedState(0.05, -0.1, 0.12, 1.5, 0.03), params, nan, t_end=0.01, dt=1e-3)


def test_collision_guard_step_and_message():
    """The guard stops at the first step outside the q domain and names q
    and t there, as the plain loop finds them."""
    p = SystemParams(1, 1, 1, -1, 0.5)
    Vm = cot_potential(p)
    x0 = ReducedState(0.0, 0.0, 0.0, 0.5, -1.0)
    states, _, _ = _plain_rk4(x0.as_array(), p, Vm, 1e-3, 5000)
    i = len(states) - 1
    expected = f"q={states[-1][3]} left the guarded domain at t={i * 1e-3}"
    with pytest.raises(CollisionApproach) as err:
        integrate(x0, p, Vm, t_end=5.0, dt=1e-3)
    assert str(err.value) == expected


@pytest.mark.parametrize("t_end, dt", [(0.1005, 1e-2), (1.0, 0.3), (1e-3, 1e-2)])
def test_integrate_rejects_a_partial_step(params, V, t_end, dt):
    with pytest.raises(DomainError, match="whole number of steps"):
        integrate(ReducedState(0, 0.05, 0, 1.4, 0), params, V, t_end=t_end, dt=dt)
