import numpy as np
import pytest

from magsphere.core import (
    DomainError,
    ReducedState,
    SystemParams,
    cot_potential,
    identical_params,
)
from magsphere.equilibria import make_record, Family, type1, type2
from magsphere.reduced import casimir, hamiltonian, integrate, residual, rhs
from magsphere.stability import linearize
from magsphere.symmetry import (
    opposite_charge,
    swap,
    swap_matrix,
    time_reversal,
)

from conftest import random_states


def test_swap_matrix_involutory():
    for q in np.linspace(0.1, 3.0, 20):
        M = swap_matrix(q)
        assert np.max(np.abs(M @ M - np.eye(4))) < 1e-15


def test_swap_requires_identical_particles():
    s = ReducedState(0, 0.1, 0.2, 1.0, 0)
    with pytest.raises(DomainError):
        swap(s, SystemParams(1.0, 2.0, 1.0, 1.0, 1.0))


def test_swap_exchanges_type1_pair(params):
    rp, rm = type1(1.0, params.B)
    mapped = swap(rp.state, params)
    assert np.max(np.abs(mapped.as_array() - rm.state.as_array())) < 1e-10
    back = swap(mapped, params)
    assert np.max(np.abs(back.as_array() - rp.state.as_array())) < 1e-13


def test_swap_fixes_type2(params):
    for rec in type2(2.0, params.B):
        mapped = swap(rec.state, params)
        assert np.max(np.abs(mapped.as_array() - rec.state.as_array())) < 1e-10


def test_swap_conjugates_flow(params, V):
    x0 = ReducedState(0.05, -0.1, 0.12, 1.5, 0.03)
    direct = integrate(x0, params, V, t_end=1.0, dt=1e-3).final_state()
    conj = swap(integrate(swap(x0, params), params, V, t_end=1.0, dt=1e-3).final_state(), params)
    assert np.max(np.abs(direct.as_array() - conj.as_array())) < 1e-8


def test_time_reversal(rng, params, V):
    flip = np.diag([-1.0, -1.0, -1.0, 1.0, -1.0])
    for x in random_states(rng, 100):
        s = ReducedState.from_array(x)
        ts, tp = time_reversal(s, params)
        tV = cot_potential(tp)
        assert hamiltonian(ts, tp, tV) == pytest.approx(hamiltonian(s, params, V), rel=1e-12)
        assert np.max(np.abs(rhs(ts.as_array(), tp, tV) + flip @ rhs(x, params, V))) < 1e-12
        back, bp = time_reversal(ts, tp)
        assert back == s and bp == params


def test_opposite_charge_casimir_invariant(rng, params):
    for x in random_states(rng, 100):
        s = ReducedState.from_array(x)
        ms, mp = opposite_charge(s, params)
        assert mp.e2 == -params.e2
        assert casimir(ms, mp) == pytest.approx(casimir(s, params), abs=1e-12)
        back, bp = opposite_charge(ms, mp)
        assert np.max(np.abs(back.as_array() - x)) < 1e-13 and bp == params


def test_opposite_charge_maps_equilibria(params, V):
    for rec in list(type1(1.0, params.B)) + type2(2.0, params.B):
        ms, mp = opposite_charge(rec.state, params)
        mV = cot_potential(mp)
        assert residual(ms.as_array(), mp, mV) < 1e-9


def test_opposite_charge_preserves_spectrum(params, V):
    rec = type1(1.0, params.B)[0]
    ms, mp = opposite_charge(rec.state, params)
    mV = cot_potential(mp)
    mrec = make_record(Family.General, ms.m2, ms.m3, ms.q, mp, mV)
    e0 = np.linalg.eigvals(linearize(rec, V).jacobian)
    e1 = np.linalg.eigvals(linearize(mrec, mV).jacobian)
    for lam in e0:
        assert min(abs(lam - m) for m in e1) < 1e-8


def test_opposite_charge_threshold_curve():
    """Existence threshold of the mapped system: B = 2 sqrt(csc q/(1+cos q))."""
    from magsphere.equilibria import type2_threshold

    for q in (0.6, 1.1, 2.0):
        mapped = 2 * np.sqrt(1 / (np.sin(q) * (1 + np.cos(q))))
        assert type2_threshold(np.pi - q) == pytest.approx(mapped, rel=1e-13)


def test_reduced_maps_are_involutions(rng, params):
    with_params = lambda s, p: (swap(s, p), p)
    for m in (with_params, time_reversal, opposite_charge):
        for x in random_states(rng, 20):
            s = ReducedState.from_array(x)
            twice, ptwice = m(*m(s, params))
            assert np.max(np.abs(twice.as_array() - x)) < 1e-13
            assert ptwice == params
