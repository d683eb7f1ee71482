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
    pchip,
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["mu1", "mu2", "e1", "e2", "B"])
def test_params_reject_non_finite_fields(field, value):
    """A NaN or infinite field is a DomainError, and so is such an entry of
    an array B."""
    base = dict(mu1=1.3, mu2=0.7, e1=1.0, e2=-2.0, B=0.9)
    with pytest.raises(DomainError, match="finite"):
        SystemParams(**{**base, field: value})
    with pytest.raises(DomainError, match="finite"):
        identical_params(np.array([0.5, value, 2.0]))


def test_params_store_floats_and_keep_an_array_B():
    """Scalar fields given as numpy scalars are stored as Python floats; an
    array B is kept as it is."""
    p = SystemParams(*map(np.float64, (1.3, 0.7, 1.0, -2.0, 0.9)))
    assert all(type(v) is float for v in (p.mu1, p.mu2, p.e1, p.e2, p.B))
    assert p == SystemParams(1.3, 0.7, 1.0, -2.0, 0.9)
    B = np.array([0.5, 2.0])
    assert identical_params(B).B is B


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
        fd2 = (V.derivative(q + h) - V.derivative(q - h)) / (2 * h)
        assert V.second(q) == pytest.approx(fd2, abs=1e-7)
        assert V.second(np.array([q]))[0] == V.second(q)
    assert V.analytic


def test_table_potential_matches_nodes():
    qs = np.linspace(0.3, 2.8, 40)
    vs = 1.0 / np.tan(qs)
    V = table_potential(qs, vs)
    assert V.value(1.234) == pytest.approx(1 / np.tan(1.234), abs=1e-4)
    assert V.derivative(1.234) == pytest.approx(-1 / np.sin(1.234) ** 2, abs=1e-2)
    assert not V.analytic


def test_potential_q_range():
    """cot is defined on all of [0, pi], a table on its nodes' range."""
    assert cot_potential(identical_params(1.0)).q_range == (0.0, np.pi)
    q = np.linspace(0.5, 0.8, 8)
    assert table_potential(q, 2.0 - q).q_range == (0.5, 0.8)


def test_table_potential_rejects_flat():
    qs = np.linspace(0.3, 2.8, 40)
    with pytest.raises(DomainError):
        table_potential(qs, np.sin(qs))  # derivative vanishes at pi/2
    with pytest.raises(DomainError):
        table_potential(qs[:3], qs[:3])
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            table_potential(qs, np.where(qs > 1.5, bad, 1.0 / np.tan(qs)))
        with pytest.raises(DomainError):
            table_potential(np.where(qs > 2.7, bad, qs), 1.0 / np.tan(qs))


def _pchip_tables():
    """Seeded random tables, and hand-made ones that take each branch of
    the end-slope rule: (name, q nodes, values)."""
    rng = np.random.default_rng(2024)
    tables = []
    for k in range(6):
        n = int(rng.integers(4, 60))
        q = np.sort(rng.uniform(0.1, 3.0, n))
        v = np.cumsum(rng.uniform(0.01, 2.0, n)) * (-1) ** k
        tables.append((f"monotone{k}", q, v))
        # secants that change sign, and flat segments from repeated values
        tables.append((f"wavy{k}", q, rng.normal(size=n)))
        tables.append((f"flat{k}", q, rng.integers(-2, 3, n).astype(float)))
    q4 = np.array([0.3, 0.9, 1.4, 2.6])
    tables.append(("minimal", q4, np.array([2.0, 1.1, 0.7, 0.2])))
    # end slope opposite to the end secant: set to 0
    tables.append(("end_zero", q4, np.array([0.0, 0.6, 5.6, 6.8])))
    # secants change sign and the end slope exceeds 3 secants: set to 3 m0
    tables.append(("end_clip", q4, np.array([0.0, 0.6, -4.4, -3.2])))
    return tables


def _vanishing(dV):
    return np.min(np.abs(dV)) < 1e-12 or np.min(dV) * np.max(dV) <= 0


@pytest.mark.parametrize("name,q,v", _pchip_tables(), ids=[t[0] for t in _pchip_tables()])
def test_pchip_matches_scipy(name, q, v):
    """Slopes, V and V' against scipy's PchipInterpolator, inside and beyond
    the nodes, to 1e-13 of the largest magnitude, and V'' bit for bit, on
    an array and on floats; the table is rejected for a vanishing
    derivative exactly when scipy's interpolant would be."""
    from scipy.interpolate import PchipInterpolator

    ref = PchipInterpolator(q, v)
    dref = ref.derivative()
    close = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-13,
                                                    atol=1e-13 * np.max(np.abs(b)))
    value, derivative, second = pchip(q, v)
    d = derivative(q)                       # the node slopes
    close(d[:-1], ref.c[2])                 # the cubic on [q_i, q_i+1] starts with d_i
    close(d[-1], dref(q[-1]))
    span = q[-1] - q[0]
    x = np.linspace(q[0] - 0.3 * span, q[-1] + 0.3 * span, 2000)
    close(value(x), ref(x))
    close(derivative(x), dref(x))
    d2ref = ref.derivative(2)(x)
    assert np.array_equal(second(x), d2ref)
    assert [second(t) for t in x.tolist()] == d2ref.tolist()
    if name == "end_zero":
        assert d[0] == 0.0
    if name == "end_clip":
        assert d[0] == 3.0 * (v[1] - v[0]) / (q[1] - q[0])
    if _vanishing(dref(np.linspace(q[0], q[-1], 512))):
        with pytest.raises(DomainError):
            table_potential(q, v)
    else:
        table_potential(q, v)


def test_pchip_tables_take_both_verdicts():
    """The tables above include accepted and rejected potentials."""
    from scipy.interpolate import PchipInterpolator

    verdicts = {
        _vanishing(PchipInterpolator(q, v).derivative()(np.linspace(q[0], q[-1], 512)))
        for _, q, v in _pchip_tables()
    }
    assert verdicts == {True, False}


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
