"""Property tests: every tuple kernel gives one state, as a tuple of floats,
exactly the values that it gives that state as column j of a (d, N) batch.

The float path takes sin, cos and sqrt from `math` and the batch path from
numpy (`core.mathlib`); both take numpy's arctan2.  The kernels share one
source, so the two agree bit for bit wherever those functions do.  The one
CSV writer, `core.csv_text`, gives the bytes of the per-value rule on any
table.  Examples are derandomized: every run draws the same ones.
"""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from magsphere.core import (DEFAULT_TOL, SystemParams, cot_potential, csv_text, kinetic_gradient,
                            table_potential)
from magsphere.equilibria import _block, equilibrium_values, solve_general
from magsphere.fullspace import _project, full_rhs, geodesic_distance, one_particle_rhs
from magsphere.reduced import (_casimir_projection, casimir_array, grad_casimir, grad_hamiltonian,
                               hamiltonian_array, rhs, shifted_momentum)
from magsphere.stability import _blocks, _signature, linearize, stability_arrays

from conftest import per_value_csv
from reference import (derivative_matrix, energy_casimir_hessian, hessian_casimir,
                       hessian_hamiltonian, poisson_matrix)

FIXED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

unit = st.floats(-1.0, 1.0)
charge = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.5, 2.0)).map(lambda t: t[0] * t[1])
systems = st.builds(SystemParams, st.floats(0.5, 3.0), st.floats(0.5, 3.0), charge, charge,
                    st.floats(-5.0, 5.0))
reduced_states = st.tuples(unit, unit, unit, st.floats(0.1, np.pi - 0.1), unit)


def _batch(states):
    """States as a (d, N) array."""
    return np.array(states, dtype=float).T


def _assert_columns(kernel, X):
    """kernel on each column of X as a tuple of floats equals that column
    of kernel on X."""
    batch = np.array(kernel(X))
    for j in range(X.shape[1]):
        one = kernel(tuple(X[:, j].tolist()))
        assert all(isinstance(v, float) for v in (one if isinstance(one, tuple) else (one,)))
        assert np.array_equal(np.array(one), batch[..., j]), j


def _assert_rows(kernel, X):
    """kernel on each column j of X as a tuple of floats returns, array for
    array, row j of what it returns on X (a tuple of (N, ...) arrays); a NaN
    (M where grad C = 0) must be a NaN in both."""
    batch = kernel(X)
    for j in range(X.shape[1]):
        for one, rows in zip(kernel(tuple(X[:, j].tolist())), batch, strict=True):
            assert np.array_equal(one, rows[j], equal_nan=True), j


def _apart(y):
    """Both position vectors of a 12-component state well away from zero
    and from each other's line, so the geodesic distance is well defined."""
    q1, q2 = np.array(y[0:3]), np.array(y[3:6])
    n1, n2 = np.linalg.norm(q1), np.linalg.norm(q2)
    return min(n1, n2) > 0.1 and np.linalg.norm(np.cross(q1, q2)) > 0.05 * n1 * n2


full_states = st.tuples(*[unit] * 12).filter(_apart)


@FIXED
@given(systems, st.lists(reduced_states, min_size=1, max_size=8))
def test_rhs_one_state_equals_batch_column(params, states):
    V = cot_potential(params)
    _assert_columns(lambda x: rhs(x, params, V), _batch(states))


@FIXED
@given(systems, st.lists(reduced_states, min_size=1, max_size=8))
def test_shifted_momentum_one_state_equals_batch_column(params, states):
    X = _batch(states)
    _assert_columns(lambda x: shifted_momentum(x, params), X)
    _assert_columns(lambda x: casimir_array(x, params), X)


@FIXED
@given(systems, st.lists(reduced_states, min_size=1, max_size=8), st.floats(0.01, 20.0))
def test_casimir_projection_one_state_equals_batch_column(params, states, c_target):
    X = _batch(states)
    assume(np.all(casimir_array(X, params) > 1e-6))
    _assert_columns(lambda x: _casimir_projection(x, params, c_target), X)


@FIXED
@given(systems, st.lists(reduced_states, min_size=1, max_size=8))
def test_hessian_casimir_equals_complex_step(params, states):
    """The closed-form D2C equals the complex-step derivative of grad C to
    1e-14 relative to max|D2C|, and one state gives its column of a batch
    bit for bit."""
    X = _batch(states)
    D = hessian_casimir(X, params)
    step = derivative_matrix(lambda z: grad_casimir(z, params), X, True)
    assert np.max(np.abs(D - step)) <= 1e-14 * np.max(np.abs(D))
    for j in range(X.shape[1]):
        assert np.array_equal(hessian_casimir(X[:, j], params), D[j]), j


@functools.lru_cache(maxsize=None)
def _sympy_derivation():
    """sympy's derivatives of the transcribed kinetic term of
    `hamiltonian_array` plus V = e1 e2 cot q, and of the m1' and p' rows of
    `rhs` (V' a free symbol), as numpy functions of (x, mu1, mu2, e1, e2,
    B, dV): H, D2H, the two rows and their (m2, m3) block."""
    sp = pytest.importorskip("sympy")
    x = m1, m2, m3, q, p = sp.symbols("m1 m2 m3 q p")
    mu1, mu2, e1, e2, B, dV = sp.symbols("mu1 mu2 e1 e2 B dV")
    cot, csc = sp.cot(q), 1 / sp.sin(q)
    kinetic = (mu2 * ((m1 - p) ** 2 + m2**2)
               + m3 * (-2 * mu2 * m2 * cot + mu1 * m3 * csc**2 + mu2 * m3 * cot**2)) / (2 * mu1 * mu2)
    H = kinetic + p**2 / (2 * mu2) + e1 * e2 * cot
    inv = 1 / (mu1 * mu2)
    rows = sp.Matrix([
        -inv * (mu2 * (m2 - m3 * cot) * (B * e1 + m2 * cot + m3) + B * e2 * mu1 * m3 * csc
                - mu1 * m2 * m3 * csc**2),
        -inv * (m3 * csc * (B * e2 * mu1 + csc * (mu2 * m2 - m3 * (mu1 + mu2) * cot))
                + mu1 * mu2 * dV),
    ])
    assert rows.jacobian([m1, p]) == sp.zeros(2, 2)     # the block needs no m1 or p column
    args = (x, mu1, mu2, e1, e2, B, dV)
    return tuple(sp.lambdify(args, f, "numpy")
                 for f in (H, sp.hessian(H, x), rows, rows.jacobian([m2, m3])))


@FIXED
@given(systems, st.lists(reduced_states, min_size=1, max_size=8))
def test_closed_forms_equal_the_sympy_derivation(params, states):
    """D2H (`hessian_hamiltonian`, V = cot) and the polish block
    (`equilibria._block`) equal sympy's derivatives of the kinetic term
    of H and of the m1' and p' rows of rhs, to 1e-13 of their largest
    entry; the transcribed rows first equal the code's to 1e-13, and H,
    whose terms cancel, to 1e-11.  Measured worst over 2 000 random states:
    1.3e-15 (D2H), 2.1e-15 (block), 2.7e-15 (rows) and 4.6e-13 (H)."""
    H, D2H, rows, block = _sympy_derivation()
    V = cot_potential(params)
    for x in states:
        args = (x, params.mu1, params.mu2, params.e1, params.e2, params.B, V.derivative(x[3]))
        close = lambda got, want, tol: np.max(np.abs(np.subtract(got, want))) <= tol * np.max(np.abs(want))
        f = rhs(x, params, V)
        assert close(hamiltonian_array(x, params, V), H(*args), 1e-11)
        assert close((f[0], f[4]), rows(*args).ravel(), 1e-13)
        assert close(hessian_hamiltonian(np.array(x), params, V), D2H(*args), 1e-13)
        assert close(_block(x[1], x[2], x[3], params), block(*args).ravel(), 1e-13)


TABLE_Q = np.linspace(0.2, np.pi - 0.2, 64)
TABLE = table_potential(TABLE_Q, 1.0 / np.tan(TABLE_Q) + 0.5 * TABLE_Q)


@FIXED
@given(systems, st.lists(reduced_states, min_size=1, max_size=8), st.booleans())
def test_hessian_hamiltonian_equals_the_reference_derivative(params, states, table):
    """The closed-form D2H equals the reference derivative of grad H,
    relative to max|D2H|: to 1e-14 against the complex step for cot, and to
    1e-9 against central differences for a table (their error).  Measured
    worst: 3.0e-16 and 2.2e-10.  One state gives its column of a batch bit
    for bit."""
    V = TABLE if table else cot_potential(params)
    X = _batch(states)
    D = hessian_hamiltonian(X, params, V)
    ref = derivative_matrix(lambda z: grad_hamiltonian(z, params, V), X, V.analytic)
    assert np.max(np.abs(D - ref)) <= (1e-9 if table else 1e-14) * np.max(np.abs(D))
    for j in range(X.shape[1]):
        assert np.array_equal(hessian_hamiltonian(X[:, j], params, V), D[j]), j


@FIXED
@given(systems, st.lists(reduced_states, min_size=1, max_size=8), st.booleans())
# sin(0.10957) squared by pow() and by a product differ in the last bit
@example(SystemParams(1.0, 1.0, 1.0, 1.0, 1.0), [(0.5, 0.5, 0.5, 0.10957, 0.5)], False)
def test_energy_kernels_one_state_equal_batch_column(params, states, table):
    """H, its gradient (the Legendre map included), grad C and the
    (H, C, residual) of a record, for cot and a table: one state as floats,
    as `make_record` passes it, equals its column of a batch, as the
    closed-form grids pass them.  So do D2H, D2C, sigma and (M, grad C) of
    `energy_casimir_hessian`, as `linearize` passes one record."""
    V = TABLE if table else cot_potential(params)
    X = _batch(states)
    _assert_columns(lambda x: hamiltonian_array(x, params, V), X)
    _assert_columns(lambda x: kinetic_gradient(x, params), X)
    _assert_columns(lambda x: tuple(grad_hamiltonian(x, params, V)), X)
    _assert_columns(lambda x: tuple(grad_casimir(x, params)), X)
    _assert_columns(lambda x: equilibrium_values(x, params, V), X)
    _assert_rows(lambda x: (hessian_hamiltonian(x, params, V),), X)
    _assert_rows(lambda x: (hessian_casimir(x, params),), X)
    _assert_rows(lambda x: (poisson_matrix(x, params),), X)
    with np.errstate(invalid="ignore"):         # lam = 0/0 where grad C = 0
        _assert_rows(lambda x: energy_casimir_hessian(x, params, V), X)


@FIXED
@given(systems, st.floats(0.25, np.pi - 0.25), st.booleans())
def test_linearize_equals_its_batch_column(params, q, table):
    """`linearize` on each record of `solve_general`, for cot and a table,
    equals that record's column of the batched block kernels bit for bit:
    (a, b) and class of `stability_arrays`, and the signature of the
    batched blocks.  A batch builds no J: test_equilibria compares J with
    J from the blocks on numpy scalars, and test_stability with the direct
    Jacobian."""
    assume(abs(q - np.pi / 2) > 0.05)
    V = TABLE if table else cot_potential(params)
    records = solve_general(q, params, V)
    X = np.array([r.state.as_array() for r in records]).T
    a, b, classes = stability_arrays(X, params, V)
    A, K, _, g = _blocks(X, params, V)
    sigs = np.transpose(_signature(A, K, g, DEFAULT_TOL)).tolist()
    for j, r in enumerate(records):
        rep = linearize(r, V)
        assert rep.char_coeffs == (a[j], b[j]) and rep.classification is classes[j], j
        assert rep.hessian_signature == tuple(sigs[j]), j


@FIXED
@given(systems, st.lists(full_states, min_size=1, max_size=8))
def test_full_rhs_one_state_equals_batch_column(params, states):
    V = cot_potential(params)
    _assert_columns(lambda y: full_rhs(y, params, V), _batch(states))


@FIXED
@given(st.lists(full_states, min_size=1, max_size=8))
def test_project_one_state_equals_batch_column(states):
    _assert_columns(_project, _batch(states))


@FIXED
@given(st.lists(full_states, min_size=1, max_size=8))
def test_geodesic_distance_one_state_equals_batch_column(states):
    _assert_columns(lambda y: geodesic_distance(y[0:3], y[3:6]), _batch(states))


@FIXED
@given(st.floats(0.5, 3.0), charge, st.floats(-5.0, 5.0),
       st.lists(st.tuples(*[unit] * 6), min_size=1, max_size=8))
def test_one_particle_rhs_one_state_equals_batch_column(mu, e, B, states):
    _assert_columns(lambda y: one_particle_rhs(y, mu, e, B), _batch(states))




@FIXED
@given(st.lists(st.one_of(st.floats(0.01, np.pi - 0.01), st.sampled_from(TABLE_Q.tolist())),
                min_size=1, max_size=8))
def test_table_potential_one_q_equals_batch_column(qs):
    """V, V' and V'' of a table at one float q (on a node, between nodes
    or beyond the end nodes) equal that q's column of the array call."""
    for f in (TABLE.value, TABLE.derivative, TABLE.second):
        batch = f(np.array(qs))
        for j, q in enumerate(qs):
            one = f(q)
            assert isinstance(one, float) and np.array_equal(one, batch[j]), j


EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308 / 3,
               1e300, -1e-300, 1.7976931348623157e308, 0.1, 1e15, 123456789012345678.0]
numbers = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(),                                   # nan, inf and subnormals included
    st.floats().map(np.float64),
    st.integers(-2**64, 2**64),
    st.booleans(),
)


@st.composite
def csv_tables(draw):
    """(columns, rows): each column holds str values or numbers of any of
    the kinds above, mixed."""
    is_str = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*[st.text() if s else numbers for s in is_str]), max_size=8))
    return [f"c{i}" for i in range(len(is_str))], rows


@FIXED
@given(csv_tables(), st.none() | st.dictionaries(st.text(min_size=1), st.text() | numbers,
                                                 max_size=3))
@example((["q", "tag"], []), None)
@example((["q", "tag"], []), {"B": 2.5})
def test_csv_text_equals_the_per_value_rule(table, metadata):
    """One `%` row template per table writes each value as the per-value
    rule does, with and without the metadata line and for zero rows."""
    columns, rows = table
    assert csv_text(columns, rows, metadata) == per_value_csv(columns, rows, metadata)
