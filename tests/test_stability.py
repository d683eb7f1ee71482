import dataclasses
import warnings

import numpy as np
import pytest

from magsphere.core import (
    DEFAULT_TOL,
    Q_EDGE,
    DomainError,
    OutsideDomain,
    ResidualTooLarge,
    SystemParams,
    Tolerances,
    cot_potential,
    identical_params,
    table_potential,
)
from magsphere.equilibria import (
    EquilibriumRecord,
    Family,
    closed_form_grid,
    solve_general,
    type1,
    type2,
    type2_threshold,
)
from magsphere.reduced import grad_casimir, grad_hamiltonian, rhs
from magsphere.stability import (
    Classification,
    char_coefficients,
    classify,
    hessian_signature,
    linearize,
    signature_arrays,
    stability_csv,
    stability_rows,
    threshold_stability,
    type1_boundary,
)

from reference import derivative_matrix, jacobian_matrix


def test_classify_table():
    assert classify(-2.0, -0.5) is Classification.LinearlyStable
    assert classify(1.0, -0.5) is Classification.LinearlyUnstable
    assert classify(-2.0, 0.0) is Classification.Degenerate
    assert classify(-2.0, 0.5) is Classification.LinearlyUnstable
    assert classify(-1.0, -0.3) is Classification.LinearlyUnstable  # a^2+4b < 0
    assert classify(-1.0, -0.25) is Classification.Degenerate       # a^2+4b = 0
    assert classify(-1.0, -0.2) is Classification.LinearlyStable


def test_classify_arrays_match_scalar_calls():
    a = np.array([-2.0, 1.0, -2.0, -2.0, -1.0, -1.0, -1.0, np.nan])
    b = np.array([-0.5, -0.5, 0.0, 0.5, -0.3, -0.25, -0.2, -1.0])
    got = classify(a, b)
    assert got.shape == a.shape
    assert list(got) == [classify(x, y) for x, y in zip(a, b)]


def test_jacobian_matches_finite_differences(rng):
    """The reference Jacobian (complex step) against central differences."""
    params = identical_params(2.5)
    V = cot_potential(params)
    d = 1e-6
    for _ in range(20):
        x = np.concatenate([rng.uniform(-1, 1, 3), [rng.uniform(0.5, 2.6)], rng.uniform(-1, 1, 1)])
        J = jacobian_matrix(x, params, V)
        for j in range(5):
            e = np.zeros(5)
            e[j] = d
            col = (np.array(rhs(x + e, params, V)) - np.array(rhs(x - e, params, V))) / (2 * d)
            assert np.max(np.abs(J[:, j] - col)) < 1e-6


def test_batched_jacobian_matches_single_states(rng):
    """The reference Jacobian of a batch against its states one by one."""
    params = identical_params(2.5)
    x = np.concatenate([rng.uniform(-1, 1, (3, 12)), rng.uniform(0.5, 2.6, (1, 12)),
                        rng.uniform(-1, 1, (1, 12))])
    J = jacobian_matrix(x.reshape(5, 3, 4), params, cot_potential(params))
    assert J.shape == (3, 4, 5, 5)
    for k in range(12):
        single = jacobian_matrix(x[:, k], params, cot_potential(params))
        np.testing.assert_allclose(J.reshape(12, 5, 5)[k], single, rtol=1e-14, atol=1e-14)


def test_char_coefficients_match_np_poly_on_acceptance_grid():
    """Newton's identities on tr J^k against the np.poly expansion, over the
    Jacobians of every closed-form record of the acceptance grid."""
    grid = closed_form_grid(np.linspace(0.2, np.pi - 0.2, 50), np.linspace(0.1, 5.0, 50))
    keep = grid.residual <= 1e-9
    params = identical_params(grid.B[keep])
    J = jacobian_matrix(grid.states()[:, keep], params, cot_potential(params))
    assert len(J) > 5000
    a, b = char_coefficients(J)
    for k in range(len(J)):
        c = np.poly(J[k])
        assert a[k] == pytest.approx(-c[2], rel=1e-10)
        assert b[k] == pytest.approx(-c[4], rel=1e-10)


def test_linearize_spectrum_structure(params, V):
    rec = type1(1.0, 2.5)[0]
    rep = linearize(rec, V)
    ev = rep.eigenvalues
    assert np.sum(np.abs(ev) < 1e-8) == 1
    # closed under negation
    for lam in ev:
        assert min(abs(lam + m) for m in ev) < 1e-8


def test_zero_mode_aligns_with_casimir_gradient(params, V):
    rec = type1(1.0, 2.5)[0]
    rep = linearize(rec, V)
    # left eigenvector of the near-zero eigenvalue
    w, vl = np.linalg.eig(rep.jacobian.T)
    i = int(np.argmin(np.abs(w)))
    u = np.real(vl[:, i])
    g = grad_casimir(rec.state.as_array(), params)
    cosang = abs(u @ g) / (np.linalg.norm(u) * np.linalg.norm(g))
    assert np.arccos(min(cosang, 1.0)) < 1e-6


def test_linearize_rejects_bad_records(params, V):
    rec = type1(1.0, 2.5)[0]
    bad = EquilibriumRecord(
        family=rec.family,
        state=rec.state.replace(m2=rec.state.m2 + 0.1),
        params=rec.params,
        H=rec.H,
        C=rec.C,
        residual=1.0,
    )
    with pytest.raises(ResidualTooLarge):
        linearize(bad, V)


def test_threshold_characteristic_polynomial():
    """On the existence threshold the spectrum factors explicitly."""
    for q0 in (1.0, 1.4, 2.0, 2.5):
        B = type2_threshold(q0)
        rec = type2(q0, B)[0]
        rep = linearize(rec, cot_potential(rec.params))
        a, b = rep.char_coeffs
        csc3 = 1 / np.sin(q0) ** 3
        assert a == pytest.approx(-(2 * csc3 + 2 * (1 + 2 * np.cos(q0)) * csc3), abs=1e-8)
        assert b == pytest.approx(-4 * (1 + 2 * np.cos(q0)) * csc3**2, abs=1e-8)


def test_threshold_spectrum_at_right_angle():
    """At q0 = pi/2 both quadratic factors give eigenvalues +-i sqrt(2)."""
    rec = type2(np.pi / 2, 2.0)[0]
    rep = linearize(rec, cot_potential(rec.params))
    nonzero = sorted(np.imag(rep.eigenvalues[np.abs(rep.eigenvalues) > 1e-8]))
    assert np.allclose(nonzero, [-np.sqrt(2), -np.sqrt(2), np.sqrt(2), np.sqrt(2)], atol=1e-7)


def test_threshold_stability_tags():
    assert threshold_stability(np.pi / 2) is Classification.LinearlyStable
    assert threshold_stability(2 * np.pi / 3) is Classification.Degenerate
    assert threshold_stability(2.5) is Classification.LinearlyUnstable


def test_type1_boundary_domain():
    assert type1_boundary(np.pi / 2 - 1e-7) < 1e-5
    with pytest.raises(OutsideDomain):
        type1_boundary(2.0)


@pytest.mark.parametrize("q", [0.0, np.pi, np.nan], ids=["zero", "pi", "nan"])
@pytest.mark.parametrize("curve", [type1_boundary, type2_threshold])
def test_stability_curves_check_q_first(curve, q):
    """type1_boundary and type2_threshold raise DomainError, with no
    warning, for q outside the guarded interval or NaN; they used to
    return inf with a divide-by-zero warning, or NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            curve(q)


def test_stability_curves_keep_their_values():
    """On a dense grid of the guarded interval, each curve gives, bit for
    bit, its closed form on numpy scalars as it was before it checked q."""
    def threshold(q):
        return 2.0 * np.sqrt(1.0 / (np.sin(q) * (1.0 - np.cos(q))))

    def boundary(q):
        s, c = np.sin(q), np.cos(q)
        return float(np.sqrt(c**3 * (2 + c) / (2 * s**3 * np.sin(q / 2) ** 2)))

    q = np.linspace(Q_EDGE, np.pi - Q_EDGE, 20001).tolist()
    with np.errstate(divide="ignore"):          # 1 - cos(Q_EDGE) is 0: inf, as before
        assert [type2_threshold(v) for v in q] == [threshold(v) for v in q]
    left = [v for v in q if v < np.pi / 2]
    assert [type1_boundary(v) for v in left] == [boundary(v) for v in left]


def test_type1_boundary_straddle():
    q = 1.0
    Bc = type1_boundary(q)
    lo = linearize(type1(q, Bc - 1e-3)[0], cot_potential(identical_params(Bc - 1e-3)))
    hi = linearize(type1(q, Bc + 1e-3)[0], cot_potential(identical_params(Bc + 1e-3)))
    assert lo.classification is Classification.LinearlyUnstable
    assert hi.classification is Classification.LinearlyStable


def test_type1_grid_matches_boundary():
    """No misclassified cell farther than one cell from the analytic curve."""
    qs = np.linspace(0.35, np.pi / 2 - 0.05, 25)
    Bs = np.linspace(0.1, 8.0, 25)
    dq, dB = qs[1] - qs[0], Bs[1] - Bs[0]
    for q in qs:
        Bc = type1_boundary(q)
        for B in Bs:
            if abs(B - Bc) <= dB:
                continue
            rec = type1(q, B)[0]
            rep = linearize(rec, cot_potential(rec.params))
            want = Classification.LinearlyStable if B > Bc else Classification.LinearlyUnstable
            assert rep.classification is want, (q, B, Bc)


def test_hessian_signature_definite_implies_stable():
    """A definite restricted Hessian certifies (nonlinear) stability."""
    rec = type2(1.8, 2.5)[0]
    V = cot_potential(rec.params)
    sig = hessian_signature(rec, V)
    assert sig == (4, 0, 0)
    rep = linearize(rec, V)
    assert rep.classification is Classification.LinearlyStable


def test_hessian_signature_constant_along_branch():
    V = cot_potential(identical_params(2.5))
    sigs = {hessian_signature(type1(q, 2.5)[0], V) for q in np.linspace(1.7, 2.9, 8)}
    assert len(sigs) == 1
    for sig in sigs:
        assert sig[2] == 0


def test_stability_csv_schema(params, V):
    rows = stability_rows(closed_form_grid([1.0], [2.5], "type1"), V)
    header, *lines = stability_csv(rows).splitlines()
    assert header == "q,B,family,a,b,class,n_plus,n_minus,n_zero"
    assert [line.split(",")[2] for line in lines] == ["TypeI+", "TypeI-"]


def _table_cot():
    nodes = np.linspace(0.1, np.pi - 0.1, 400)
    return table_potential(nodes, 1 / np.tan(nodes))


# The cot records of the grids below have max|rhs| up to 3e-4 under
# `_table_cot()`, so `linearize` refuses them there at the default cut; the
# per-record comparisons under the table take this cut instead.
OFF_TABLE = Tolerances(record_residual=1e-3)


@pytest.mark.parametrize("table", [False, True])
def test_stability_rows_equal_per_record_linearize(table):
    """Batched rows against one linearize call per grid entry, for cot and
    for a table potential."""
    V = _table_cot() if table else cot_potential(identical_params(1.0))
    grid = closed_form_grid([0.7, 1.2, 2.0, 2.6], [1.0, 2.5, 4.0])
    rows = stability_rows(grid, V)
    recs = grid.records()
    assert len(rows) == len(recs) > 8
    tol = OFF_TABLE if table else DEFAULT_TOL
    if table:
        with pytest.raises(ResidualTooLarge):
            linearize(recs[0], V)
    for r, row in zip(recs, rows):
        rep = linearize(r, V, tol)
        assert (row["q"], row["B"], row["family"]) == (r.state.q, r.params.B, r.family.value)
        assert row["a"] == pytest.approx(rep.char_coeffs[0], rel=1e-9)
        assert row["b"] == pytest.approx(rep.char_coeffs[1], rel=1e-9)
        assert row["class"] == rep.classification.value
        assert (row["n_plus"], row["n_minus"], row["n_zero"]) == rep.hessian_signature
    with pytest.raises(ResidualTooLarge):
        stability_rows(dataclasses.replace(grid, residual=grid.residual + 1.0), V)


def _ref_hessian_signature(record, V, tol=DEFAULT_TOL):
    """The per-record restricted Hessian signature as it was computed before
    the batched kernel, with (0, 0, 4) where the Hessian is singular."""
    x = record.state.as_array()
    params = record.params
    gH = np.array(grad_hamiltonian(x, params, V))
    gC = np.array(grad_casimir(x, params))
    lam = float(gH @ gC) / float(gC @ gC)
    sym = lambda M: 0.5 * (M + M.T)
    D2H = sym(derivative_matrix(lambda z: grad_hamiltonian(z, params, V), x, V.analytic))
    D2C = sym(derivative_matrix(lambda z: grad_casimir(z, params), x, True))
    M = D2H - lam * D2C
    n = gC / np.linalg.norm(gC)
    basis = np.linalg.svd(np.eye(5) - np.outer(n, n))[0][:, :4]
    R = basis.T @ M @ basis
    if abs(np.linalg.det(R)) < 1e-10:
        return (0, 0, 4)
    w = np.linalg.eigvalsh(R)
    n_plus = int(np.sum(w > tol.eigenvalue))
    n_minus = int(np.sum(w < -tol.eigenvalue))
    return n_plus, n_minus, 4 - n_plus - n_minus


@pytest.mark.parametrize("table", [False, True])
def test_signature_arrays_equal_per_record_reference(table):
    """Every entry of the 50 x 50 acceptance grid: one batched call against
    the per-record reference, and hessian_signature on each record."""
    grid = closed_form_grid(np.linspace(0.2, np.pi - 0.2, 50), np.linspace(0.1, 5.0, 50))
    grid = grid.take(grid.residual <= 1e-9)
    params = identical_params(grid.B)
    V = _table_cot() if table else cot_potential(params)
    sigs = signature_arrays(grid.states(), params, V)
    assert sigs.shape == (grid.q.size, 3) and grid.q.size > 5000
    assert set(map(tuple, sigs.tolist())) >= {(4, 0, 0), (2, 2, 0)}
    for i, (sig, rec) in enumerate(zip(map(tuple, sigs.tolist()), grid.records())):
        assert sig == _ref_hessian_signature(rec, V), (rec.family, rec.state.q, rec.params.B)
        if i % 10 == 0:
            assert hessian_signature(rec, V, OFF_TABLE if table else DEFAULT_TOL) == sig


def test_signatures_equal_the_svd_reference_on_general_records():
    """The signature of `linearize` against the SVD-basis reference on
    general records, where masses and charges differ from draw to draw:
    criterion 12's draws (seed 12), alternately under V = cot and under the
    256-node table of the benchmark's `general` workload."""
    cases = _general_cases(12, nodes=256)
    assert {V.analytic for _, V in cases} == {True, False} and len(cases) > 400
    sigs = [linearize(rec, V).hessian_signature for rec, V in cases]
    assert len(set(sigs)) > 1
    assert sigs == [_ref_hessian_signature(rec, V) for rec, V in cases]


def test_signature_at_the_meeting_point_is_singular():
    """The restricted Hessian of the Type II meeting point (a cusp) is
    singular: the signature is (0, 0, 4) there instead of an error."""
    from magsphere.atlas import B_CRITICAL, Q_CRITICAL

    rec = type2(Q_CRITICAL, B_CRITICAL)[0]
    V = cot_potential(rec.params)
    assert _ref_hessian_signature(rec, V) == (0, 0, 4)
    assert hessian_signature(rec, V) == (0, 0, 4)
    assert linearize(rec, V).hessian_signature == (0, 0, 4)
    x = np.stack([rec.state.as_array(), type2(1.8, 2.5)[0].state.as_array()], axis=-1)
    params = identical_params(np.array([B_CRITICAL, 2.5]))
    assert signature_arrays(x, params, V).tolist() == [[0, 0, 4], [4, 0, 0]]


def test_type2_boundaries_emanate_from_degenerate_point():
    """Stability-transition points of both isosceles branches approach the
    threshold minimum as B does."""
    for B in (1.77, 1.8):
        from magsphere.atlas import type2_window

        q0, q1 = type2_window(B)
        # transitions (cusps of C) lie inside the existence window, which
        # shrinks onto q = 2pi/3
        assert abs(q0 - 2 * np.pi / 3) < 0.4
        assert abs(q1 - 2 * np.pi / 3) < 0.4


def _reference_linearize(x, params, V, tol=DEFAULT_TOL):
    """The body of `linearize` before it took J = sigma M, on states x of
    shape (5, ...): the Jacobian of rhs differentiated directly, and the
    signature from a second Hessian with D2C by complex step.  Returns J,
    (a, b), classes and signatures."""
    J = jacobian_matrix(x, params, V)
    a, b = char_coefficients(J)
    last = (*range(1, x.ndim), 0)
    gH = np.array(grad_hamiltonian(x, params, V)).transpose(last)
    gC = np.array(grad_casimir(x, params)).transpose(last)
    cc = (gC * gC).sum(axis=-1)
    lam = (gH * gC).sum(axis=-1) / cc
    sym = lambda M: 0.5 * (M + M.swapaxes(-1, -2))
    D2H = sym(derivative_matrix(lambda z: grad_hamiltonian(z, params, V), x, V.analytic))
    D2C = sym(derivative_matrix(lambda z: grad_casimir(z, params), x, True))
    M = D2H - lam[..., None, None] * D2C
    n = gC / np.sqrt(cc)[..., None]
    basis = np.linalg.svd(np.eye(5) - n[..., :, None] * n[..., None, :])[0][..., :4]
    R = basis.swapaxes(-1, -2) @ M @ basis
    w = np.linalg.eigvalsh(R)
    n_plus = (w > tol.eigenvalue).sum(axis=-1)
    n_minus = (w < -tol.eigenvalue).sum(axis=-1)
    sig = np.stack([n_plus, n_minus, 4 - n_plus - n_minus], axis=-1)
    sig = np.where((np.abs(np.linalg.det(R)) < 1e-10)[..., None], (0, 0, 4), sig)
    return J, (a, b), classify(a, b, tol.classify), sig


def _general_table(nodes=400):
    """The potential cot q + q/2 tabulated on `nodes` nodes (256 in the
    benchmark's `general` workload)."""
    q = np.linspace(0.1, np.pi - 0.1, nodes)
    return table_potential(q, 1 / np.tan(q) + 0.5 * q)


def _general_cases(seed, nodes=400):
    """(record, V) for the items of the benchmark's `general` workload at a
    seed: criterion-12 draws, alternately under V = cot and under
    `_general_table(nodes)`, each record polished by solve_general under
    its V."""
    rng = np.random.default_rng(seed)
    table = _general_table(nodes)
    cases = []
    while len(cases) < 200:
        q = rng.uniform(0.25, np.pi - 0.25)
        if abs(q - np.pi / 2) < 0.05:
            continue
        params = SystemParams(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                              rng.choice([-1, 1]) * rng.uniform(0.5, 2),
                              rng.choice([-1, 1]) * rng.uniform(0.5, 2), rng.uniform(0.1, 5))
        cases.append((q, params, table if len(cases) % 2 else cot_potential(params)))
    return [(r, V) for q, params, V in cases for r in solve_general(q, params, V)]


def test_general_records_do_not_depend_on_the_charges_numeric_type():
    """solve_general records and their linearize reports are the same bit
    for bit whether the charges come in as np.float64, as criterion 12 and
    the benchmark's `general` workload draw them, or as Python floats."""
    table = _general_table(256)
    rng = np.random.default_rng(1)

    def answers(q, params, V):
        reps = [(r, linearize(r, V)) for r in solve_general(q, params, V)]
        return [(r.state, r.H, r.C, r.residual, rep.jacobian.tobytes(), rep.char_coeffs,
                 rep.classification, rep.hessian_signature) for r, rep in reps]

    for k in range(40):
        q = rng.uniform(0.25, 1.5) if k % 2 else rng.uniform(1.65, np.pi - 0.25)
        mu1, mu2 = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
        e1, e2 = (rng.choice([-1, 1]) * rng.uniform(0.5, 2) for _ in range(2))
        assert type(e1) is np.float64
        B = rng.uniform(0.1, 5)
        numpy_params = SystemParams(mu1, mu2, e1, e2, B)
        float_params = SystemParams(mu1, mu2, float(e1), float(e2), B)
        for V in (cot_potential(numpy_params), table):
            assert answers(q, numpy_params, V) == answers(q, float_params, V)


def _assert_as_reference(rep, J, ab, cls, sig, j_bound, ab_bound):
    """One report against the reference: the same class and signature, the
    Jacobian within j_bound and (a, b) within ab_bound, relative to max|J|
    and max(|a|, |b|)."""
    assert rep.classification is cls
    assert rep.hessian_signature == tuple(sig)
    assert np.max(np.abs(rep.jacobian - J)) <= j_bound * np.max(np.abs(J))
    scale = max(abs(ab[0]), abs(ab[1]))
    assert max(abs(rep.char_coeffs[0] - ab[0]), abs(rep.char_coeffs[1] - ab[1])) <= ab_bound * scale


def test_linearize_equals_the_direct_jacobian_on_the_acceptance_grid():
    """J = sigma M against the direct Jacobian at every entry of the 50 x 50
    acceptance grid (V = cot).  Measured worst: |J - sigma M| 4.9e-15 max|J|,
    (a, b) 1.1e-11 max(|a|, |b|)."""
    grid = closed_form_grid(np.linspace(0.2, np.pi - 0.2, 50), np.linspace(0.1, 5.0, 50)).cut()
    params = identical_params(grid.B)
    J, (a, b), classes, sigs = _reference_linearize(grid.states(), params, cot_potential(params))
    recs = grid.records()
    assert len(recs) > 5000
    for k, rec in enumerate(recs):
        rep = linearize(rec, cot_potential(rec.params))
        _assert_as_reference(rep, J[k], (a[k], b[k]), classes[k], sigs[k], 1e-12, 1e-10)


@pytest.mark.parametrize("seed", [1, 7])
def test_linearize_equals_the_direct_jacobian_on_general_records(seed):
    """The same on the general records of seeds 1 and 7.  Measured worst
    over both seeds: cot |J - sigma M| 8.9e-14 max|J| and (a, b) 5.7e-13;
    table 5.2e-10 and 1.3e-7 (the reference's central differences against
    the closed-form D2H)."""
    cases = _general_cases(seed)
    assert {V.analytic for _, V in cases} == {True, False} and len(cases) > 400
    for rec, V in cases:
        ref = _reference_linearize(rec.state.as_array(), rec.params, V)
        bounds = (1e-12, 1e-10) if V.analytic else (1e-7, 1e-6)
        _assert_as_reference(linearize(rec, V), *ref, *bounds)


def test_linearize_checks_the_residual_under_its_potential():
    """linearize takes the record's residual under the V it is handed, from
    one rhs call: a cot Type II record is refused under a 256-node table of
    cot, where it is off equilibrium, and accepted under cot."""
    nodes = np.linspace(0.1, np.pi - 0.1, 256)
    table = table_potential(nodes, 1 / np.tan(nodes))
    rec = type2(2.0, 2.5)[0]
    V = cot_potential(rec.params)
    assert rec.residual < DEFAULT_TOL.record_residual
    with pytest.raises(ResidualTooLarge):
        linearize(rec, table)
    with pytest.raises(ResidualTooLarge):
        hessian_signature(rec, table)
    assert linearize(rec, V).hessian_signature == hessian_signature(rec, V)
