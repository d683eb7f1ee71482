import json
import warnings

import numpy as np
import pytest

from magsphere import atlas, cli, equilibria, stability
from magsphere.core import (
    DEFAULT_TOL,
    DomainError,
    NearRightAngle,
    NoAdmissibleRoot,
    ResidualTooLarge,
    SystemParams,
    cot_potential,
    identical_params,
    table_potential,
)
from magsphere.equilibria import (
    Family,
    RightAngleFamily,
    admissibility,
    casimir_on_type1,
    closed_form_grid,
    make_record,
    quartic_coefficients,
    right_angle_discriminant,
    solve_general,
    solve_right_angle,
    type1,
    type1_arrays,
    type2,
    type2_arrays,
    type2_threshold,
)
from magsphere.reduced import residual, rhs
from magsphere.stability import hessian_signature, linearize, stability_rows

import reference
from reference import derivative_matrix, jacobian_matrix, m2_from_m3


def test_type1_records_are_equilibria():
    for q in np.linspace(0.25, np.pi - 0.25, 15):
        if abs(q - np.pi / 2) < 0.05:
            continue
        for B in (0.0, 1.0, 4.0):
            for rec in type1(q, B):
                assert rec.residual < 1e-10
                assert rec.state.m1 == 0 and rec.state.p == 0


def test_type1_rejects_right_angle():
    with pytest.raises(NearRightAngle):
        type1(np.pi / 2, 1.0)


@pytest.mark.parametrize("closed_form", [type1, type2])
@pytest.mark.parametrize("q", [0.0, np.pi - 1e-14, np.nan], ids=["zero", "near_pi", "nan"])
def test_scalar_closed_forms_check_q_first(closed_form, q):
    """A q outside the guarded interval (NaN too) is a DomainError before
    any kernel runs, so nothing warns on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="outside guarded interval"):
            closed_form(q, 2.5)


def test_type2_counting_and_threshold():
    q = 2.0
    Bc = type2_threshold(q)
    assert len(type2(q, Bc - 0.01)) == 0
    assert len(type2(q, Bc + 0.01)) == 2
    recs = type2(q, Bc)
    assert len(recs) == 1 and recs[0].degenerate


def test_type2_product_negative():
    """m2 * m3 < 0 on the whole isosceles family."""
    for q in np.linspace(0.5, 3.0, 12):
        for B in (2.0, 3.0, 8.0):
            for rec in type2(q, B):
                assert rec.state.m2 * rec.state.m3 < 0


def test_type2_at_reference_point():
    recs = type2(2 * np.pi / 3, 2.0)
    assert len(recs) == 2
    assert all(r.residual < 1e-10 for r in recs)


def test_threshold_minimum():
    assert type2_threshold(np.pi / 2) == pytest.approx(2.0, abs=1e-12)
    assert type2_threshold(2 * np.pi / 3) == pytest.approx((4 / 3) * 3**0.25, abs=1e-12)


def test_casimir_on_type1_matches_records():
    for q in (0.4, 1.0, 2.0, 2.8):
        for B in (0.0, 1.0, 3.0):
            cf = casimir_on_type1(q, B)
            for rec in type1(q, B):
                assert rec.C == pytest.approx(cf, rel=1e-12)


def test_casimir_on_type1_limits():
    assert casimir_on_type1(np.pi / 3, 0.0) == pytest.approx(4 * np.sqrt(3))
    assert casimir_on_type1(3.13, 1.0) < 0.01
    assert casimir_on_type1(0.05, 1.0) > 1e4
    # monotone toward the ends
    qs = np.linspace(2.5, 3.1, 50)
    vals = [casimir_on_type1(q, 1.0) for q in qs]
    assert np.all(np.diff(vals) < 0)


def test_solve_general_matches_closed_forms():
    for q in (0.7, 1.2, 2.0, 2.6):
        for B in (0.5, 2.5):
            params = identical_params(B)
            V = cot_potential(params)
            gen = solve_general(q, params, V)
            closed = list(type1(q, B)) + type2(q, B)
            assert len(gen) == len(closed)
            for c in closed:
                d = min(
                    abs(g.state.m2 - c.state.m2) + abs(g.state.m3 - c.state.m3)
                    for g in gen
                )
                assert d < 1e-9


def test_solve_general_nonidentical(rng):
    for _ in range(20):
        params = SystemParams(
            rng.uniform(0.5, 3),
            rng.uniform(0.5, 3),
            rng.choice([-1, 1]) * rng.uniform(0.5, 2),
            rng.choice([-1, 1]) * rng.uniform(0.5, 2),
            rng.uniform(0.1, 5),
        )
        V = cot_potential(params)
        q = rng.uniform(0.3, 2.8)
        if abs(q - np.pi / 2) < 0.05:
            continue
        recs = solve_general(q, params, V)
        assert len(recs) >= 1
        for r in recs:
            assert r.residual < 1e-9


def test_solve_general_guards():
    params = identical_params(1.0)
    V = cot_potential(params)
    with pytest.raises(NearRightAngle):
        solve_general(np.pi / 2, params, V)


def test_right_angle_counts():
    for B, n in ((0.5, 0), (1.0, 0), (1.9, 0), (2.1, 2), (3.0, 2), (5.0, 2)):
        params = identical_params(B)
        recs = solve_right_angle(params, cot_potential(params))
        assert len(recs) == n, (B, recs)
    recs = solve_right_angle(identical_params(2.0), cot_potential(identical_params(2.0)))
    assert len(recs) == 1 and recs[0].degenerate


def test_right_angle_records_are_equilibria():
    params = identical_params(3.0)
    V = cot_potential(params)
    for rec in solve_right_angle(params, V):
        assert rec.residual < 1e-10
        assert rec.state.q == pytest.approx(np.pi / 2)


def test_right_angle_zero_field():
    # equal masses: one-parameter hyperbola of solutions
    p = SystemParams(1.5, 1.5, 1.0, 1.0, 0.0)
    fam = solve_right_angle(p, cot_potential(p))
    assert isinstance(fam, RightAngleFamily)
    assert fam.product == pytest.approx(1.5)  # -mu * V'(pi/2) = mu * e1 e2
    st = fam.member(0.7)
    assert residual(st.as_array(), p, cot_potential(p)) < 1e-12
    # unequal masses: no solutions at all
    p2 = SystemParams(1.0, 2.0, 1.0, 1.0, 0.0)
    assert solve_right_angle(p2, cot_potential(p2)) == []


def test_right_angle_negative_discriminant():
    p = SystemParams(1.0, 1.0, 1.0, -1.0, 0.5)
    assert right_angle_discriminant(p, cot_potential(p)) < 0
    assert solve_right_angle(p, cot_potential(p)) == []


def test_record_serialization():
    rec = type1(1.0, 2.5)[0]
    d = rec.to_dict()
    assert d["family"] == "TypeI+"
    assert set(d) == {"family", "q", "B", "m2", "m3", "H", "C", "residual", "degenerate"}


def test_scalar_closed_forms_equal_the_array_kernels():
    """The scalar records are the kernels' m2, m3 and count on a one-cell
    array, and the closed_form_grid entries of the same cell in H, C,
    residual and degenerate, bit for bit, so a grid and a scalar call agree
    at the residual cut."""
    qs = np.linspace(0.1, np.pi - 0.1, 31)
    qs = qs[np.abs(qs - np.pi / 2) > 1e-3]
    Bs = np.linspace(0.2, 9.0, 23)
    # points on the isosceles threshold (count 1) and just below it (count 0)
    t = np.array([type2_threshold(x) for x in qs])
    B_axis = np.concatenate([Bs, t, 0.9 * t])
    iq, iB = (a.ravel() for a in np.meshgrid(np.arange(len(qs)), np.arange(len(Bs)), indexing="ij"))
    iq = np.concatenate([iq, np.arange(len(qs)), np.arange(len(qs))])
    iB = np.concatenate([iB, len(Bs) + np.arange(len(qs)), len(Bs) + len(qs) + np.arange(len(qs))])
    q, B = qs[iq], B_axis[iB]
    one, two = type1_arrays(q, B), type2_arrays(q, B)
    assert np.sum(two.count[-2 * len(qs):-len(qs)] == 1) > len(qs) // 2
    assert set(two.count[-len(qs):]) == {0}
    grid = closed_form_grid(qs, B_axis)
    entries = {}
    for cell, rec in zip(grid.cell.tolist(), grid.records()):
        entries.setdefault(cell, []).append(rec)
    for i in range(len(q)):
        recs = [*type1(q[i], B[i]), *type2(q[i], B[i])]
        assert len(recs) == 2 + two.count[i]
        cell = entries[iq[i] * len(B_axis) + iB[i]]
        assert len(cell) == len(recs)
        for k, rec in enumerate(recs):
            forms, row = (one, k) if k < 2 else (two, k - 2)
            assert (rec.state.m2, rec.state.m3) == (forms.m2[row, i], forms.m3[row, i])
            assert rec.degenerate == (forms.count[i] == 1)
            assert rec == cell[k], (q[i], B[i], rec.family)
        assert np.all(np.isnan(two.m2[two.count[i]:, i]))
        assert np.all(np.isnan(two.m3[two.count[i]:, i]))


def test_closed_form_grid_rejects_an_unknown_family():
    with pytest.raises(ValueError):
        closed_form_grid([1.0], [2.5], "typo")


def _reference_polish(m2, m3, q, params, V, iters=30, tol=1e-13):
    """Newton on (m1', p') = 0 in (m2, m3) with a hand-written 2x2 Jacobian
    (complex step, or central differences with step 1e-7)."""

    def F(m2, m3):
        x = np.array([0.0, m2, m3, q, 0.0], dtype=np.result_type(m2, m3, float))
        return np.array(rhs(x, params, V))[[0, 4]]

    z = np.array([m2, m3], dtype=float)
    for _ in range(iters):
        Fz = F(*z)
        if np.max(np.abs(Fz)) < tol:
            break
        if V.analytic:
            h = 1e-200
            dm2, dm3 = F(z[0] + 1j * h, z[1]).imag, F(z[0], z[1] + 1j * h).imag
            J = np.column_stack([dm2, dm3]) / h
        else:
            d = 1e-7
            dm2 = F(z[0] + d, z[1]) - F(z[0] - d, z[1])
            dm3 = F(z[0], z[1] + d) - F(z[0], z[1] - d)
            J = np.column_stack([dm2, dm3]) / (2 * d)
        try:
            z = z - np.linalg.solve(J, Fz)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(z)):
            return None
    return z if np.max(np.abs(F(*z))) <= 1e-10 else None


def _reference_solve_general(q, params, V, tol=DEFAULT_TOL):
    """The two-branch loop: both m2_from_m3 signs of every admissible real
    quartic root are polished; duplicates and records at or above the
    residual cut are dropped."""
    roots = np.roots(quartic_coefficients(q, params, V))
    scale = max(1.0, np.max(np.abs(roots)))
    found = []
    for r in roots:
        m3 = float(r.real)
        if abs(r.imag) > 1e-8 * scale or admissibility(m3, q, params) < -1e-12:
            continue
        for sign in (1.0, -1.0):
            z = _reference_polish(m2_from_m3(m3, sign, q, params), m3, q, params, V)
            if z is None or admissibility(z[1], q, params) < -1e-12:
                continue
            close = lambda a, b: abs(a - b) < 1e-7 * max(1, abs(b))
            if not any(close(z[0], u) and close(z[1], v) for u, v in found):
                found.append((float(z[0]), float(z[1])))
    records = [make_record(Family.General, m2, m3, q, params, V) for m2, m3 in found]
    return [r for r in records if r.residual < tol.record_residual]


def _criterion_12_systems():
    """The 500 (q, params) draws of acceptance criterion 12."""
    rng = np.random.default_rng(12)
    out = []
    while len(out) < 500:
        q = rng.uniform(0.25, np.pi - 0.25)
        if abs(q - np.pi / 2) < 0.05:
            continue
        params = SystemParams(
            rng.uniform(0.5, 3),
            rng.uniform(0.5, 3),
            rng.choice([-1, 1]) * rng.uniform(0.5, 2),
            rng.choice([-1, 1]) * rng.uniform(0.5, 2),
            rng.uniform(0.1, 5),
        )
        out.append((q, params))
    return out


def _criterion_02_systems():
    """The identical-particle (q, B) grid of acceptance criterion 02."""
    grid_q = np.linspace(0.2, np.pi - 0.2, 50)
    qs = grid_q[np.abs(grid_q - np.pi / 2) > 0.05][::3]
    return [(q, identical_params(B)) for q in qs for B in np.linspace(0.1, 5.0, 50)[::3]]


def _table_cot_plus_linear():
    """V = cot q + q/2 tabulated on 256 nodes."""
    nodes = np.linspace(0.1, np.pi - 0.1, 256)
    return table_potential(nodes, 1 / np.tan(nodes) + nodes / 2)


@pytest.mark.parametrize("case", ["criterion12_cot", "criterion12_table", "criterion02"])
def test_solve_general_polishes_one_branch_per_root(case):
    """solve_general polishes only the sign branch each root satisfies and
    finds the records of the two-branch loop (same count, same records as a
    set to 1e-12 relative in m2 and m3), in the order of np.roots."""
    systems = _criterion_02_systems() if case == "criterion02" else _criterion_12_systems()
    table = _table_cot_plus_linear() if case == "criterion12_table" else None
    for q, params in systems:
        V = table or cot_potential(params)
        got = solve_general(q, params, V)
        want = _reference_solve_general(q, params, V)
        assert len(got) == len(want), (q, params)
        for w in want:
            err = min(
                max(abs(g.state.m2 - w.state.m2) / abs(w.state.m2),
                    abs(g.state.m3 - w.state.m3) / abs(w.state.m3))
                for g in got
            )
            assert err <= 1e-12, (q, params, err)
        roots = np.roots(quartic_coefficients(q, params, V))
        seeds = [int(np.argmin(np.abs(roots - g.state.m3))) for g in got]
        assert seeds == sorted(set(seeds)), (q, params, seeds)


# The general solver's per-root steps as they ran on numpy arrays before
# they ran on Python floats: the reference for their records, bit for bit.

def _array_branch(m3, q, params, V):
    m2 = m2_from_m3(m3, np.array([1.0, -1.0]), q, params)
    x = np.stack([np.zeros(2), m2, np.full(2, m3), np.full(2, q), np.zeros(2)])
    f = rhs(x, params, V)
    return float(m2[np.argmin(np.maximum(np.abs(f[0]), np.abs(f[4])))])


def _array_polish(m2, m3, q, params, V, iters=30, tol=1e-13):
    f = lambda z: rhs(z, params, V)
    x = np.array([0.0, m2, m3, q, 0.0])
    for i in range(iters + 1):
        F = np.array(f(x))[[0, 4]]
        if np.max(np.abs(F)) < tol or i == iters:
            break
        J = derivative_matrix(f, x, V.analytic)[[0, 4]][:, [1, 2]]
        try:
            x[1:3] -= np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(x[1:3])):
            return None
    return x[1:3] if np.max(np.abs(F)) <= 1e-10 else None


def _array_make_record(family, m2, m3, q, params, V, degenerate=False):
    x = np.array([0.0, m2, m3, q, 0.0], dtype=float)
    values = equilibria.equilibrium_values(x, params, V)
    return equilibria._record(family, m2, m3, q, params, *values, degenerate)


def _solutions(params, V, q):
    """(family, m2, m3, H, C, residual) of solve_general at q and of
    solve_right_angle, in order."""
    right = solve_right_angle(params, V)
    records = solve_general(q, params, V) + (right if isinstance(right, list) else [])
    return [(r.family, r.state.m2, r.state.m3, r.H, r.C, r.residual) for r in records]


@pytest.mark.parametrize("case", ["criterion12_cot", "criterion12_table", "criterion02"])
def test_float_solver_equals_the_array_reference(monkeypatch, case):
    """The records of solve_general and solve_right_angle, whose branch
    choice, Newton polish and record run on Python floats, equal bit for
    bit those of the same steps on numpy arrays."""
    systems = _criterion_02_systems() if case == "criterion02" else _criterion_12_systems()
    table = _table_cot_plus_linear() if case == "criterion12_table" else None
    pairs = [(p, table or cot_potential(p), q) for q, p in systems]
    got = [_solutions(*pair) for pair in pairs]
    monkeypatch.setattr(equilibria, "_branch", _array_branch)
    monkeypatch.setattr(equilibria, "_polish", _array_polish)
    monkeypatch.setattr(equilibria, "make_record", _array_make_record)
    want = [_solutions(*pair) for pair in pairs]
    assert got == want


def _records_and_reports(systems, table, lin):
    """repr of the solve_general and solve_right_angle records of each
    system, and (a, b), class, signature and the bytes of J of `lin` on
    each record."""
    out = []
    for q, params in systems:
        V = table or cot_potential(params)
        right = solve_right_angle(params, V)
        records = solve_general(q, params, V) + (right if isinstance(right, list) else [])
        out.append(repr(records))
        for r in records:
            rep = lin(r, V)
            J = rep.jacobian
            assert rep.jacobian is J
            out.append((rep.char_coeffs, rep.classification, rep.hessian_signature, J.tobytes()))
    return out


@pytest.mark.parametrize("table", [False, True], ids=["cot", "table"])
def test_float_path_equals_the_numpy_scalar_reference(monkeypatch, table):
    """Criterion 12's draws under cot and under the 256-node table: the
    records of solve_general and solve_right_angle and the reports of
    linearize, whose per-record steps run on Python floats, equal byte for
    byte those of the same steps on numpy scalars and arrays (`reference`)."""
    systems = _criterion_12_systems()
    table = _table_cot_plus_linear() if table else None
    got = _records_and_reports(systems, table, linearize)
    both_signs = np.array([1.0, -1.0])
    monkeypatch.setattr(equilibria, "quartic_coefficients", reference.quartic_coefficients)
    monkeypatch.setattr(equilibria, "admissibility", reference.admissibility)
    monkeypatch.setattr(equilibria, "m2_from_m3", lambda m3, q, params: tuple(
        reference.m2_from_m3(m3, both_signs, q, params).tolist()))
    monkeypatch.setattr(equilibria, "equilibrium_values", reference.equilibrium_values)
    want = _records_and_reports(systems, table, reference.linearize)
    assert len(got) > 2000 and got == want


def test_the_jacobian_is_built_on_first_read(monkeypatch):
    """linearize builds no Jacobian.  The first read of a report's
    `jacobian` builds it, once, and it has the bytes of J built eagerly
    from the blocks of the same state, on criterion 12's records."""
    eager, built = stability._jacobian, []
    monkeypatch.setattr(stability, "_jacobian", lambda *blocks: built.append(1) or eager(*blocks))
    count = 0
    for q, params in _criterion_12_systems():
        V = cot_potential(params)
        for r in solve_general(q, params, V):
            rep = linearize(r, V)
            assert not built
            J = rep.jacobian
            assert rep.jacobian is J and len(built) == 1
            s = r.state
            A, K, X, _ = stability._blocks((s.m1, s.m2, s.m3, s.q, s.p), params, V)
            XK = stability._coefficients(A, K, X)[2]
            assert J.shape == (5, 5) and J.tobytes() == eager(A, XK, X).tobytes()
            built.clear()
            count += 1
    assert count > 500


@pytest.mark.parametrize("table", [False, True], ids=["cot", "table"])
def test_general_solver_hands_rhs_python_floats(monkeypatch, table):
    """Every state that _branch, _polish and make_record pass to rhs is a
    tuple of five Python floats, none of them complex; each Newton step
    makes exactly one rhs call, since its block is in closed form."""
    q, params = _criterion_12_systems()[3]
    V = _table_cot_plus_linear() if table else cot_potential(params)
    states, steps = [], []
    rhs0, block0 = equilibria.rhs, equilibria._block

    def recorder(x, params, V):
        states.append(x)
        return rhs0(x, params, V)

    def block(*args):
        steps.append(len(states))
        return block0(*args)

    monkeypatch.setattr(equilibria, "rhs", recorder)
    monkeypatch.setattr(equilibria, "_block", block)
    solutions = _solutions(params, V, q)
    assert states and steps
    for x in states:
        assert type(x) is tuple and [type(v) for v in x] == [float] * 5, x

    _, m2, m3, *_ = solutions[0]
    for step, args, calls in ((equilibria._branch, (m3,), 2),
                              (equilibria.make_record, (Family.General, m2, m3), 1)):
        del states[:]
        step(*args, q, params, V)
        assert len(states) == calls
    del states[:], steps[:]
    assert equilibria._polish(m2 * (1 + 1e-6), m3, q, params, V) is not None
    # step k takes its block after the k-th rhs call; one more call ends the loop
    assert len(steps) >= 2 and steps == list(range(1, len(steps) + 1))
    assert len(states) == len(steps) + 1


@pytest.mark.parametrize("case", ["criterion12_cot", "criterion12_table", "criterion02"])
def test_block_equals_the_reference_jacobian(case):
    """The closed-form (m1', p') x (m2, m3) block of the polish against the
    same block of the reference Jacobian of rhs (complex step for cot,
    central differences for a table), at every record of the systems and
    at the record with m2 and m3 moved by 1e-3 relative, off equilibrium.
    Measured worst, relative to the largest entry: cot 1.1e-15, table
    3.1e-9 (the central-difference error)."""
    systems = _criterion_02_systems() if case == "criterion02" else _criterion_12_systems()
    table = _table_cot_plus_linear() if case == "criterion12_table" else None
    bound = 1e-8 if table else 1e-14
    for q, params in systems:
        V = table or cot_potential(params)
        for rec in solve_general(q, params, V):
            for k in (1.0, 1.001):
                m2, m3 = rec.state.m2 * k, rec.state.m3 / k
                got = np.array(equilibria._block(m2, m3, q, params)).reshape(2, 2)
                x = np.array([0.0, m2, m3, q, 0.0])
                want = jacobian_matrix(x, params, V)[[0, 4]][:, [1, 2]]
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err <= bound, (q, params, k, err)


@pytest.mark.parametrize("q", [0.0, np.nan, 1e-9, -1.0, np.pi])
def test_solve_general_checks_q_before_it_computes(tmp_path, capsys, q):
    """A q outside [Q_EDGE, pi - Q_EDGE] or NaN is a DomainError, from the
    library and from `magsphere equilibria` (exit 2), where it used to be a
    ZeroDivisionError traceback (0), an empty list (NaN) or NoAdmissibleRoot."""
    with pytest.raises(DomainError, match="outside guarded interval"):
        solve_general(q, _GENERAL, cot_potential(_GENERAL))
    out = tmp_path / "r.json"
    assert cli.main(["equilibria", "--mu1", "1.3", "--B", "1", "--q", repr(q),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("DomainError: q=")
    assert not out.exists()


@pytest.mark.parametrize("q", [0.0, np.nan, 1e-9, -1.0, np.pi])
def test_closed_form_grid_checks_q_before_it_computes(tmp_path, capsys, q):
    """The closed-form path checks q as the general one does: a q axis whose
    min or max leaves [Q_EDGE, pi - Q_EDGE], or that holds NaN, is a
    DomainError before any kernel runs, and `magsphere equilibria` and
    `magsphere stability` exit 2 on it.  They used to write `[]` (or drop the
    cell) and exit 0, with RuntimeWarnings at q = 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for axis in ([q], [1.0, q], [q, 2.0, 2.5]):
            with pytest.raises(DomainError, match="outside guarded interval"):
                closed_form_grid(axis, [2.5])
        out = tmp_path / "r.json"
        assert cli.main(["equilibria", "--B", "2.5", "--q", repr(q), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("DomainError: q=")
        assert not out.exists()
    if np.isfinite(q):
        grid_q = f"{q!r}:3:4" if q < 3 else f"1:{q!r}:4"
        assert cli.main(["stability", f"--grid-q={grid_q}", "--grid-B", "1:2:2",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("DomainError: q=")
        assert not out.exists()


def _kept(fn, exc) -> bool:
    """False if fn raises exc, True if it returns."""
    try:
        fn()
    except exc:
        return False
    return True


def _cli_outputs(tmp_path, *argv) -> int:
    """Records (equilibria) or rows (stability) written by one CLI run."""
    out = tmp_path / "out"
    assert cli.main([*argv, "--family", "type1", "--out", str(out)]) == 0
    text = out.read_text()
    return len(json.loads(text)) if argv[0] == "equilibria" else text.count("\n") - 1


_V = cot_potential(identical_params(2.5))
_GENERAL = SystemParams(1.3, 0.7, 1.0, -2.0, 0.9)

# Every residual check, each on records built through
# equilibria.equilibrium_values: True iff the records are kept.
CUT_CHECKS = {
    "atlas.stability_grid": lambda tmp: atlas.stability_grid([1.0], [2.5]).cells[0]["entries"],
    "cmd_stability": lambda tmp: _cli_outputs(
        tmp, "stability", "--grid-q", "1:1.2:2", "--grid-B", "2.5:2.6:2") == 8,
    "cmd_equilibria": lambda tmp: _cli_outputs(tmp, "equilibria", "--q", "1.0", "--B", "2.5") == 2,
    "stability_rows": lambda tmp: _kept(
        lambda: stability_rows(closed_form_grid([1.0], [2.5], "type1"), _V), ResidualTooLarge),
    "linearize": lambda tmp: _kept(lambda: linearize(type1(1.0, 2.5)[0], _V), ResidualTooLarge),
    "hessian_signature": lambda tmp: _kept(
        lambda: hessian_signature(type1(1.0, 2.5)[0], _V), ResidualTooLarge),
    "solve_general": lambda tmp: _kept(
        lambda: solve_general(1.2, _GENERAL, cot_potential(_GENERAL)), NoAdmissibleRoot),
}
CUT = DEFAULT_TOL.record_residual


@pytest.mark.parametrize("residual", [np.nextafter(CUT, 0.0), CUT, np.nan],
                         ids=["just_below", "at_cut", "nan"])
@pytest.mark.parametrize("check", CUT_CHECKS)
def test_every_residual_check_applies_one_cut(monkeypatch, tmp_path, check, residual):
    """Each check keeps records whose residual is just below the cut and
    drops or rejects them exactly at the cut and with a NaN residual."""
    values = equilibria.equilibrium_values

    def injected(x, params, V):
        H, C, res = values(x, params, V)
        return H, C, np.full(np.shape(res), residual)

    monkeypatch.setattr(equilibria, "equilibrium_values", injected)
    # linearize and stability_rows take the residual under their V themselves,
    # stability_rows as max|rhs| over a batch
    monkeypatch.setattr(stability, "residual", lambda x, params, V: residual)
    monkeypatch.setattr(stability, "rhs",
                        lambda x, params, V: (np.full(np.shape(x[0]), residual),) * 5)
    assert bool(CUT_CHECKS[check](tmp_path)) == (residual < CUT)
