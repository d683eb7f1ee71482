import numpy as np
import pytest

from magsphere.core import (
    DomainError,
    NearRightAngle,
    SystemParams,
    cot_potential,
    identical_params,
)
from magsphere.equilibria import (
    Family,
    RightAngleFamily,
    casimir_on_type1,
    right_angle_discriminant,
    solve_general,
    solve_right_angle,
    type1,
    type1_arrays,
    type2,
    type2_arrays,
    type2_threshold,
)
from magsphere.reduced import residual


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
    """The scalar records are the kernels' values on a one-cell array, bit
    for bit, so a grid and a scalar call agree at the residual cut."""
    qs = np.linspace(0.1, np.pi - 0.1, 31)
    qs = qs[np.abs(qs - np.pi / 2) > 1e-3]
    q, B = (a.ravel() for a in np.meshgrid(qs, np.linspace(0.2, 9.0, 23), indexing="ij"))
    # points on the isosceles threshold (count 1) and just below it (count 0)
    q = np.concatenate([q, qs, qs])
    B = np.concatenate([B, [type2_threshold(x) for x in qs], [0.9 * type2_threshold(x) for x in qs]])
    one, two = type1_arrays(q, B), type2_arrays(q, B)
    assert np.sum(two.count[-2 * len(qs):-len(qs)] == 1) > len(qs) // 2
    assert set(two.count[-len(qs):]) == {0}
    for i in range(len(q)):
        for forms, recs in ((one, type1(q[i], B[i])), (two, type2(q[i], B[i]))):
            assert len(recs) == forms.count[i]
            for row, rec in enumerate(recs):
                got = (rec.state.m2, rec.state.m3, rec.H, rec.C, rec.residual)
                want = tuple(float(getattr(forms, k)[row, i]) for k in ("m2", "m3", "H", "C", "residual"))
                assert got == want, (q[i], B[i], rec.family)
                assert rec.degenerate == (forms.count[i] == 1)
        assert np.all(np.isnan(two.m2[two.count[i]:, i]))
