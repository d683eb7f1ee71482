import json

import numpy as np
import pytest

from magsphere import atlas
from magsphere.core import Q_EDGE, DomainError, cot_potential, identical_params
from magsphere.equilibria import type1, type2, type2_threshold
from magsphere.reduced import casimir_array, rhs
from magsphere.stability import classify

from reference import jacobian_matrix


def test_threshold_curve_values():
    curve = atlas.threshold_curve(np.linspace(0.5, 2.5, 9))
    for q, B in curve.points:
        assert B == pytest.approx(type2_threshold(q))
        # each sampled point carries exactly one degenerate record
        recs = type2(q, B)
        assert len(recs) == 1 and recs[0].degenerate
    assert curve.minimum == pytest.approx((2 * np.pi / 3, (4 / 3) * 3**0.25))


def test_type2_window_brackets_threshold():
    q0, q1 = atlas.type2_window(2.5)
    assert q0 < 2 * np.pi / 3 < q1
    assert type2_threshold(q0) == pytest.approx(2.5, abs=1e-10)
    assert type2_threshold(q1) == pytest.approx(2.5, abs=1e-10)
    with pytest.raises(DomainError):
        atlas.type2_window(1.0)


def _window_brentq(B):
    from scipy.optimize import brentq

    f = lambda q: type2_threshold(q) - B
    return (brentq(f, 1e-6, atlas.Q_CRITICAL, xtol=1e-14),
            brentq(f, atlas.Q_CRITICAL, np.pi - Q_EDGE, xtol=1e-14))


def _assert_window(B, ends, tol):
    q0, q1 = atlas.type2_window(B)
    assert q0 <= atlas.Q_CRITICAL <= q1
    assert np.max(np.abs(np.subtract((q0, q1), ends))) <= tol, B
    assert np.allclose([type2_threshold(q0), type2_threshold(q1)], B, rtol=1e-12, atol=0)


def test_type2_window_matches_brentq():
    """The closed-form ends against brentq on the threshold, over (B*, 10]
    and at B* + 1e-3, where the two ends have come within 0.03."""
    Bs = np.linspace(atlas.B_CRITICAL, 10.0, 501)[1:]
    for B in [*Bs, atlas.B_CRITICAL + 1e-3]:
        _assert_window(B, _window_brentq(B), 1e-13)


def test_type2_window_where_the_ends_merge():
    """At B* + 1e-9 the ends are 3e-5 apart, and an error of one ulp in B^-2
    moves each by about 1.5e-12: brentq itself lands 1e-12 and 3e-12 from
    the root.  So the ends are checked against the roots of
    u^3 (1 - u) = B^-4 in 50 digits, to 5e-12.  Within an ulp or two of B*
    the window is the point 2 pi / 3."""
    mpmath = pytest.importorskip("mpmath")
    B = atlas.B_CRITICAL + 1e-9
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, -1, 0, 0, mpmath.mpf(B) ** -4], maxsteps=200,
                                 extraprec=200)
        ends = [float(2 * mpmath.asin(mpmath.sqrt(r.real))) for r in roots if r.real > 0]
    _assert_window(B, sorted(ends), 5e-12)
    B = np.nextafter(atlas.B_CRITICAL, np.inf)
    _assert_window(B, (atlas.Q_CRITICAL, atlas.Q_CRITICAL), 1e-6)
    with pytest.raises(DomainError):
        atlas.type2_window(atlas.B_CRITICAL)


def test_energy_casimir_branch_structure():
    d = atlas.energy_casimir_diagram(2.5)
    tags = {b.tag for b in d.branches}
    assert tags == {"TypeI_acute", "TypeI_obtuse", "TypeII_plus", "TypeII_minus"}
    by_tag = {b.tag: b for b in d.branches}
    # obtuse branch spans C -> 0 with H -> -inf, no cusp
    ob = by_tag["TypeI_obtuse"]
    assert ob.cusps == []
    assert ob.C[-1] < 0.1 and ob.H[-1] < -10
    assert by_tag["TypeI_acute"].cusps != []
    assert len(d.cusps) == 3


def test_energy_casimir_below_critical_has_no_type2():
    d = atlas.energy_casimir_diagram(1.0)
    assert {b.tag for b in d.branches} == {"TypeI_acute", "TypeI_obtuse"}


def _bits(*values) -> tuple:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("B", [2.5, 5.0])
def test_diagram_values_equal_the_closed_form_records(B):
    """Each `ec` branch point is the (C, H) of the type1/type2 record of its
    row at its q, and each `bc` trace's C_plus/C_minus is the C of the type2
    records, with C_minus = C_plus where there is one record, and the
    meeting point's C is that of the one type2 record there, bit for bit."""
    rows = {"TypeI_acute": (type1, 0), "TypeI_obtuse": (type1, 0),
            "TypeII_plus": (type2, 0), "TypeII_minus": (type2, 1)}
    points = 0
    for b in atlas.energy_casimir_diagram(B).branches:
        source, row = rows[b.tag]
        for q, C, H in zip(b.q.tolist(), b.C.tolist(), b.H.tolist()):
            rec = source(q, B)[row]
            assert _bits(C, H) == _bits(rec.C, rec.H), (b.tag, q)
            points += 1
    assert points == 798
    region = atlas.bc_region(np.array([B]))
    (trace,) = region.traces
    for q, C_plus, C_minus in zip(*(trace[k].tolist() for k in ("q", "C_plus", "C_minus"))):
        recs = type2(q, B)
        assert _bits(C_plus, C_minus) == _bits(recs[0].C, recs[-1].C), q
    (star,) = type2(atlas.Q_CRITICAL, atlas.B_CRITICAL)
    assert _bits(*region.meeting_point) == _bits(atlas.B_CRITICAL, star.C)


def test_halfplane_witness_monotone():
    H = atlas.image_halfplane_witness(3.0, 2.5)
    qs = np.linspace(0.01, np.pi - 0.01, 1000)
    vals = np.array([H(q) for q in qs])
    assert np.all(np.diff(vals) < 0)
    # diverges at both ends (cot(3.13) is only about -86, so sample nearer pi)
    assert vals[0] > 1e3 and H(3.138) < -1e2
    # C0 = 0 reduces to the zero-level expression
    H0 = atlas.image_halfplane_witness(0.0, 1.5)
    q = 1.2
    assert H0(q) == pytest.approx(1 / np.tan(q) + 1.5**2 / np.tan(q / 2) ** 2)
    with pytest.raises(DomainError):
        atlas.image_halfplane_witness(-1.0, 1.0)


def test_zero_casimir_level_has_no_equilibria():
    for B in (2.5, 0.1):
        rep = atlas.zero_casimir_no_equilibria(B)
        assert rep.min_value > 0
        assert not rep.has_equilibria
    # divergence at both ends
    vals = atlas.zero_casimir_no_equilibria(1.0, np.array([1e-3, np.pi - 1e-3]))
    assert vals.min_value > 1e2


def test_bc_region_closed_curve():
    region = atlas.bc_region(np.array([1.9]), n_q=300)
    t = region.traces[0]
    # both branches meet at the window ends: closed curve in (q, C)
    assert t["C_plus"][0] == pytest.approx(t["C_minus"][0], rel=1e-3)
    assert t["C_plus"][-1] == pytest.approx(t["C_minus"][-1], rel=1e-3)
    # one minimum and one maximum of C along the loop
    loop = np.concatenate([t["C_minus"], t["C_plus"][::-1]])
    signs = np.sign(np.diff(loop))
    flips = np.sum(signs[:-1] * signs[1:] < 0)
    assert flips == 2


def test_bc_region_meeting_point():
    region = atlas.bc_region(np.array([2.0]), n_q=50)
    B_star, C_star = region.meeting_point
    assert B_star == pytest.approx((4 / 3) * 3**0.25)
    assert C_star == pytest.approx(100 / (3 * np.sqrt(3)), rel=1e-10)


def test_meeting_point_derivation():
    """Symbolic (B*, C*) of the pinch point from the bracket table.

    At m1 = p = 0, q = 2pi/3 the isosceles ansatz m2 = -sqrt(3) m3 leaves one
    equation of sigma.grad(H) = 0; its double root in m3 fixes B*, and the
    Casimir there is C* = 100 sqrt(3)/9 = 100/(3 sqrt(3)).
    """
    sp = pytest.importorskip("sympy")

    m1, m2, m3, q, p, B = sp.symbols("m1 m2 m3 q p B", real=True)
    x = (m1, m2, m3, q, p)
    s, c = sp.sin(q), sp.cos(q)
    # identical unit particles, V = cot(q)
    H = ((m1 - p) ** 2 + m2**2 + m3 * (-2 * m2 * c / s + m3 / s**2 + m3 * c**2 / s**2)) / 2 \
        + p**2 / 2 + c / s
    C = m1**2 + (m2 - B * s) ** 2 + (m3 + B * (1 + c)) ** 2
    sigma = sp.zeros(5, 5)
    for (i, j), v in {
        (0, 1): -m3 - B * (1 + c),
        (0, 2): m2 - B * s,
        (1, 2): -m1,
        (1, 4): B * c,
        (2, 4): B * s,
        (3, 4): 1,
    }.items():
        sigma[i, j], sigma[j, i] = v, -v
    flow = sigma * sp.Matrix([sp.diff(H, v) for v in x])

    # the table and H are the program's: same flow and Casimir at sample points
    f_flow = sp.lambdify((*x, B), flow, "numpy")
    f_C = sp.lambdify((*x, B), C, "numpy")
    rng = np.random.default_rng(0)
    for _ in range(5):
        pt = np.array([*rng.uniform(-1, 1, 3), rng.uniform(0.3, 2.8), rng.uniform(-1, 1)])
        b = rng.uniform(0.5, 3)
        prm = identical_params(b)
        np.testing.assert_allclose(
            np.ravel(f_flow(*pt, b)), rhs(pt, prm, cot_potential(prm)), atol=1e-12
        )
        assert float(f_C(*pt, b)) == pytest.approx(float(casimir_array(pt, prm)), rel=1e-12)

    on_ansatz = {m1: 0, p: 0, q: 2 * sp.pi / 3, m2: -sp.sqrt(3) * m3}
    eqs = [sp.simplify(e.subs(on_ansatz)) for e in flow]
    assert eqs[:4] == [0, 0, 0, 0]
    f = sp.expand(eqs[4] * sp.Rational(9, 4))
    assert sp.simplify(f - (sp.sqrt(3) * m3**2 - 3 * sp.sqrt(3) / 2 * B * m3 + 3)) == 0
    double = [r for r in sp.solve([f, sp.diff(f, m3)], [m3, B], dict=True) if r[B].is_positive]
    assert len(double) == 1
    B_star, m3_star = double[0][B], double[0][m3]
    assert sp.simplify(B_star - sp.Rational(4, 3) * 3 ** sp.Rational(1, 4)) == 0
    assert sp.simplify(m3_star - 3 ** sp.Rational(1, 4)) == 0
    C_star = sp.simplify(C.subs(on_ansatz).subs({m3: m3_star, B: B_star}))
    assert sp.simplify(C_star - 100 * sp.sqrt(3) / 9) == 0
    assert sp.simplify(C_star - sp.Rational(25, 4) * B_star**2) == 0


def test_double_cover_one_stable_one_unstable():
    """Inside the doubly covered (B, C) region the two isosceles equilibria
    at equal Casimir split into one stable and one unstable."""
    from scipy.optimize import brentq

    from magsphere.stability import Classification, linearize

    B = 2.5
    q0, q1 = atlas.type2_window(B)
    V = cot_potential(identical_params(B))
    qa = q0 + 0.35 * (q1 - q0)
    ra = type2(qa, B)[1]
    # find the second solution on the other side with the same Casimir
    f = lambda q: type2(q, B)[1].C - ra.C
    qb = brentq(f, qa + 0.05, q1 - 1e-6)
    rb = type2(qb, B)[1]
    classes = {
        linearize(r, V).classification for r in (ra, rb)
    }
    assert classes == {Classification.LinearlyStable, Classification.LinearlyUnstable}


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
def test_appendix_limits(a):
    rep = atlas.appendix_limit_study(a)
    root = np.sqrt(a * a + 4)
    assert rep.m2_limit == pytest.approx((a - root) / 2, abs=1e-8)
    assert rep.m3_limit == pytest.approx((-root - a) / 2, abs=1e-8)
    assert rep.product_limit == pytest.approx(1.0, abs=1e-8)


def test_appendix_nonuniformity_witness():
    rep = atlas.appendix_limit_study(1.0, witness_B=0.01)
    assert abs(rep.witness_product - 1.0) > 0.1
    assert "time-reversal" in rep.metadata["negative_side"]


def test_axis_angle_identities():
    for q in (0.7, 1.2, 2.5):
        B = 2.5
        c1, c2 = atlas.axis_angles(type1(q, B)[0])
        lhs = c1 + c2  # cos t1 - cos(pi - t2)
        sec = 1 / np.cos(q)
        rhs = B * (sec + 1) / np.sqrt(B**2 * sec**2 + 2 / np.sin(q) ** 3)
        assert lhs == pytest.approx(rhs, abs=1e-10)
    for q in (2.0, 2.3):
        for rec in type2(q, 2.5):
            c1, c2 = atlas.axis_angles(rec)
            assert c1 == pytest.approx(np.cos(q / 2), abs=1e-10)
            assert c2 == pytest.approx(np.cos(q / 2), abs=1e-10)


def test_type1_axis_angles_coincide_only_without_field():
    c1, c2 = atlas.axis_angles(type1(1.0, 0.0)[0])
    assert c1 + c2 == pytest.approx(0.0, abs=1e-12)


def test_ec_rows_list_each_branch_then_its_cusps():
    """`rows()` gives, branch by branch, each point untagged and then each
    cusp tagged `cusp`."""
    d = atlas.energy_casimir_diagram(2.5)
    rows = iter(d.rows())
    assert len(d.cusps) == 3
    for b in d.branches:
        for q, C, H in zip(b.q, b.C, b.H):
            assert next(rows) == (b.tag, q, C, H, "")
        for cusp in b.cusps:
            assert next(rows) == (b.tag, *cusp, "cusp")
    assert next(rows, None) is None


def test_csv_and_json_emission():
    text = atlas.csv_with_metadata(("q", "B"), [(1.0, 2.0)], {"potential": "cot"})
    lines = text.splitlines()
    assert lines[0].startswith("# potential=cot")
    assert lines[1] == "q,B"
    blob = atlas.json_with_metadata({"x": 1}, {"potential": "cot"})
    parsed = json.loads(blob)
    assert parsed["metadata"]["potential"] == "cot"
    assert parsed["data"] == {"x": 1}


def test_stability_grid_shape():
    grid = atlas.stability_grid(
        q_axis=np.linspace(0.5, 2.5, 4), B_axis=np.linspace(1.0, 3.0, 3)
    )
    assert len(grid.cells) == 12
    for cell in grid.cells:
        for family, H, C, cls in cell["entries"]:
            assert cls in ("LinearlyStable", "LinearlyUnstable", "Degenerate")


def test_stability_grid_metadata_is_deterministic():
    """Two identical calls give equal metadata, which holds no wall-clock time."""
    axes = dict(q_axis=np.linspace(0.5, 2.5, 3), B_axis=np.array([2.5]))
    first = atlas.stability_grid(**axes).metadata
    assert "timestamp" not in first
    assert atlas.stability_grid(**axes).metadata == first


@pytest.mark.parametrize("B", [0.5, atlas.B_CRITICAL + 1e-3, 2.5, 7.3, 10.0])
def test_stability_grid_equals_per_record_loop(B):
    """The batched grid against the per-record loop it replaced: scalar
    closed forms, one Jacobian per record and np.poly coefficients."""
    q_axis = atlas.default_q_axis(120)
    grid = atlas.stability_grid(q_axis, [B])
    V = cot_potential(identical_params(B))
    for q, cell in zip(q_axis, grid.cells):
        recs = list(type1(q, B)) if abs(q - np.pi / 2) > 1e-4 else []
        recs += type2(q, B)
        want = []
        for r in recs:
            if r.residual > 1e-9:
                continue
            c = np.poly(jacobian_matrix(r.state.as_array(), r.params, V))
            want.append((r.family.value, r.H, r.C, classify(-c[2], -c[4]).value))
        assert (cell["q"], cell["B"]) == (q, B)
        assert cell["entries"] == want, q
