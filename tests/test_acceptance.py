"""End-to-end acceptance gate.

One test per criterion; run with `pytest -v tests/test_acceptance.py` to get
one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from magsphere.core import ReducedState, SystemParams, cot_potential, identical_params
from magsphere.equilibria import (
    Family,
    make_record,
    solve_general,
    solve_right_angle,
    type1,
    type2,
    type2_threshold,
)
from magsphere.fullspace import (
    FullState,
    full_integrate,
    lift_state,
    momentum_map,
    one_particle_integrate,
    circle_radius,
    reduce_state,
)
from magsphere.reduced import integrate, residual
from magsphere.stability import Classification, linearize, type1_boundary
from magsphere import atlas
from magsphere.symmetry import opposite_charge, swap, swap_matrix

B_CRIT = (4 / 3) * 3**0.25

GRID_Q = np.linspace(0.2, np.pi - 0.2, 50)
GRID_B = np.linspace(0.1, 5.0, 50)


def test_criterion_01_closed_form_residuals():
    """Every closed-form record on a 50x50 grid is an equilibrium; < 10 s."""
    t0 = time.time()
    worst = 0.0
    count = 0
    for q in GRID_Q:
        for B in GRID_B:
            recs = [] if abs(q - np.pi / 2) < 0.05 else list(type1(q, B))
            recs += type2(q, B)
            for rec in recs:
                worst = max(worst, rec.residual)
                count += 1
    elapsed = time.time() - t0
    assert worst < 1e-9, worst
    assert count > 4000
    assert elapsed < 10.0, elapsed


def test_criterion_02_quartic_reproduces_closed_forms():
    """The general quartic solver recovers the identical-particle sets."""
    qs = GRID_Q[np.abs(GRID_Q - np.pi / 2) > 0.05][::3]
    Bs = GRID_B[::3]
    for q in qs:
        for B in Bs:
            params = identical_params(B)
            V = cot_potential(params)
            gen = solve_general(q, params, V)
            closed = list(type1(q, B)) + type2(q, B)
            assert len(gen) == len(closed), (q, B)
            for c in closed:
                d = min(
                    max(abs(g.state.m2 - c.state.m2), abs(g.state.m3 - c.state.m3))
                    for g in gen
                )
                assert d < 1e-9, (q, B, c.family, d)


def test_criterion_03_threshold_curve():
    """Bisection-located existence boundary matches the analytic curve."""
    for q in np.linspace(0.35, 2.9, 50):
        lo, hi = 0.01, 80.0
        assert len(type2(q, lo)) == 0 and len(type2(q, hi)) == 2
        B_star = brentq(lambda B: len(type2(q, B)) - 1, lo, hi, xtol=1e-12)
        assert abs(B_star - type2_threshold(q)) < 1e-8, q
    res = minimize_scalar(type2_threshold, bounds=(1.5, 2.8), method="bounded",
                          options={"xatol": 1e-10})
    assert abs(res.x - 2 * np.pi / 3) < 1e-6
    assert abs(res.fun - B_CRIT) < 1e-8
    assert abs(type2_threshold(np.pi / 2) - 2.0) < 1e-10


def test_criterion_04_threshold_spectrum():
    """On-threshold characteristic polynomial factors explicitly; the
    classification of the degenerate record flips at q0 = 2pi/3."""
    qs = np.linspace(0.8, 2.6, 20)
    for q0 in qs:
        B = type2_threshold(q0)
        rec = type2(q0, B)[0]
        rep = linearize(rec, cot_potential(rec.params))
        a, b = rep.char_coeffs
        csc3 = 1 / np.sin(q0) ** 3
        a_expect = -(2 * csc3 + 2 * (1 + 2 * np.cos(q0)) * csc3)
        b_expect = -4 * (1 + 2 * np.cos(q0)) * csc3**2
        assert abs(a - a_expect) < 1e-8, q0
        assert abs(b - b_expect) < 1e-8, q0
        if abs(q0 - np.pi / 2) > 1e-3 and abs(q0 - 2 * np.pi / 3) > 1e-3:
            want = (
                Classification.LinearlyStable
                if q0 < 2 * np.pi / 3
                else Classification.LinearlyUnstable
            )
            assert rep.classification is want, q0


def test_criterion_05_type1_stability_boundary():
    """Classification flip along fixed q matches the analytic boundary."""

    def stable(q, B):
        rec = type1(q, B)[0]
        rep = linearize(rec, cot_potential(rec.params))
        return rep.classification is Classification.LinearlyStable

    for q in np.linspace(0.35, 1.5, 20):
        lo, hi = 1e-3, 100.0
        assert not stable(q, lo) and stable(q, hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if stable(q, mid):
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - type1_boundary(q)) < 1e-6, q


def test_criterion_06_right_angle_counts():
    for B, n in ((0.5, 0), (1.0, 0), (1.9, 0), (2.0, 1), (2.1, 2), (3.0, 2), (5.0, 2)):
        params = identical_params(B)
        recs = solve_right_angle(params, cot_potential(params))
        assert len(recs) == n, B
        if n == 1:
            assert recs[0].degenerate


def _bounded_states(n, rng):
    """Random states that stay in the guarded q-domain for t = 10: small
    perturbations of linearly stable equilibria."""
    out = []
    while len(out) < n:
        q = rng.uniform(1.6, 2.0)
        rec = type2(q, 2.5)[0]
        x = rec.state.as_array()
        x[[0, 1, 2, 4]] += rng.uniform(-0.05, 0.05, 4)
        x[3] += rng.uniform(-0.05, 0.05)
        out.append(ReducedState.from_array(x))
    return out


def test_criterion_07_conservation_and_cross_validation():
    rng = np.random.default_rng(7)
    params = identical_params(2.5)
    V = cot_potential(params)
    for state in _bounded_states(20, rng):
        red = integrate(state, params, V, t_end=10.0, dt=1e-3)
        assert red.energy_drift.max() < 1e-8
        assert red.casimir_drift.max() < 1e-8
        full = full_integrate(lift_state(state, params), params, V, t_end=10.0, dt=1e-3)
        assert full.phi_drift.max() < 1e-7
        end = reduce_state(FullState.from_array(full.states[-1]), params)
        assert np.max(np.abs(end.as_array() - red.states[-1])) < 1e-6


def test_criterion_08_one_particle_circle_law():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mu = rng.uniform(0.5, 2.0)
        e = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        B = rng.uniform(0.5, 4.0)
        x0 = rng.normal(size=3)
        v0 = rng.normal(size=3)
        _, states = one_particle_integrate(x0, v0, mu, e, B, t_end=3.0, dt=1e-3)
        v2 = float(np.sum((states[0, 3:6] / mu) ** 2))
        expected = mu**2 * v2 / (B**2 * e**2 + mu**2 * v2)
        r2 = circle_radius(states, mu, e, B) ** 2
        assert abs(r2 - expected) / expected < 1e-6


def test_criterion_09_symmetries():
    params = identical_params(2.5)
    V = cot_potential(params)
    for q in (0.7, 1.1, 2.2):
        M = swap_matrix(q)
        assert np.array_equal(M @ M, np.eye(4)) or np.max(np.abs(M @ M - np.eye(4))) < 1e-15
        rp, rm = type1(q, 2.5)
        assert np.max(np.abs(swap(rp.state, params).as_array() - rm.state.as_array())) < 1e-10
    for rec in type2(2.0, 2.5):
        assert np.max(np.abs(swap(rec.state, params).as_array() - rec.state.as_array())) < 1e-10
    # opposite-charge map
    rng = np.random.default_rng(9)
    from magsphere.reduced import casimir_array

    for _ in range(50):
        x = np.concatenate([rng.uniform(-1, 1, 3), [rng.uniform(0.3, 2.8)], rng.uniform(-1, 1, 1)])
        ms, mp = opposite_charge(ReducedState.from_array(x), params)
        assert abs(casimir_array(ms.as_array(), mp) - casimir_array(x, params)) < 1e-12
    for rec in list(type1(1.1, 2.5)) + type2(2.2, 2.5):
        ms, mp = opposite_charge(rec.state, params)
        mV = cot_potential(mp)
        assert residual(ms.as_array(), mp, mV) < 1e-9
        mrec = make_record(Family.General, ms.m2, ms.m3, ms.q, mp, mV)
        e0 = linearize(rec, V).eigenvalues
        e1 = linearize(mrec, mV).eigenvalues
        for lam in e0:
            assert min(abs(lam - m) for m in e1) < 1e-8


def test_criterion_10_bifurcation_structure():
    """B = 2.5: three cusps at the stability transitions, and the (B, C)
    meeting point where the isosceles region pinches off.

    The C of the meeting point is the Casimir C = |Phi|^2 (the
    `casimir_array` normalisation) at the pinch point."""
    d = atlas.energy_casimir_diagram(2.5)
    by_tag = {b.tag: b for b in d.branches}
    assert len(by_tag["TypeI_acute"].cusps) == 1
    assert len(by_tag["TypeI_obtuse"].cusps) == 0
    type2_cusps = by_tag["TypeII_plus"].cusps + by_tag["TypeII_minus"].cusps
    assert len(type2_cusps) == 2
    # cusp locations coincide with stability transitions (within a cell)
    q_acute = by_tag["TypeI_acute"].cusps[0][0]
    q_flip = brentq(lambda q: type1_boundary(q) - 2.5, 0.1, np.pi / 2 - 1e-6)
    cell = np.max(np.diff(by_tag["TypeI_acute"].q))
    assert abs(q_acute - q_flip) <= cell
    V = cot_potential(identical_params(2.5))
    for cusp in type2_cusps:
        qc = cusp[0]
        branch = 0 if cusp in by_tag["TypeII_plus"].cusps else 1
        eps = 0.01
        cls = [
            linearize(type2(qc + s * eps, 2.5)[branch], V).classification
            for s in (-1, 1)
        ]
        assert cls[0] is not cls[1], qc
    # degenerate meeting point of the (B, C) region.  At m1 = p = 0,
    # q = 2pi/3 the isosceles ansatz m2 = -sqrt(3) m3 reduces sigma.grad(H)
    # to sqrt(3) m3^2 - (3 sqrt(3)/2) B m3 + 3 = 0, whose double root is
    # B* = (4/3) 3^(1/4), m3 = 3^(1/4); there C = (25/4) B*^2 = 100/(3 sqrt(3))
    # (derived symbolically in test_atlas.py::test_meeting_point_derivation).
    C_expected = 25 / 4 * B_CRIT**2
    region = atlas.bc_region(np.array([2.0]), n_q=10)
    B_star, C_star = region.meeting_point
    assert abs(B_star - B_CRIT) < 1e-6
    assert abs(C_star - C_expected) < 1e-6, (
        f"C at the degenerate point is {C_star:.12g}, expected "
        f"25/4 B*^2 = {C_expected:.12g}"
    )
    # the normalisation: C is |Phi|^2 of the lifted degenerate record
    params = identical_params(B_CRIT)
    rec = type2(atlas.Q_CRITICAL, B_CRIT)[0]
    phi = momentum_map(lift_state(rec.state, params), params)
    assert abs(float(phi @ phi) - C_star) < 1e-6
    # the definition: the C range of the region closes in on C_star as
    # B -> B*+, bracketing it at every B
    near = atlas.bc_region(B_CRIT + np.array([1e-4, 1e-6]), n_q=50).traces
    assert len(near) == 2
    for t in near:
        assert t["C_min"] < C_star < t["C_max"], t["B"]
    spread = [max(C_star - t["C_min"], t["C_max"] - C_star) for t in near]
    assert spread[1] < spread[0] / 5 and spread[1] < 0.05, spread


def test_criterion_11_appendix_limits():
    for a in (0.0, 1.0, 2.0):
        rep = atlas.appendix_limit_study(a)
        root = np.sqrt(a * a + 4)
        assert abs(rep.m2_limit - (a - root) / 2) < 1e-6
        assert abs(rep.m3_limit - (-root - a) / 2) < 1e-6
        assert abs(rep.product_limit - 1.0) < 1e-6
    witness = atlas.appendix_limit_study(0.0, witness_B=0.01).witness_product
    assert abs(witness - 1.0) > 0.1


def test_criterion_12_existence_at_scale():
    rng = np.random.default_rng(12)
    n = 0
    while n < 500:
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
        recs = solve_general(q, params, cot_potential(params))
        assert len(recs) >= 1
        assert all(r.residual < 1e-9 for r in recs)
        n += 1
