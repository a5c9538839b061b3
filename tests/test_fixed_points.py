import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projderiv.coderivatives import (
    ORACLE_ONLY,
    ORIGIN_ONLY,
    POSITIVE_CONE_DUAL,
    WHOLE_DUAL,
    affine_map,
    ball_projection_map,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
)
from projderiv import fixed_points
from projderiv.fixed_points import (
    FixedPointAuditError,
    convexity_closedness_probe,
    is_fixed_point,
    poly_annihilator,
    poly_fixed_point_quotient,
    quotient_forms_spread,
    registry_verdict,
    scaling_direction_report,
)
from projderiv.limsup_oracle import AuditRows, GraphPoint, SamplingSchedule, Verdict, sample_base
from projderiv.spaces import (
    DualVector,
    PrimalVector,
    atomic_measure,
    c01_space,
    dual,
    dual_norm,
    duality_map,
    l1_space,
    lp_space,
    pairing,
    primal,
)

L24 = lp_space(2.0, 4)
C513 = c01_space(513)


def test_characterize_branches():
    shift = primal(L24, [0.3, 0, 0, 0])
    translation = affine_map(L24, shift, 1.0)
    base = GraphPoint.at_point(translation, PrimalVector.zero(L24))
    assert translation.fixed_point_set(base).kind == WHOLE_DUAL

    scaling = affine_map(L24, shift, 2.0)
    base_s = GraphPoint.at_point(scaling, PrimalVector.zero(L24))
    assert scaling.fixed_point_set(base_s).kind == ORIGIN_ONLY

    pure_scaling = affine_map(L24, PrimalVector.zero(L24), 2.0)
    base_p = GraphPoint.at_point(pure_scaling, primal(L24, [0.1, 0, 0, 0]))
    assert pure_scaling.fixed_point_set(base_p).kind == ORACLE_ONLY

    ballm = ball_projection_map(L24, 1.0)
    inner = GraphPoint.at_point(ballm, primal(L24, [0.1, 0.1, 0, 0]))
    outer = GraphPoint.at_point(ballm, primal(L24, [2, 0, 0, 0]))
    boundary = GraphPoint.at_point(ballm, primal(L24, [1, 0, 0, 0]))
    assert ballm.fixed_point_set(inner).kind == WHOLE_DUAL
    assert ballm.fixed_point_set(outer).kind == ORIGIN_ONLY
    assert ballm.fixed_point_set(boundary).kind == ORACLE_ONLY

    cone = cone_projection_map(lp_space(2.0, 4))
    zbase = GraphPoint.at_point(cone, primal(lp_space(2.0, 4), [1, 2, 0, 0]))
    char = cone.fixed_point_set(zbase)
    assert char.kind == POSITIVE_CONE_DUAL
    assert char.index_set.members == frozenset({3, 4})
    mixed = GraphPoint.at_point(cone, primal(lp_space(2.0, 4), [1, -1, 0, 0]))
    assert cone.fixed_point_set(mixed).kind == ORACLE_ONLY
    cone3 = cone_projection_map(lp_space(3.0, 4))
    zbase3 = GraphPoint.at_point(cone3, primal(lp_space(3.0, 4), [1, 2, 0, 0]))
    assert cone3.fixed_point_set(zbase3).kind == ORACLE_ONLY

    l1sp = l1_space(4)
    l1m = l1_ball_projection_map(l1sp, 1.0)
    assert l1m.fixed_point_set(GraphPoint.at_point(l1m, primal(l1sp, [0.2, 0, 0, 0]))).kind == WHOLE_DUAL
    assert l1m.fixed_point_set(GraphPoint.at_point(l1m, primal(l1sp, [2, 0, 0, 0]))).kind == ORIGIN_ONLY
    off_selection = GraphPoint.checked(
        l1m, primal(l1sp, [2, 1, 0, 0]), primal(l1sp, [1, 0, 0, 0])
    )
    assert l1m.fixed_point_set(off_selection).kind == ORACLE_ONLY

    polym = poly_projection_map(C513, 1)
    pbase = GraphPoint.at_point(polym, primal(C513, C513.grid**2))
    assert polym.fixed_point_set(pbase).kind == ORACLE_ONLY


def test_registry_theta_and_cone_facts():
    cone3 = cone_projection_map(lp_space(3.0, 4))
    f = primal(lp_space(3.0, 4), [1, 0.5, 0, 0])
    base = GraphPoint.at_point(cone3, f)
    theta = DualVector.zero(lp_space(3.0, 4))
    assert registry_verdict(cone3, base, theta) == Verdict.MEMBER
    assert registry_verdict(cone3, base, duality_map(f)) == Verdict.MEMBER
    origin = GraphPoint.at_point(cone3, PrimalVector.zero(lp_space(3.0, 4)))
    psi = dual(lp_space(3.0, 4), [1, 2, 0, 0.5])
    assert registry_verdict(cone3, origin, psi) == Verdict.MEMBER
    unknown = dual(lp_space(3.0, 4), [1, -1, 0, 0])
    assert registry_verdict(cone3, base, unknown) is None


def test_cone_lp_registry_matches_oracle(rng):
    """Duality images over the nonnegative cone and nonnegative duals at the
    origin get oracle member verdicts (p = 3, dim 6)."""
    sp = lp_space(3.0, 6)
    cone = cone_projection_map(sp)
    sched = SamplingSchedule(seed=31)
    for i in range(20):
        mask = rng.random(6) > 0.3
        if not mask.any():
            mask[0] = True
        f = primal(sp, rng.uniform(0.3, 1.5, size=6) * mask)
        base = GraphPoint.at_point(cone, f)
        verdict = is_fixed_point(sample_base(cone, base, sched), duality_map(f), mode="oracle")
        assert verdict == Verdict.MEMBER
    origin = sample_base(cone, GraphPoint.at_point(cone, PrimalVector.zero(sp)), sched)
    for i in range(20):
        mask = rng.random(6) > 0.3
        if not mask.any():
            mask[0] = True
        psi = dual(sp, rng.uniform(0.3, 1.5, size=6) * mask)
        verdict = is_fixed_point(origin, psi, mode="oracle")
        assert verdict == Verdict.MEMBER


def test_registry_and_oracle_never_disagree(rng):
    """When a characterization applies, oracle-mode verdicts match it
    (50 random candidates per instance, indeterminate counts as failure)."""
    sched = SamplingSchedule(seed=13)
    instances = []
    ballm = ball_projection_map(L24, 1.0)
    instances.append((ballm, GraphPoint.at_point(ballm, primal(L24, [0.2, 0.1, 0, 0])), 0.3, 1.5))
    instances.append((ballm, GraphPoint.at_point(ballm, primal(L24, [2.0, 0.5, 0, 0])), 0.5, 1.0))
    translation = affine_map(L24, primal(L24, [0.4, 0, 0, 0]), 1.0)
    instances.append((translation, GraphPoint.at_point(translation, PrimalVector.zero(L24)), 0.3, 1.5))
    cone = cone_projection_map(lp_space(2.0, 6))
    cbase = GraphPoint.at_point(cone, primal(lp_space(2.0, 6), [1, 2, 0, 0, 0, 0]))
    instances.append((cone, cbase, 0.5, 1.5))
    for mapd, base, lo_n, hi_n in instances:
        char = mapd.fixed_point_set(base)
        assert char.kind != ORACLE_ONLY
        samples = sample_base(mapd, base, sched)
        for i in range(50):
            w = dual(mapd.space, rng.normal(size=mapd.space.size))
            w = (rng.uniform(lo_n, hi_n) / dual_norm(w)) * w
            if mapd.kind == "cone_proj":
                vals = np.array(w.values)
                vals[2:] = np.abs(vals[2:])
                if i % 2 == 1:
                    # a sub-threshold violation is undecidable by sampling,
                    # so give the non-member a visible margin
                    vals[2 + i % 4] = -rng.uniform(0.3, 1.5)
                w = dual(mapd.space, vals)
            verdict = is_fixed_point(samples, w, mode="oracle")
            expected = Verdict.MEMBER if char.membership(w) else Verdict.NON_MEMBER
            assert verdict == expected


def test_audit_mode_runs_clean(rng):
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.0, 0, 0]))
    samples = sample_base(ballm, base, SamplingSchedule(seed=7))
    for _ in range(5):
        w = dual(L24, rng.normal(size=4))
        w = (rng.uniform(0.5, 1.0) / dual_norm(w)) * w
        verdict = is_fixed_point(samples, w, mode="audit")
        assert verdict == Verdict.NON_MEMBER
    with pytest.raises(ValueError):
        is_fixed_point(samples, w, mode="bogus")


def _exterior_ball_samples():
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.0, 0, 0]))
    return sample_base(ballm, base, SamplingSchedule(seed=7))


def test_audit_mode_returns_an_indeterminate_oracle_verdict():
    # only the origin is a fixed point at an exterior base, and the radial
    # ray pins the limsup of w = c e_1 at c: at c = 3e-3 it lies between the
    # oracle's thresholds 1e-3 (1 + c) and 1e-2 (1 + c)
    samples = _exterior_ball_samples()
    w = dual(L24, [3e-3, 0.0, 0.0, 0.0])
    assert registry_verdict(samples.map, samples.base, w) == Verdict.NON_MEMBER
    assert is_fixed_point(samples, w, mode="registry") == Verdict.NON_MEMBER
    assert is_fixed_point(samples, w, mode="audit") == Verdict.INDETERMINATE


def test_audit_mode_raises_when_the_oracle_contradicts_the_registry(monkeypatch):
    samples = _exterior_ball_samples()
    w = dual(L24, [1.0, 0.0, 0.0, 0.0])
    assert is_fixed_point(samples, w, mode="audit") == Verdict.NON_MEMBER
    monkeypatch.setattr(fixed_points, "registry_verdict", lambda mapd, base, candidate: Verdict.MEMBER)
    with pytest.raises(FixedPointAuditError, match="contradicts the closed form member"):
        is_fixed_point(samples, w, mode="audit")


entry = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(
    st.lists(entry, min_size=4, max_size=4),
    st.lists(entry, min_size=4, max_size=4),
    st.lists(entry, min_size=4, max_size=4),
)
@example(wv=[0.0] * 4, uv=[0.0, 0.0, 0.0, 1.829338305192498e-240], noise=[0.0] * 4)
@example(wv=[1.0, 0.0, 0.0, 0.0], uv=[0.0, 0.0, 0.0, 1e-4], noise=[0.0] * 4)
def test_quotient_forms_agree(wv, uv, noise):
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.3, 0, 0]))
    us = base.x.values[None, :] + 0.1 * np.array([uv])
    if np.array_equal(us[0], base.x.values):
        return
    w = dual(L24, wv)
    assert np.all(quotient_forms_spread(w, AuditRows.at(base, us, ballm.value_batch(us))) <= 1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("levels", [15, 30, 39])
def test_quotient_forms_agree_at_the_finest_radius_of_an_exterior_base(levels, p):
    # the radius the audit of `is_fixed_point` samples at with K levels; with
    # ||x|| > 2r, u - v rounds (no Sterbenz exactness), and the shift
    # (u - v) - (x - y) must not keep that error of order eps |x - y|
    space = lp_space(p, 4)
    ballm = ball_projection_map(space, 1.0)
    base = GraphPoint.at_point(ballm, primal(space, [2.6, -1.2, 0.7, 0.4]))
    radius = SamplingSchedule().r0 * 2.0 ** (-(levels - 1))
    rng = np.random.default_rng(levels)
    dirs = rng.standard_normal((8, 4))
    us = base.x.values[None, :] + (radius / np.max(np.abs(dirs), axis=1))[:, None] * dirs
    rows = AuditRows.at(base, us, ballm.value_batch(us))
    for _ in range(10):
        w = dual(space, rng.uniform(-1.0, 1.0, size=4))
        spread = quotient_forms_spread(w, rows)
        assert np.all(spread <= 1e-12 * (1.0 + dual_norm(w)))


def test_quotient_forms_spread_raises_on_a_row_at_the_base():
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.3, 0, 0]))
    us = base.x.values[None, :] + np.array([[0.01, 0.0, 0.02, 0.0], [0.0, 0.0, 0.0, 0.0]])
    w = dual(L24, [1.0, 0.5, 0.0, 0.0])
    assert quotient_forms_spread(w, AuditRows.at(base, us[:1], ballm.value_batch(us[:1])))[0] <= 1e-12
    with pytest.raises(ZeroDivisionError):
        AuditRows.at(base, us, ballm.value_batch(us))


def test_convexity_probe_whole_dual(rng):
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [0.1, 0.2, 0, 0]))
    members = tuple(dual(L24, rng.normal(size=4)) for _ in range(4))
    samples = sample_base(ballm, base, SamplingSchedule(seed=3))
    report = convexity_closedness_probe(samples, members, trials=30, seed=0)
    assert report.violations == ()
    assert report.combinations_checked == 30
    with pytest.raises(ValueError):
        convexity_closedness_probe(samples, members[:1], trials=5)


def test_poly_annihilator_structure():
    gamma = poly_annihilator(C513, 1)
    nodes = np.flatnonzero(gamma.values)
    locs = C513.grid[nodes].tolist()
    weights = gamma.values[nodes]
    assert locs == [0.0, 0.5, 1.0]
    assert np.allclose(weights, [0.25, -0.5, 0.25], atol=1e-12)
    assert abs(dual_norm(gamma) - 1.0) <= 1e-12
    for k in range(2):
        assert abs(pairing(gamma, primal(C513, C513.grid**k))) <= 1e-12


@pytest.mark.parametrize("grid_size", [513, 4097])
@pytest.mark.parametrize("degree", range(6))
def test_poly_annihilator_annihilates_on_the_grid(degree, grid_size):
    space = c01_space(grid_size)
    gamma = poly_annihilator(space, degree)
    assert np.count_nonzero(gamma.values) == degree + 2
    assert abs(dual_norm(gamma) - 1.0) <= 1e-12
    for k in range(degree + 1):
        assert abs(pairing(gamma, primal(space, space.grid**k))) <= 1e-14


def test_poly_fixed_point_quotient_theta_and_regression():
    f = primal(C513, C513.grid**2)
    theta = DualVector.zero(C513)
    est = poly_fixed_point_quotient(f, 1, theta)
    assert est.verdict == Verdict.MEMBER and est.extrapolated == 0.0
    gamma = poly_annihilator(C513, 1)
    est2 = poly_fixed_point_quotient(f, 1, gamma)
    # no closed form pins this value; the deterministic oracle output is
    # archived as a regression value
    assert est2.verdict == Verdict.NON_MEMBER
    assert abs(est2.extrapolated - 0.272476496289439) <= 1e-6


def test_scaling_direction_report_values():
    f = primal(C513, C513.grid**2)
    gamma = poly_annihilator(C513, 1)
    mu = atomic_measure(C513, [(1.0, 1.0)])
    report = scaling_direction_report(f, 1, mu, gamma)
    assert abs(report.limit - 8 / 15) <= 0.02 * (8 / 15)
    assert report.relative_error <= 0.02
    assert report.candidate_excluded
    assert report.fixed_point_excluded is None

    both = scaling_direction_report(f, 1, gamma, gamma)
    assert both.fixed_point_excluded is True
    assert abs(both.predicted - pairing(gamma, f) / (1.0 + 0.875)) <= 1e-12


def test_scaling_direction_preconditions():
    f = primal(C513, C513.grid**2)
    gamma = poly_annihilator(C513, 1)
    # gamma must annihilate the polynomial class; a point mass does not
    with pytest.raises(ValueError):
        scaling_direction_report(f, 1, gamma, atomic_measure(C513, [(1.0, 1.0)]))
    # mu pairs to f(0) = 0, violating the nonzero-pairing precondition
    mu_zero = atomic_measure(C513, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        scaling_direction_report(f, 1, mu_zero, gamma)

