import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projderiv.coderivatives import (
    affine_map,
    ball_projection_map,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
)
from projderiv.fixed_points import (
    ORACLE_ONLY,
    ORIGIN_ONLY,
    POSITIVE_CONE_DUAL,
    WHOLE_DUAL,
    FixedPointQuery,
    characterize,
    convexity_closedness_probe,
    is_fixed_point,
    poly_annihilator,
    poly_fixed_point_quotient,
    quotient_forms_spread,
    registry_verdict,
    scaling_direction_report,
)
from projderiv.limsup_oracle import GraphPoint, SamplingSchedule, Verdict
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
    assert characterize(translation, base).kind == WHOLE_DUAL

    scaling = affine_map(L24, shift, 2.0)
    base_s = GraphPoint.at_point(scaling, PrimalVector.zero(L24))
    assert characterize(scaling, base_s).kind == ORIGIN_ONLY

    pure_scaling = affine_map(L24, PrimalVector.zero(L24), 2.0)
    base_p = GraphPoint.at_point(pure_scaling, primal(L24, [0.1, 0, 0, 0]))
    assert characterize(pure_scaling, base_p).kind == ORACLE_ONLY

    ballm = ball_projection_map(L24, 1.0)
    inner = GraphPoint.at_point(ballm, primal(L24, [0.1, 0.1, 0, 0]))
    outer = GraphPoint.at_point(ballm, primal(L24, [2, 0, 0, 0]))
    boundary = GraphPoint.at_point(ballm, primal(L24, [1, 0, 0, 0]))
    assert characterize(ballm, inner).kind == WHOLE_DUAL
    assert characterize(ballm, outer).kind == ORIGIN_ONLY
    assert characterize(ballm, boundary).kind == ORACLE_ONLY

    cone = cone_projection_map(lp_space(2.0, 4))
    zbase = GraphPoint.at_point(cone, primal(lp_space(2.0, 4), [1, 2, 0, 0]))
    char = characterize(cone, zbase)
    assert char.kind == POSITIVE_CONE_DUAL
    assert char.index_set.members == frozenset({3, 4})
    mixed = GraphPoint.at_point(cone, primal(lp_space(2.0, 4), [1, -1, 0, 0]))
    assert characterize(cone, mixed).kind == ORACLE_ONLY
    cone3 = cone_projection_map(lp_space(3.0, 4))
    zbase3 = GraphPoint.at_point(cone3, primal(lp_space(3.0, 4), [1, 2, 0, 0]))
    assert characterize(cone3, zbase3).kind == ORACLE_ONLY

    l1sp = l1_space(4)
    l1m = l1_ball_projection_map(l1sp, 1.0)
    assert characterize(l1m, GraphPoint.at_point(l1m, primal(l1sp, [0.2, 0, 0, 0]))).kind == WHOLE_DUAL
    assert characterize(l1m, GraphPoint.at_point(l1m, primal(l1sp, [2, 0, 0, 0]))).kind == ORIGIN_ONLY
    off_selection = GraphPoint.checked(
        l1m, primal(l1sp, [2, 1, 0, 0]), primal(l1sp, [1, 0, 0, 0])
    )
    assert characterize(l1m, off_selection).kind == ORACLE_ONLY

    polym = poly_projection_map(C513, 1)
    pbase = GraphPoint.at_point(polym, primal(C513, C513.grid**2))
    assert characterize(polym, pbase).kind == ORACLE_ONLY


def test_registry_theta_and_cone_facts():
    cone3 = cone_projection_map(lp_space(3.0, 4))
    f = primal(lp_space(3.0, 4), [1, 0.5, 0, 0])
    base = GraphPoint.at_point(cone3, f)
    theta = DualVector.zero(lp_space(3.0, 4))
    assert registry_verdict(FixedPointQuery(cone3, base, theta)) == Verdict.MEMBER
    assert registry_verdict(FixedPointQuery(cone3, base, duality_map(f))) == Verdict.MEMBER
    origin = GraphPoint.at_point(cone3, PrimalVector.zero(lp_space(3.0, 4)))
    psi = dual(lp_space(3.0, 4), [1, 2, 0, 0.5])
    assert registry_verdict(FixedPointQuery(cone3, origin, psi)) == Verdict.MEMBER
    unknown = dual(lp_space(3.0, 4), [1, -1, 0, 0])
    assert registry_verdict(FixedPointQuery(cone3, base, unknown)) is None


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
        verdict = is_fixed_point(
            FixedPointQuery(cone, base, duality_map(f)), sched, mode="oracle"
        )
        assert verdict == Verdict.MEMBER
    origin = GraphPoint.at_point(cone, PrimalVector.zero(sp))
    for i in range(20):
        mask = rng.random(6) > 0.3
        if not mask.any():
            mask[0] = True
        psi = dual(sp, rng.uniform(0.3, 1.5, size=6) * mask)
        verdict = is_fixed_point(FixedPointQuery(cone, origin, psi), sched, mode="oracle")
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
        char = characterize(mapd, base)
        assert char.kind != ORACLE_ONLY
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
            verdict = is_fixed_point(FixedPointQuery(mapd, base, w), sched, mode="oracle")
            expected = Verdict.MEMBER if char.membership(w) else Verdict.NON_MEMBER
            assert verdict == expected


def test_audit_mode_runs_clean(rng):
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.0, 0, 0]))
    sched = SamplingSchedule(seed=7)
    for _ in range(5):
        w = dual(L24, rng.normal(size=4))
        w = (rng.uniform(0.5, 1.0) / dual_norm(w)) * w
        verdict = is_fixed_point(FixedPointQuery(ballm, base, w), sched, mode="audit")
        assert verdict == Verdict.NON_MEMBER
    with pytest.raises(ValueError):
        is_fixed_point(FixedPointQuery(ballm, base, w), sched, mode="bogus")


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
    assert np.all(quotient_forms_spread(w, base, us, ballm.value_batch(us)) <= 1e-12)


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
    vs = ballm.value_batch(us)
    for _ in range(10):
        w = dual(space, rng.uniform(-1.0, 1.0, size=4))
        spread = quotient_forms_spread(w, base, us, vs)
        assert np.all(spread <= 1e-12 * (1.0 + dual_norm(w)))


def test_quotient_forms_spread_raises_on_a_row_at_the_base():
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.3, 0, 0]))
    us = base.x.values[None, :] + np.array([[0.01, 0.0, 0.02, 0.0], [0.0, 0.0, 0.0, 0.0]])
    w = dual(L24, [1.0, 0.5, 0.0, 0.0])
    assert quotient_forms_spread(w, base, us[:1], ballm.value_batch(us[:1]))[0] <= 1e-12
    with pytest.raises(ZeroDivisionError):
        quotient_forms_spread(w, base, us, ballm.value_batch(us))


def test_convexity_probe_whole_dual(rng):
    ballm = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(ballm, primal(L24, [0.1, 0.2, 0, 0]))
    members = tuple(dual(L24, rng.normal(size=4)) for _ in range(4))
    report = convexity_closedness_probe(
        ballm, base, members, trials=30, schedule=SamplingSchedule(seed=3), seed=0
    )
    assert report.violations == ()
    assert report.combinations_checked == 30
    with pytest.raises(ValueError):
        convexity_closedness_probe(ballm, base, members[:1], trials=5)


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

