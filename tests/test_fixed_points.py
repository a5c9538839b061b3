import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projderiv.coderivatives import (
    CONE_PROJ,
    ORACLE_ONLY,
    ORIGIN_ONLY,
    POSITIVE_CONE_DUAL,
    WHOLE_DUAL,
    MapDescriptor,
    affine_map,
    ball_projection_map,
    coderiv_ball_lp,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
)
from projderiv import chebyshev, fixed_points, limsup_oracle
from projderiv.experiments import EXPERIMENTS, _cone_setup, resolve_config
from projderiv.fixed_points import (
    FixedPointAuditError,
    Query,
    ask,
    convexity_candidates,
    is_fixed_point,
    poly_annihilator,
    poly_fixed_point_quotient,
    quotient_forms_spread,
    registry_rays,
    registry_verdict,
    scaling_direction_report,
)
from projderiv.limsup_oracle import (
    Answer,
    AuditRows,
    GraphPoint,
    SamplingSchedule,
    Verdict,
    membership_batch,
    membership_test,
    sample_base,
)
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
    norm,
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
    monkeypatch.setattr(fixed_points, "registry_verdict", lambda mapd, base, candidate, char=None: Verdict.MEMBER)
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
    labelled = convexity_candidates(members, trials=30, seed=0)
    labels = [label for label, _ in labelled]
    steps = [f"sequence step {k}" for k in range(1, 7)]
    assert labels == [*(f"combination trial {t}" for t in range(30)), *steps, "sequence limit"]
    assert labelled[-1][1] is members[0]
    for mode in ("registry", "oracle"):
        queries = [Query(ballm, base, cand, mode=mode) for _, cand in labelled]
        assert _verdicts(queries, SamplingSchedule(seed=3)) == [Verdict.MEMBER] * 37
    with pytest.raises(ValueError):
        convexity_candidates(members[:1], trials=5)


def _verdicts(queries, schedule):
    """The verdicts of `ask`'s answers."""
    return [answer.verdict for answer in ask(queries, schedule)]


def _runner_queries():
    """One mixed list over two bases and back: fixed-point queries in the
    registry, oracle and audit modes, and membership queries with y*."""
    ballm = ball_projection_map(L24, 1.0)
    exterior = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.5, 0, 0]))
    cone = cone_projection_map(L24)
    positive = GraphPoint.at_point(cone, primal(L24, [1.0, 2.0, 0, 0]))
    ystar = dual(L24, [0.3, -0.2, 0.5, 0.1])
    image = coderiv_ball_lp(exterior.x, 1.0, ystar).point
    off_support = dual(L24, [0.5, -0.3, 0.2, 0.7])
    return [
        Query(ballm, exterior, dual(L24, [0.4, 0.1, 0, 0]), mode="oracle"),
        Query(ballm, exterior, image, ystar),
        Query(ballm, exterior, image + dual(L24, [0.02, 0.0, 0.0, 0.0]), ystar),
        Query(ballm, exterior, DualVector.zero(L24), mode="audit"),
        Query(cone, positive, off_support),
        Query(cone, positive, dual(L24, [0.5, -0.3, -0.4, 0.7]), mode="audit"),
        Query(cone, positive, off_support, off_support),
        Query(ballm, exterior, dual(L24, [-0.6, 0.2, 0.1, 0]), mode="registry"),
    ]


def test_ask_matches_direct_calls_and_draws_one_pass_per_base_run(monkeypatch):
    sched = SamplingSchedule(seed=11, dirs_per_level=16)
    queries = _runner_queries()
    direct = []
    for q in queries:
        if q.ystar is None:
            direct.append(is_fixed_point(sample_base(q.map, q.base, sched), q.xstar, q.mode))
        else:
            rays = registry_rays(q.map, q.base, q.xstar.values[None], q.ystar.values[None])
            direct.append(membership_test(q.map, q.base, q.xstar, q.ystar, sched, rays).verdict)
    assert {Verdict.MEMBER, Verdict.NON_MEMBER} <= set(direct)
    # the registry's ray rejects the perturbed image; sampling alone cannot
    near = queries[2]
    assert direct[2] == Verdict.NON_MEMBER
    assert membership_test(near.map, near.base, near.xstar, near.ystar, sched).verdict == Verdict.INDETERMINATE
    # each pass, and the rows an estimate's trace shares with it, must be
    # gone when the next pass is drawn
    drawn = []

    def tracked(mapd, base, schedule):
        assert all(ref() is None for ref in drawn)
        samples = sample_base(mapd, base, schedule)
        drawn.extend((weakref.ref(samples), weakref.ref(samples.us)))
        return samples

    monkeypatch.setattr(fixed_points, "sample_base", tracked)
    assert _verdicts(queries, sched) == direct
    assert len(drawn) == 2 * 3  # the exterior ball base, the cone base, the ball base again


def test_a_registry_run_takes_the_fixed_point_set_once_per_base_and_the_registry_once_per_query(monkeypatch):
    # the exterior ball pins the origin (every query settled), the p = 3
    # cone has no closed form (its duality image is a known member, the
    # other duals go to the oracle); membership queries ask neither
    sched = SamplingSchedule(seed=5, dirs_per_level=16)
    ballm = ball_projection_map(L24, 1.0)
    exterior = GraphPoint.at_point(ballm, primal(L24, [2.0, 0.5, 0, 0]))
    l34 = lp_space(3.0, 4)
    cone = cone_projection_map(l34)
    positive = GraphPoint.at_point(cone, primal(l34, [1.0, 2.0, 0, 0]))
    ystar = dual(L24, [0.3, -0.2, 0.5, 0.1])
    queries = [
        Query(ballm, exterior, dual(L24, [0.4, 0.1, 0, 0])),
        Query(ballm, exterior, DualVector.zero(L24)),
        Query(ballm, exterior, coderiv_ball_lp(exterior.x, 1.0, ystar).point, ystar),
        Query(ballm, exterior, dual(L24, [-0.6, 0.2, 0.1, 0])),
        Query(cone, positive, duality_map(positive.x)),
        Query(cone, positive, dual(l34, [0.5, -0.3, 0.2, 0.7])),
        Query(cone, positive, dual(l34, [0.0, 0.0, 0.2, 0.7])),
    ]
    expected = ask(queries, sched)
    sets, verdicts = [], []
    fixed_point_set, registry = MapDescriptor.fixed_point_set, fixed_points.registry_verdict

    def counted_set(self, base):
        sets.append(base)
        return fixed_point_set(self, base)

    def counted_verdict(*args):
        verdicts.append(args[2])
        return registry(*args)

    monkeypatch.setattr(MapDescriptor, "fixed_point_set", counted_set)
    monkeypatch.setattr(fixed_points, "registry_verdict", counted_verdict)
    assert ask(queries, sched) == expected
    assert sets == [exterior, positive]
    assert verdicts == [q.xstar for q in queries if q.ystar is None]


def _batch_instances(d):
    """(name, map, base) at dimension d: the affine maps, the ball interior
    and exterior at p = 2 and 3, the Lp cone at its origin and off it, the
    L1 cone, and the l_1 ball interior and exterior."""
    lp2, lp3, l1 = lp_space(2.0, d), lp_space(3.0, d), l1_space(d)
    ramp = np.linspace(1.0, -0.5, d) if d > 1 else np.ones(1)
    mixed = ramp * (np.arange(d) % 3 != 2)  # a sign change and zeros off d = 1
    instances = []
    for scale in (1.0, 2.0):
        mapd = affine_map(lp2, primal(lp2, 0.3 * ramp), scale)
        instances.append((f"affine scale {scale:g}", mapd, primal(lp2, 0.2 * ramp)))
    for space in (lp2, lp3):
        ballm = ball_projection_map(space, 1.0)
        for name, radius in (("interior", 0.5), ("exterior", 2.0)):
            x = primal(space, ramp)
            instances.append((f"ball p={space.p:g} {name}", ballm, (radius / norm(x)) * x))
    cone = cone_projection_map(lp3)
    instances.append(("cone p=3 origin", cone, PrimalVector.zero(lp3)))
    instances.append(("cone p=3", cone, primal(lp3, mixed)))
    instances.append(("cone L1", cone_projection_map(l1), primal(l1, mixed)))
    l1ball = l1_ball_projection_map(l1, 1.0)
    for name, radius in (("interior", 0.5), ("exterior", 2.0)):
        x = primal(l1, np.abs(ramp))
        instances.append((f"l1 ball {name}", l1ball, (radius / norm(x)) * x))
    return [(name, mapd, GraphPoint.at_point(mapd, x)) for name, mapd, x in instances]


def _one_at_a_time(samples, query):
    """The verdict of one query asked alone."""
    if query.ystar is None:
        return is_fixed_point(samples, query.xstar, query.mode)
    rays = registry_rays(query.map, query.base, query.xstar.values[None], query.ystar.values[None])
    return membership_test(
        query.map, query.base, query.xstar, query.ystar, samples.schedule, rays
    ).verdict


@pytest.mark.parametrize("shift, d", [(0, 1), (1, 4), (2, 16)])
def test_a_batch_pass_answers_each_query_as_a_batch_of_one(shift, d):
    # every candidate of a run, stacked, gets the verdict, extrapolated value
    # and quotient-form spread it gets when asked alone, bit for bit; the
    # first candidate is the dual origin, and each instance takes a
    # different candidate count at each dimension
    sched = SamplingSchedule(seed=17, dirs_per_level=16)
    rng = np.random.default_rng(d)
    for k, (name, mapd, base) in enumerate(_batch_instances(d)):
        space = mapd.space
        m = (1, 7, 9, 21)[(k + shift) % 4]
        cands = [DualVector.zero(space)]
        while len(cands) < m:
            w = dual(space, rng.normal(size=d))
            cands.append((rng.uniform(0.3, 1.5) / dual_norm(w)) * w)
        ystars = [dual(space, rng.normal(size=d)) for _ in cands]
        samples = sample_base(mapd, base, sched)
        # the one oracle pass of `ask`, over the fixed-point queries and then
        # the membership queries
        asked = [Query(mapd, base, w) for w in cands] + [Query(mapd, base, w, y) for w, y in zip(cands, ystars)]
        checked = fixed_points._oracle_pass(samples, asked)
        xs, ys = np.stack([w.values for w in cands]), np.stack([y.values for y in ystars])
        rays = registry_rays(mapd, base, xs, ys)
        answers = [answer for _, _, answer in checked[m:]]
        for w, y, extra, (spread, scale, fixed), answer in zip(cands, ystars, rays, checked, answers):
            own = registry_rays(mapd, base, w.values[None], w.values[None])
            alone = membership_test(mapd, base, w, w, sched, own)
            assert (fixed.verdict, fixed.extrapolated.hex()) == (alone.verdict, alone.extrapolated.hex()), name
            assert spread == np.max(quotient_forms_spread(w, samples.audit)), name
            assert scale == 1.0 + dual_norm(w), name
            alone = membership_test(mapd, base, w, y, sched, extra[None])
            assert (answer.verdict, answer.extrapolated.hex()) == (alone.verdict, alone.extrapolated.hex()), name
        queries = [Query(mapd, base, w, mode=mode) for mode in ("registry", "oracle", "audit") for w in cands]
        queries += [Query(mapd, base, w, y) for w, y in zip(cands, ystars)]
        assert _verdicts(queries, sched) == [_one_at_a_time(samples, q) for q in queries], name


def test_a_mixed_run_asks_the_oracle_once_and_gives_each_query_its_lone_verdict(monkeypatch):
    # at the base of cone_l2_theorem_4_3 (N = 6 and M = {1, 2}, so
    # coordinates 3 to 6 are off the support): fixed-point queries in the registry, oracle and
    # audit modes, and membership queries at a nonnegative anchor, in one run
    config = resolve_config("cone_l2_theorem_4_3")
    space, mapd, base, _, _ = _cone_setup(config, 2.0)
    sched = config.schedule()
    member = dual(space, [1.5, -0.8, 0.4, 1.2, 0.0, 0.7])
    outside = dual(space, [0.3, 0.9, 0.2, 0.5, -0.7, 1.0])
    anchor = dual(space, [-0.6, 1.1, 0.9, 1.4, 0.5, 0.8])
    queries = [
        Query(mapd, base, member, mode="registry"),
        Query(mapd, base, member, anchor),
        Query(mapd, base, outside, mode="oracle"),
        Query(mapd, base, anchor, anchor),
        Query(mapd, base, outside, mode="audit"),
        Query(mapd, base, outside, mode="registry"),
        Query(mapd, base, member, mode="oracle"),
        Query(mapd, base, outside, anchor),
        Query(mapd, base, DualVector.zero(space), mode="audit"),
        Query(mapd, base, member, mode="audit"),
    ]
    samples = sample_base(mapd, base, sched)
    alone = [_one_at_a_time(samples, q) for q in queries]
    assert {Verdict.MEMBER, Verdict.NON_MEMBER} <= set(alone)
    calls = []

    def counted(samples, xs, ys, extra_rays):
        calls.append(len(xs))
        return membership_batch(samples, xs, ys, extra_rays)

    monkeypatch.setattr(fixed_points, "membership_batch", counted)
    assert _verdicts(queries, sched) == alone
    # the registry-mode queries are settled by the closed form
    assert calls == [len(queries) - 2]


def test_the_first_failing_query_of_a_run_raises(monkeypatch):
    # two audit contradictions (each message names its own extrapolated
    # value) and an unknown mode in one run: whichever comes first in the
    # list raises, though the oracle answers the whole run at once
    samples = _exterior_ball_samples()
    ballm, base, sched = samples.map, samples.base, samples.schedule
    w = dual(L24, [1.0, 0.0, 0.0, 0.0])
    ok = [Query(ballm, base, dual(L24, [0.0, 0.7, 0.1, 0.0]), mode="oracle"), Query(ballm, base, w, w)]
    first, second = (Query(ballm, base, c * w, mode="audit") for c in (1.0, 2.0))
    unknown = Query(ballm, base, w, mode="bogus")
    assert _verdicts([*ok, first, second], sched) == [_one_at_a_time(samples, q) for q in (*ok, first, second)]
    monkeypatch.setattr(fixed_points, "registry_verdict", lambda mapd, base, candidate, char=None: Verdict.MEMBER)
    messages = []
    for q in (first, second):
        with pytest.raises(FixedPointAuditError, match="contradicts the closed form member") as raised:
            _one_at_a_time(samples, q)
        messages.append(str(raised.value))
    assert messages[0] != messages[1]
    for run, message in (([first, second], messages[0]), ([second, first], messages[1])):
        with pytest.raises(FixedPointAuditError) as raised:
            ask([ok[0], run[0], ok[1], run[1], unknown], sched)
        assert str(raised.value) == message
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        ask([ok[0], unknown, ok[1], first], sched)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_an_audit_at_the_cone_origin_sees_the_sign_of_a_dual(p, monkeypatch):
    # the registry calls a dual at the cone origin a fixed point only if it
    # is nonnegative; a mixed-sign one goes to the oracle, which rejects it.
    # A registry that forgets the sign condition contradicts the oracle.
    space = lp_space(p, 4)
    cone = cone_projection_map(space)
    origin = GraphPoint.at_point(cone, PrimalVector.zero(space))
    query = Query(cone, origin, dual(space, [0.5, -0.7, 0.2, 0.0]), mode="audit")
    sched = SamplingSchedule(seed=7)
    assert _verdicts([query], sched) == [Verdict.NON_MEMBER]
    known_member = MapDescriptor.known_member

    def without_the_sign_condition(self, base, cand):
        at_origin = self.kind == CONE_PROJ and self.space.kind == "Lp" and norm(base.x) == 0.0
        return known_member(self, base, cand) or at_origin

    monkeypatch.setattr(MapDescriptor, "known_member", without_the_sign_condition)
    with pytest.raises(FixedPointAuditError, match="contradicts the closed form member"):
        ask([query], sched)


def test_ask_answers_with_the_oracle_value_or_a_closed_form_verdict_without_one():
    # a membership query and an oracle-mode fixed-point query carry their
    # `membership_batch` answer alone, value bits and verdict; a query that
    # the exterior ball's closed form settles carries no value
    samples = _exterior_ball_samples()
    ballm, base, sched = samples.map, samples.base, samples.schedule
    ystar = dual(L24, [0.3, -0.2, 0.5, 0.1])
    w = dual(L24, [0.4, 0.1, 0.0, 0.0])
    asked = [
        Query(ballm, base, coderiv_ball_lp(base.x, 1.0, ystar).point, ystar),
        Query(ballm, base, w, mode="oracle"),
        Query(ballm, base, w),
    ]
    answers = ask(asked, sched)
    for q, answer in zip(asked[:2], answers):
        xs = q.xstar.values[None]
        ys = xs if q.ystar is None else q.ystar.values[None]
        (alone,) = membership_batch(samples, xs, ys, registry_rays(ballm, base, xs, ys)[:, None])
        assert (answer.verdict, answer.extrapolated.hex()) == (alone.verdict, alone.extrapolated.hex())
    assert answers[2] == Answer(None, registry_verdict(ballm, base, w)) == Answer(None, Verdict.NON_MEMBER)


def _spread_calls(monkeypatch):
    """Records each `quotient_forms_spread` call as (y*, base, us, vs,
    spreads), with the sample rows that its audit rows were built from."""
    built, calls = {}, []
    at, spread = AuditRows.at.__func__, fixed_points.quotient_forms_spread

    def recorded_at(cls, base, us, vs):
        rows = at(cls, base, us, vs)
        built[id(rows)] = (rows, base, us, vs)
        return rows

    def recorded_spread(ystar, rows):
        result = spread(ystar, rows)
        calls.append((ystar, *built[id(rows)][1:], result))
        return result

    monkeypatch.setattr(AuditRows, "at", classmethod(recorded_at))
    monkeypatch.setattr(fixed_points, "quotient_forms_spread", recorded_spread)
    return calls


@pytest.mark.parametrize("S", [16, 64, 1024])
@pytest.mark.parametrize("N", [2, 4, 16])
def test_structural_audits_each_instance_in_one_call_as_one_call_per_row(N, S, monkeypatch):
    # each (1, size) block of the stack pairs like a row of its own, so the
    # one call gives every row the spread of a call on that row alone (the
    # fewest levels, K = 4, keep the per-row reference loop short)
    calls = _spread_calls(monkeypatch)
    config = resolve_config("structural_prop_3_2", overrides={"N": str(N), "S": str(S), "K": "4"})
    checks = EXPERIMENTS["structural_prop_3_2"].run(config)
    monkeypatch.undo()
    assert all(check.passed for check in checks)
    assert len(calls) == 3
    for ystar, base, us, vs, spreads in calls:
        assert us.shape == vs.shape == (config.K * S, 1, ystar.space.size)
        alone = [quotient_forms_spread(ystar, AuditRows.at(base, u, v)) for u, v in zip(us, vs)]
        assert spreads.shape == (config.K * S, 1)
        assert spreads.tobytes() == np.stack(alone).tobytes()


def test_structural_and_l1_cases_sample_each_base_once(monkeypatch):
    # structural_prop_3_2: five origin estimates, the polynomial quotient
    # and the cone probe's one run; l1_cases: its 21 queries at one base
    draws = []

    def counted(mapd, base, schedule):
        draws.append(base)
        return sample_base(mapd, base, schedule)

    monkeypatch.setattr(limsup_oracle, "sample_base", counted)
    monkeypatch.setattr(fixed_points, "sample_base", counted)
    calls = _spread_calls(monkeypatch)
    for experiment, passes, spreads in (("structural_prop_3_2", 7, 3), ("l1_cases", 1, 0)):
        draws.clear()
        calls.clear()
        assert all(check.passed for check in EXPERIMENTS[experiment].run(resolve_config(experiment)))
        assert (len(draws), len(calls)) == (passes, spreads), experiment


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


@pytest.mark.parametrize("grid_size", [6, 7, 8, 9, 10, 11, 12, 13])
def test_poly_annihilator_on_a_grid_where_chebyshev_points_share_a_node(grid_size):
    # n + 2 = G: two of the Chebyshev points round to one node, and the
    # atoms are the exchange's first reference, which fills in free nodes
    space, degree = c01_space(grid_size), grid_size - 2
    last = grid_size - 1
    assert len({round(t * last) for t in chebyshev.chebyshev_points(degree + 2)}) < degree + 2
    gamma = poly_annihilator(space, degree)
    atoms = np.flatnonzero(gamma.values)
    assert atoms.tolist() == chebyshev.chebyshev_nodes(grid_size, degree)
    assert atoms.size == degree + 2
    assert abs(dual_norm(gamma) - 1.0) <= 1e-12
    for k in range(degree + 1):
        assert abs(pairing(gamma, primal(space, space.grid**k))) <= 1e-12


@pytest.mark.parametrize("grid_size", [33, 513, 4097])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_poly_annihilator_keeps_its_atoms_and_weights_where_no_points_collide(degree, grid_size):
    # reference: the selection before the annihilator shared the exchange's
    # first reference, each Chebyshev point rounded to its nearest node
    space = c01_space(grid_size)
    last = grid_size - 1
    pts = space.grid[[int(round(t * last)) for t in chebyshev.chebyshev_points(degree + 2)]]
    weights, _ = chebyshev.annihilator(pts, degree)
    expected = atomic_measure(space, tuple(zip(pts.tolist(), weights.tolist())))
    assert poly_annihilator(space, degree).values.tobytes() == expected.values.tobytes()


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

