import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_oracle as ref
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
from projderiv.experiments import (
    EXPERIMENTS,
    _cone_setup,
    _origin_estimate,
    _random_smooth,
    _structural_instances,
    experiment_trace,
    resolve_config,
)
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
    estimate_limsup,
    membership_batch,
    membership_test,
    sample_base,
)
from projderiv.spaces import (
    KIND_C01,
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


def _query(mapd, base, xstar, ystar=None, mode="registry"):
    """A query of one dual: a block of one."""
    return Query(mapd, base, xstar.values[None], None if ystar is None else ystar.values[None], mode)


def _duals(query):
    """The x* and y* (None for a fixed-point query) of a query of one dual."""
    space = query.map.space
    return dual(space, query.xstars[0]), None if query.ystars is None else dual(space, query.ystars[0])


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
    members = np.stack([rng.normal(size=4) for _ in range(4)])
    labels, cands = convexity_candidates(members, trials=30, seed=0)
    steps = [f"sequence step {k}" for k in range(1, 7)]
    assert labels == [*(f"combination trial {t}" for t in range(30)), *steps, "sequence limit"]
    assert cands.shape == (37, 4) and np.array_equal(cands[-1], members[0])
    for mode in ("registry", "oracle"):
        assert _verdicts([Query(ballm, base, cands, mode=mode)], SamplingSchedule(seed=3)) == [Verdict.MEMBER] * 37
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
        _query(ballm, exterior, dual(L24, [0.4, 0.1, 0, 0]), mode="oracle"),
        _query(ballm, exterior, image, ystar),
        _query(ballm, exterior, image + dual(L24, [0.02, 0.0, 0.0, 0.0]), ystar),
        _query(ballm, exterior, DualVector.zero(L24), mode="audit"),
        _query(cone, positive, off_support),
        _query(cone, positive, dual(L24, [0.5, -0.3, -0.4, 0.7]), mode="audit"),
        _query(cone, positive, off_support, off_support),
        _query(ballm, exterior, dual(L24, [-0.6, 0.2, 0.1, 0]), mode="registry"),
    ]


def test_ask_matches_direct_calls_and_draws_one_pass_per_base_run(monkeypatch):
    sched = SamplingSchedule(seed=11, dirs_per_level=16)
    queries = _runner_queries()
    # two more ball bases: an interior one asked as many oracle queries as
    # the first run, so the two runs stack though the cone's run and the
    # registry's run sit between them, and one asked a single query
    ballm, exterior, positive = queries[0].map, queries[0].base, queries[4].base
    interior = GraphPoint.at_point(ballm, primal(L24, [0.3, -0.2, 0.1, 0.0]))
    far = GraphPoint.at_point(ballm, primal(L24, [0.0, -3.0, 1.0, 0.5]))
    queries += [_query(ballm, interior, dual(L24, [0.2 * k, 0.3, -0.2, 0.4]), mode="oracle") for k in range(4)]
    queries += [_query(ballm, far, dual(L24, [0.0, 0.6, -0.2, 0.1]), mode="audit")]
    direct = []
    for q in queries:
        xstar, ystar = _duals(q)
        if ystar is None:
            direct.append(is_fixed_point(sample_base(q.map, q.base, sched), xstar, q.mode))
        else:
            rays = registry_rays(q.map, [q.base], q.xstars[None], q.ystars[None])[0]
            direct.append(membership_test(q.map, q.base, xstar, ystar, sched, rays).verdict)
    assert {Verdict.MEMBER, Verdict.NON_MEMBER} <= set(direct)
    # the registry's ray rejects the perturbed image; sampling alone cannot
    near = queries[2]
    assert direct[2] == Verdict.NON_MEMBER
    assert membership_test(near.map, near.base, *_duals(near), sched).verdict == Verdict.INDETERMINATE
    # each stack's pass, the one holder of the finest level its walk kept,
    # must be gone when the next stack's pass is drawn
    drawn, stacks = [], []

    def tracked(mapd, bases, schedule):
        assert all(ref() is None for ref in drawn)
        samples = sample_base(mapd, bases, schedule)
        drawn.extend((weakref.ref(samples), weakref.ref(samples.x)))
        stacks.append(samples.bases)
        return samples

    monkeypatch.setattr(limsup_oracle, "sample_base", tracked)
    assert _verdicts(queries, sched) == direct
    # the stacks in the order of their first run: the two ball runs of four
    # oracle queries, the cone run, and the far ball base; the registry
    # settles the ball run between them, which draws no pass
    assert stacks == [(exterior, interior), (positive,), (far,)]


@pytest.mark.parametrize("points", [1, 2])
def test_an_audit_ask_evaluates_each_level_of_its_pass_once(points, monkeypatch):
    # fixed-point queries in the audit mode at the bases of one stack: the
    # walk evaluates each of the two finest levels, the ones the verdicts
    # read, once, and the audit reads the finest level it kept instead of
    # evaluating it again; the rays' rows are counted apart
    space = lp_space(3.0, 4)
    ballm = ball_projection_map(space, 1.0)
    bases = [GraphPoint.at_point(ballm, primal(space, [1.2, -0.8, 0.5, 0.3 * k])) for k in range(points)]
    rng = np.random.default_rng(31)
    queries = [_query(ballm, base, dual(space, rng.normal(size=4)), mode="audit") for base in bases for _ in range(3)]
    sched = SamplingSchedule(seed=5)
    value_batch, ray_rows, forms_spread = MapDescriptor.value_batch, limsup_oracle._ray_rows, AuditRows.spread
    evaluated, rays, audits = [], [], []

    def counted_values(self, rows):
        evaluated.append(len(rows))
        return value_batch(self, rows)

    def counted_rays(mapd, x, y, t_starts, directions, split_l1_denominator=False):
        rays.append(len(directions) * limsup_oracle.RAY_STEPS)
        return ray_rows(mapd, x, y, t_starts, directions, split_l1_denominator)

    def counted_audits(*args):
        audits.append(args)
        return forms_spread(*args)

    monkeypatch.setattr(MapDescriptor, "value_batch", counted_values)
    monkeypatch.setattr(limsup_oracle, "_ray_rows", counted_rays)
    monkeypatch.setattr(AuditRows, "spread", counted_audits)
    ask(queries, sched)
    assert len(audits) == 1
    assert sum(evaluated) - sum(rays) == points * 2 * sched.dirs_per_level


def _walked_levels(call, monkeypatch) -> list[int]:
    """The levels of each pass that `call` evaluates, in the order its walks
    evaluate them (`limsup_oracle._level_rows`)."""
    level_rows, walked = limsup_oracle._level_rows, []

    def recorded(samples, block):
        walked.extend(range(len(samples.radii))[block])
        return level_rows(samples, block)

    with monkeypatch.context() as patch:
        patch.setattr(limsup_oracle, "_level_rows", recorded)
        call()
    return walked


@pytest.mark.parametrize("levels", [4, 8, 10])
@pytest.mark.parametrize("n, rows", [(4, 64), (16, 1024)])
def test_a_batch_walk_evaluates_only_the_levels_its_verdicts_read(levels, n, rows, monkeypatch):
    # at N = 4, S = 64 a block holds every level of a pass, at N = 16,
    # S = 1024 one level; `ask` and `membership_batch` evaluate the two
    # finest levels, those whose suprema the limsup rule reads, of each pass
    # (both stack the two bases in one pass at N = 4 and draw one pass per
    # base at N = 16); an estimate, a membership test and a trace keep every
    # level's quotients, so they evaluate all of them
    space = lp_space(3.0, n)
    ballm = ball_projection_map(space, 1.0)
    ramp = np.linspace(-1.0, 2.0, n)
    bases = [GraphPoint.at_point(ballm, primal(space, scale * ramp)) for scale in (0.2, 1.5)]
    sched = SamplingSchedule(levels=levels, dirs_per_level=rows, seed=4)
    rng = np.random.default_rng(levels)
    duals = [dual(space, rng.normal(size=n)) for _ in range(3)]
    queries = [_query(ballm, base, w, mode="oracle") for base in bases for w in duals]
    finest, every = [levels - 2, levels - 1], list(range(levels))
    passes = 1 if n == 4 else len(bases)
    assert _walked_levels(lambda: ask(queries, sched), monkeypatch) == finest * passes
    xs = np.stack([np.stack([w.values for w in duals])] * len(bases))
    fixed = np.zeros(xs.shape[:2], bool)

    def no_rays(mapd, bases, xs, ys):
        return np.zeros(xs.shape)

    batch = _walked_levels(lambda: membership_batch(ballm, bases, xs, xs[::-1], fixed, sched, no_rays), monkeypatch)
    assert batch == finest * passes
    base, w = bases[1], duals[0]
    assert _walked_levels(lambda: estimate_limsup(ballm, base, w, duals[1], sched), monkeypatch) == every
    assert _walked_levels(lambda: membership_test(ballm, base, w, duals[1], sched), monkeypatch) == every
    overrides = {"p": "3", "N": str(n), "S": str(rows), "K": str(levels)}
    config = resolve_config("ball_coderiv_theorem_3_1", overrides=overrides)
    assert _walked_levels(lambda: experiment_trace(config), monkeypatch) == every


@pytest.mark.parametrize("kind", ["ball", "cone"])
def test_a_wide_ask_holds_no_whole_pass(kind):
    # N = 16, S = 1024, K = 8 and p = 3: one whole pass of rows, us and vs,
    # is 2 MiB; a warm one-base ask stays below it
    space = lp_space(3.0, 16)
    mapd = ball_projection_map(space, 1.0) if kind == "ball" else cone_projection_map(space)
    base = GraphPoint.at_point(mapd, primal(space, np.linspace(-1.0, 2.0, 16)))
    sched = SamplingSchedule(seed=3, dirs_per_level=1024)
    rng = np.random.default_rng(0)
    duals = [dual(space, rng.normal(size=16)) for _ in range(4)]
    queries = [_query(mapd, base, w, mode="audit") for w in duals] + [_query(mapd, base, w, duals[0]) for w in duals]
    whole = 2 * sched.levels * sched.dirs_per_level * space.size * 8
    assert whole == 2**21
    assert _warm_peak(lambda: ask(queries, sched)) < whole


@pytest.mark.parametrize("kind", ["ball", "cone"])
def test_a_wide_ask_of_many_candidates_holds_no_whole_pass(kind):
    # 48 audit queries at one base of N = 16, S = 1024: one level of their
    # quotients is 48 x 1,024 entries, three times QUOTIENT_BLOCK, so the
    # walk and the audit take the candidates by parts and the ask stays
    # below one whole pass
    space = lp_space(3.0, 16)
    mapd = ball_projection_map(space, 1.0) if kind == "ball" else cone_projection_map(space)
    base = GraphPoint.at_point(mapd, primal(space, np.linspace(-1.0, 2.0, 16)))
    sched = SamplingSchedule(seed=3, dirs_per_level=1024)
    rng = np.random.default_rng(1)
    queries = [_query(mapd, base, dual(space, rng.normal(size=16)), mode="audit") for _ in range(48)]
    assert _warm_peak(lambda: ask(queries, sched)) < 2 * sched.levels * sched.dirs_per_level * space.size * 8


def _warm_peak(call) -> int:
    """The tracemalloc peak of `call`, made once before to fill its caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _poly_schedule(monkeypatch, f, degree) -> SamplingSchedule:
    """The schedule of `poly_fixed_point_quotient` at f, recorded on its one
    `estimate_limsup` call."""
    schedules = []

    def recording(mapd, base, xstar, ystar, schedule):
        schedules.append(schedule)
        return limsup_oracle.estimate_limsup(mapd, base, xstar, ystar, schedule)

    with monkeypatch.context() as patch:
        patch.setattr(fixed_points, "estimate_limsup", recording)
        poly_fixed_point_quotient(f, degree, DualVector.zero(f.space))
    (schedule,) = schedules
    return schedule


def test_a_warm_polynomial_estimate_holds_no_whole_trace(monkeypatch):
    # G = 4097: 5 levels of 16 directions and 8 rays; the whole pass, us
    # and vs, is 7.9 MB, and the estimate, whose trace is its quotients,
    # stays below it
    space = c01_space(4097)
    f, theta = primal(space, space.grid**2), DualVector.zero(space)
    sched = _poly_schedule(monkeypatch, f, 1)
    whole = 2 * sched.levels * (sched.dirs_per_level + len(sched.extra_rays)) * space.size * 8
    assert whole == 2 * 5 * 24 * 4097 * 8
    assert _warm_peak(lambda: poly_fixed_point_quotient(f, 1, theta)) < whole


@pytest.mark.parametrize("instance", ["translation", "ball interior", "ball exterior", "l1 exterior"])
def test_a_wide_structural_origin_estimate_holds_no_whole_pass(instance):
    # N = 16, S = 1024, K = 8: the whole pass of a 16-dimensional instance,
    # us and vs, is 2 MiB; its warm origin estimate, with the three-form
    # audit of every row, stays below it
    config = resolve_config("structural_prop_3_2", overrides={"N": "16", "S": "1024"})
    mapd, base = {name: (mapd, base) for name, mapd, base in _structural_instances(config)[0]}[instance]
    sched = config.schedule()
    assert 2 * sched.levels * sched.dirs_per_level * mapd.space.size * 8 == 2**21
    ystar = dual(mapd.space, np.linspace(-1.0, 1.0, 16))
    assert _warm_peak(lambda: _origin_estimate(mapd, base, sched, ystar)) < 2**21


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
        _query(ballm, exterior, dual(L24, [0.4, 0.1, 0, 0])),
        _query(ballm, exterior, DualVector.zero(L24)),
        _query(ballm, exterior, coderiv_ball_lp(exterior.x, 1.0, ystar).point, ystar),
        _query(ballm, exterior, dual(L24, [-0.6, 0.2, 0.1, 0])),
        _query(cone, positive, duality_map(positive.x)),
        _query(cone, positive, dual(l34, [0.5, -0.3, 0.2, 0.7])),
        _query(cone, positive, dual(l34, [0.0, 0.0, 0.2, 0.7])),
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
    assert [w.values.tolist() for w in verdicts] == [q.xstars[0].tolist() for q in queries if q.ystars is None]


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
    xstar, ystar = _duals(query)
    if ystar is None:
        return is_fixed_point(samples, xstar, query.mode)
    rays = registry_rays(query.map, [query.base], query.xstars[None], query.ystars[None])[0]
    return membership_test(query.map, query.base, xstar, ystar, samples.schedule, rays).verdict


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
        # the one oracle batch of `ask`, over the fixed-point queries and
        # then the membership queries
        xs, ys = np.stack([w.values for w in cands]), np.stack([y.values for y in ystars])
        asked = np.concatenate([xs, xs]), np.concatenate([xs, ys]), np.arange(2 * m) < m
        (checked,) = membership_batch(mapd, [base], *(array[None] for array in asked), sched, registry_rays)
        finest = ref.sample_pass(mapd, base, sched)
        (rays,) = registry_rays(mapd, [base], xs[None], ys[None])
        answers = [answer for _, _, answer in checked[m:]]
        for w, y, extra, (spread, scale, fixed), answer in zip(cands, ystars, rays, checked, answers):
            own = registry_rays(mapd, [base], w.values[None, None], w.values[None, None])[0]
            alone = membership_test(mapd, base, w, w, sched, own)
            assert (fixed.verdict, fixed.extrapolated.hex()) == (alone.verdict, alone.extrapolated.hex()), name
            want = ref.audit_spread(space, base.x.values, base.y.values, finest.us[-1], finest.vs[-1], w.values[None])
            assert spread.hex() == float(want.max()).hex(), name
            assert scale == 1.0 + dual_norm(w), name
            alone = membership_test(mapd, base, w, y, sched, extra[None])
            assert (answer.verdict, answer.extrapolated.hex()) == (alone.verdict, alone.extrapolated.hex()), name
        # each mode's candidates, and the membership candidates, as one block
        modes = ("registry", "oracle", "audit")
        blocks = [Query(mapd, base, xs, mode=mode) for mode in modes] + [Query(mapd, base, xs, ys)]
        alone = [_query(mapd, base, w, mode=mode) for mode in modes for w in cands]
        alone += [_query(mapd, base, w, y) for w, y in zip(cands, ystars)]
        assert _verdicts(blocks, sched) == [_one_at_a_time(samples, q) for q in alone], name


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
        _query(mapd, base, member, mode="registry"),
        _query(mapd, base, member, anchor),
        _query(mapd, base, outside, mode="oracle"),
        _query(mapd, base, anchor, anchor),
        _query(mapd, base, outside, mode="audit"),
        _query(mapd, base, outside, mode="registry"),
        _query(mapd, base, member, mode="oracle"),
        _query(mapd, base, outside, anchor),
        _query(mapd, base, DualVector.zero(space), mode="audit"),
        _query(mapd, base, member, mode="audit"),
    ]
    samples = sample_base(mapd, base, sched)
    alone = [_one_at_a_time(samples, q) for q in queries]
    assert {Verdict.MEMBER, Verdict.NON_MEMBER} <= set(alone)
    calls = []
    walked, fold = limsup_oracle._sampled_sups, limsup_oracle._fold_rays

    def counted_walks(samples, xs, ys, fixed):
        calls.append(("walk", xs.shape[:2]))
        return walked(samples, xs, ys, fixed)

    def counted_folds(samples, xs, ys, extra_rays, values):
        calls.append(("fold", xs.shape[:2]))
        return fold(samples, xs, ys, extra_rays, values)

    monkeypatch.setattr(limsup_oracle, "_sampled_sups", counted_walks)
    monkeypatch.setattr(limsup_oracle, "_fold_rays", counted_folds)
    assert _verdicts(queries, sched) == alone
    # one walk and one fold of rays for the run's one stack, a stack of one
    # base; the registry-mode queries are settled by the closed form
    assert calls == [("walk", (1, len(queries) - 2)), ("fold", (1, len(queries) - 2))]


def test_the_first_failing_query_of_a_run_raises(monkeypatch):
    # two audit contradictions (each message names its own extrapolated
    # value) and an unknown mode in one run: whichever comes first in the
    # list raises, though the oracle answers the whole run at once
    samples = _exterior_ball_samples()
    ballm, base, sched = samples.map, samples.base, samples.schedule
    w = dual(L24, [1.0, 0.0, 0.0, 0.0])
    ok = [_query(ballm, base, dual(L24, [0.0, 0.7, 0.1, 0.0]), mode="oracle"), _query(ballm, base, w, w)]
    first, second = (_query(ballm, base, c * w, mode="audit") for c in (1.0, 2.0))
    unknown = _query(ballm, base, w, mode="bogus")
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
    query = _query(cone, origin, dual(space, [0.5, -0.7, 0.2, 0.0]), mode="audit")
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
        _query(ballm, base, coderiv_ball_lp(base.x, 1.0, ystar).point, ystar),
        _query(ballm, base, w, mode="oracle"),
        _query(ballm, base, w),
    ]
    answers = ask(asked, sched)
    for q, answer in zip(asked[:2], answers):
        xs = q.xstars
        ys = xs if q.ystars is None else q.ystars
        fixed = np.array([[q.ystars is None]])
        (((_, _, alone),),) = membership_batch(ballm, [base], xs[None], ys[None], fixed, sched, registry_rays)
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
def test_structural_audits_each_block_in_one_call_as_one_call_per_row(N, S, monkeypatch):
    # each (1, size) block of the stack pairs like a row of its own, so the
    # one call on a block of levels gives every row the spread of a call on
    # that row alone, and an instance's calls cover its pass block by block
    # (the fewest levels, K = 4, keep the per-row reference loop short)
    calls = _spread_calls(monkeypatch)
    config = resolve_config("structural_prop_3_2", overrides={"N": str(N), "S": str(S), "K": "4"})
    checks = EXPERIMENTS["structural_prop_3_2"].run(config)
    monkeypatch.undo()
    assert all(check.passed for check in checks)
    blocks = limsup_oracle._level_blocks((config.K, S, N), 1)
    assert len(calls) == 3 * len(blocks)
    for instance in range(3):
        own = calls[instance * len(blocks) : (instance + 1) * len(blocks)]
        assert all(call[0] is own[0][0] for call in own)  # one y* per instance
        for (ystar, base, us, vs, spreads), block in zip(own, blocks):
            levels = len(range(config.K)[block])
            assert us.shape == vs.shape == (levels * S, 1, ystar.space.size)
            alone = [quotient_forms_spread(ystar, AuditRows.at(base, u, v)) for u, v in zip(us, vs)]
            assert spreads.shape == (levels * S, 1)
            assert spreads.tobytes() == np.stack(alone).tobytes()


def test_structural_and_l1_cases_sample_each_base_once(monkeypatch):
    # structural_prop_3_2: five origin estimates, the polynomial quotient
    # and the cone probe's one run; l1_cases: its 21 queries at one base
    draws = []

    def counted(mapd, base, schedule):
        draws.append(base)
        return sample_base(mapd, base, schedule)

    monkeypatch.setattr(limsup_oracle, "sample_base", counted)
    calls = _spread_calls(monkeypatch)
    for experiment, passes, spreads in (("structural_prop_3_2", 7, 3), ("l1_cases", 1, 0)):
        draws.clear()
        calls.clear()
        assert all(check.passed for check in EXPERIMENTS[experiment].run(resolve_config(experiment)))
        assert (len(draws), len(calls)) == (passes, spreads), experiment


# one experiment per trace builder driven by N and S (the ball, the
# translation, the cone at p = 2 and p = 3, the l_1 ball), and the polynomial
# builder on the fine grid
@pytest.mark.parametrize(
    "experiment",
    ["ball_coderiv_theorem_3_1", "affine_props_3_3_3_5", "cone_l2_theorem_4_3", "cone_lp_theorem_4_2", "l1_cases",
     "poly_theorem_4_11"],
)
def test_a_warm_trace_builder_holds_no_whole_pass(experiment):
    # a trace is its quotients: the whole pass of the traced estimate, us
    # and vs, is 2 x K x S x N x 8 bytes (2 MiB at K = 8, 2.5 MiB at
    # K = 10), and 7.9 MB for the polynomial's 5 levels of 24 rows at
    # G = 4097; the warm builder stays below it
    poly = experiment == "poly_theorem_4_11"
    config = resolve_config(experiment, overrides={"G": "4097"} if poly else {"N": "16", "S": "1024"})
    levels, rows = experiment_trace(config).trace.quotients.shape
    size = config.G if poly else config.N
    if not poly:
        assert (levels, rows) == (config.K, config.S)
    whole = 2 * levels * rows * size * 8
    assert whole in (2**21, 10 * 2**18, 2 * 5 * 24 * 4097 * 8)
    assert _warm_peak(lambda: experiment_trace(config)) < whole


def _run_estimates(monkeypatch, runs):
    """The arguments of every `estimate_limsup` call made by the runs, each
    (experiment, overrides), and the estimate it returned; each run's
    checks must pass."""
    calls, estimate = [], limsup_oracle.estimate_limsup

    def recorded(*args, **kwargs):
        est = estimate(*args, **kwargs)
        calls.append((args, est))
        return est

    with monkeypatch.context() as patch:
        patch.setattr(limsup_oracle, "estimate_limsup", recorded)
        patch.setattr(fixed_points, "estimate_limsup", recorded)
        for experiment, overrides in runs:
            checks = EXPERIMENTS[experiment].run(resolve_config(experiment, overrides=overrides))
            assert all(check.passed for check in checks), experiment
    return calls


def _is_reference_estimate(est, reference, base, xstar, ystar):
    """`est` is the estimate of (x*, y*) over the reference pass at the
    base, bit for bit: its trace is the pass's quotients, its per-level
    suprema their row maxima, and its value the larger of the two finest."""
    want = ref.pass_quotients(base.x.space, base, reference, xstar.values[None], ystar.values[None])[0]
    sups = want.max(axis=1).tolist()
    assert est.trace.quotients.tobytes() == want.tobytes()
    assert [s.hex() for s in est.per_level_sup] == [s.hex() for s in sups]
    assert est.extrapolated.hex() == max(sups[-2:]).hex()


@pytest.mark.parametrize("budget", [None, 700, 1])
@pytest.mark.parametrize("G", [33, 4097])
def test_the_estimates_of_a_run_are_the_reference_estimates_bit_for_bit(G, budget, monkeypatch):
    # the five structural origin estimates, the polynomial one on the grid
    # of G nodes and the affine translation's, in the live blocks of levels,
    # in blocks of at most two levels (budget 700) and of one level each
    # (budget 1); and, at each of their passes, a nonzero fixed-point
    # candidate w and the pair (w, w / 2)
    if budget is not None:
        monkeypatch.setattr(limsup_oracle, "QUOTIENT_BLOCK", budget)
    calls = _run_estimates(monkeypatch, [("structural_prop_3_2", {"G": str(G)}), ("affine_props_3_3_3_5", {})])
    assert len(calls) == 7
    for (mapd, base, xstar, ystar, sched), est in calls:
        reference = ref.sample_pass(mapd, base, sched)
        _is_reference_estimate(est, reference, base, xstar, ystar)
        space = mapd.space
        w = (atomic_measure(space, [(0.0, 1.0), (0.3, -0.5), (0.8, 0.25)]) if space.kind == KIND_C01
             else dual(space, np.linspace(-0.5, 1.0, space.size)))
        for xs, ys in ((w, w), (w, 0.5 * w)):
            _is_reference_estimate(limsup_oracle.estimate_limsup(mapd, base, xs, ys, sched), reference, base, xs, ys)
        if budget is not None:
            assert len(limsup_oracle._level_blocks(sample_base(mapd, base, sched)._shape, 1)) > 1


@pytest.mark.parametrize("budget", [None, 700, 1])
@pytest.mark.parametrize("N, S", [(4, 64), (16, 1024)])
def test_the_blockwise_structural_spread_is_the_spread_of_the_whole_pass(N, S, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(limsup_oracle, "QUOTIENT_BLOCK", budget)
    config = resolve_config("structural_prop_3_2", overrides={"N": str(N), "S": str(S)})
    sched = config.schedule()
    rng = np.random.default_rng(N)
    for _, mapd, base in _structural_instances(config)[0][:3]:
        size = mapd.space.size
        ystar = dual(mapd.space, rng.uniform(-1.5, 1.5, size=size))
        est, spread = _origin_estimate(mapd, base, sched, ystar)
        theta = DualVector.zero(mapd.space)
        reference = ref.sample_pass(mapd, base, sched)
        _is_reference_estimate(est, reference, base, theta, theta)
        rows = AuditRows.at(base, reference.us.reshape(-1, 1, size), reference.vs.reshape(-1, 1, size))
        assert spread.hex() == float(quotient_forms_spread(ystar, rows).max()).hex()
        assert _origin_estimate(mapd, base, sched, None)[1] == 0.0


def test_a_wrong_quotient_formula_fails_both_audits(monkeypatch):
    # each audit's first form is the quotients of `_quotients`, which the
    # verdicts read too: scaled by 1.001 they disagree with the other two
    # forms, in the oracle's audit of a fixed-point block and in the origin
    # estimates of structural_prop_3_2
    quotients = limsup_oracle._quotients
    monkeypatch.setattr(limsup_oracle, "_quotients", lambda *args: quotients(*args) * 1.001)
    samples = _exterior_ball_samples()
    xs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 4))
    with pytest.raises(FixedPointAuditError, match="quotient forms disagree"):
        ask([Query(samples.map, samples.base, xs, mode="oracle")], samples.schedule)
    config = resolve_config("structural_prop_3_2")
    _, mapd, base = _structural_instances(config)[0][2]  # the ball's exterior base
    ystar = dual(mapd.space, np.linspace(-1.0, 1.0, mapd.space.size))
    assert _origin_estimate(mapd, base, config.schedule(), ystar)[1] > 1e-12


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
    assert tuple(atoms.tolist()) == chebyshev.chebyshev_nodes(grid_size, degree)
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


def _per_step_scaling_report(f, degree, mu, gamma):
    """The scaling path's report step by step: the reference oracle's
    one-row quotient at each of ten steps from lambda = 0.05, halving, and
    its Richardson step."""
    lams = [0.05 * 0.5**j for j in range(10)]
    rows = np.array([f.values] + [(1.0 + lam) * f.values for lam in lams])
    fitted_rows = chebyshev.fits_on_grid(f.space, chebyshev.remez_rows(f.space, rows, degree))
    p_grid = fitted_rows[0]
    base = GraphPoint(f, PrimalVector(f.space, p_grid))
    steps = [(PrimalVector(f.space, g), PrimalVector(f.space, q)) for g, q in zip(rows[1:], fitted_rows[1:])]
    limit = float(ref.richardson(np.array([ref.quotient(base, g, q, mu, gamma) for g, q in steps])))
    predicted = pairing(mu, f) / (norm(f) + float(np.max(np.abs(p_grid))))
    excluded = None
    if dual_norm(mu - gamma) <= 1e-12 * (1.0 + dual_norm(mu)):
        excluded = limit >= limsup_oracle.tolerance_pair(mu)[1]
    return (
        limit,
        predicted,
        abs(limit - predicted) / max(abs(predicted), 1e-300),
        limit >= limsup_oracle.tolerance_pair(gamma)[1],
        excluded,
    )


@pytest.mark.parametrize("grid_size", [33, 513, 4097])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_scaling_path_matches_the_per_step_reference(grid_size, degree):
    """The scaling path as an oracle ray (`_increments`, `_quotients`,
    `_richardson`) gives every report field of the per-step loop bit for
    bit, at f = t^2 and at random smooth f, for mu a point mass and for
    mu = gamma where <gamma, f> != 0."""
    space = c01_space(grid_size)
    rng = np.random.default_rng([grid_size, degree])
    gamma = poly_annihilator(space, degree)
    mu = atomic_measure(space, [(1.0, 1.0)])
    for f in [primal(space, space.grid**2), _random_smooth(space, rng), _random_smooth(space, rng)]:
        for candidate in (mu, gamma):
            if abs(pairing(candidate, f)) <= 1e-12:
                continue  # gamma annihilates t^2 from degree 2 on
            report = scaling_direction_report(f, degree, candidate, gamma)
            got = (
                report.limit,
                report.predicted,
                report.relative_error,
                report.candidate_excluded,
                report.fixed_point_excluded,
            )
            expected = _per_step_scaling_report(f, degree, candidate, gamma)
            assert np.array(got[:3]).tobytes() == np.array(expected[:3]).tobytes()
            assert got[3:] == expected[3:]


@pytest.mark.parametrize("grid_size", [513, 4097])
def test_poly_quotient_rays_are_the_grid_powers(grid_size, monkeypatch):
    """The polynomial rays of `poly_fixed_point_quotient` are the columns of
    the grid's power matrix (`chebyshev._grid_powers`), byte for byte the
    powers grid**k on these grids, whose nodes are dyadic."""
    space, degree = c01_space(grid_size), 1
    schedule = _poly_schedule(monkeypatch, primal(space, space.grid**2), degree)
    rays = [ray.values.tobytes() for ray in schedule.extra_rays[1 : degree + 3]]
    powers = chebyshev._grid_powers(space, degree + 1)[0]
    assert rays == [column.tobytes() for column in powers.T]
    assert rays == [(space.grid**k).tobytes() for k in range(degree + 2)]


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

