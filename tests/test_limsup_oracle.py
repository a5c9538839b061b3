import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from projderiv.coderivatives import (
    SPHERE_BAND,
    MapDescriptor,
    affine_map,
    ball_projection_map,
    coderiv_affine,
    coderiv_ball_lp,
    coderiv_l1ball,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
)
from projderiv import limsup_oracle
from projderiv.fixed_points import is_fixed_point, quotient_forms_spread, registry_rays
from projderiv.limsup_oracle import (
    RAY_RATIO,
    RAY_STEPS,
    RAY_T0,
    GraphPoint,
    SamplingSchedule,
    Verdict,
    directed_ray_limit,
    estimate_limsup,
    membership_test,
    quotient,
    sample_base,
    tolerance_pair,
    trace_to_csv,
)
from projderiv.spaces import (
    DualVector,
    PrimalVector,
    atomic_measure,
    c01_space,
    dual,
    dual_norm,
    duality_map_inverse,
    l1_space,
    lp_space,
    norm,
    norm_rows,
    norming_direction,
    pairing,
    pairing_rows,
    primal,
)

L24 = lp_space(2.0, 4)


def _translation(space, scale=1.0):
    rngv = np.linspace(0.4, -0.2, space.size)
    return affine_map(space, primal(space, rngv), scale)


def test_quotient_identity_map_is_zero(rng):
    identity = affine_map(L24, PrimalVector.zero(L24), 1.0)
    base = GraphPoint.at_point(identity, PrimalVector.zero(L24))
    w = dual(L24, [1, 2, 0, 0])
    for _ in range(10):
        u = primal(L24, rng.normal(size=4) * 0.1)
        assert quotient(identity, base, u, identity.value(u), w, w) == 0.0
    translation = _translation(L24)
    base_t = GraphPoint.at_point(translation, PrimalVector.zero(L24))
    for _ in range(10):
        u = primal(L24, rng.normal(size=4) * 0.1)
        q = quotient(translation, base_t, u, translation.value(u), w, w)
        assert abs(q) <= 1e-14


def test_quotient_zero_denominator():
    mapd = _translation(L24)
    base = GraphPoint.at_point(mapd, PrimalVector.zero(L24))
    w = dual(L24, [1, 0, 0, 0])
    with pytest.raises(ZeroDivisionError):
        quotient(mapd, base, base.x, base.y, w, w)
    # a zero extra ray puts one sample of every level on the base point
    sched = SamplingSchedule(extra_rays=(PrimalVector.zero(L24),))
    with pytest.raises(ZeroDivisionError):
        estimate_limsup(mapd, base, w, w, sched)


def test_translation_ray_limit():
    mapd = _translation(L24)
    base = GraphPoint.at_point(mapd, PrimalVector.zero(L24))
    xs = dual(L24, [1, 2, 0, 0])
    ys = dual(L24, [0.5, 1, 1, 0])
    limit = directed_ray_limit(mapd, base, xs, ys, norming_direction(xs - ys))
    assert abs(limit - dual_norm(xs - ys) / 2) <= 1e-9


def test_ball_exterior_quotients_small_for_closed_form(rng):
    sp = lp_space(2.0, 2)
    mapd = ball_projection_map(sp, 1.0)
    x = primal(sp, [2.0, 0.0])
    base = GraphPoint.at_point(mapd, x)
    ys = dual(sp, [0.0, 1.0])
    xs = coderiv_ball_lp(x, 1.0, ys).point
    for _ in range(50):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        u = primal(sp, x.values + 1e-4 * d)
        v = mapd.value(u)
        assert quotient(mapd, base, u, v, xs, ys) <= 1e-3


def test_graph_point_checked():
    mapd = ball_projection_map(L24, 1.0)
    x = primal(L24, [2, 0, 0, 0])
    good = mapd.value(x)
    GraphPoint.checked(mapd, x, good)
    with pytest.raises(ValueError):
        GraphPoint.checked(mapd, x, x)


def test_schedule_validation():
    with pytest.raises(ValueError):
        SamplingSchedule(levels=3)
    with pytest.raises(ValueError):
        SamplingSchedule(dirs_per_level=8)
    with pytest.raises(ValueError):
        SamplingSchedule(r0=0.0)
    for r0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="r0 must be positive and finite"):
            SamplingSchedule(r0=r0)


def test_determinism_bit_for_bit():
    mapd = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(mapd, primal(L24, [2, 0.5, 0, 0]))
    ys = dual(L24, [0.3, 1.0, -0.2, 0.0])
    xs = coderiv_ball_lp(base.x, 1.0, ys).point
    sched = SamplingSchedule(seed=21)
    a = estimate_limsup(mapd, base, xs, ys, sched)
    b = estimate_limsup(mapd, base, xs, ys, sched)
    assert a.per_level_sup == b.per_level_sup
    assert a.extrapolated == b.extrapolated
    for field in ("radii", "us", "vs", "quotients"):
        assert np.array_equal(getattr(a.trace, field), getattr(b.trace, field))


def test_trace_columns_hold_every_sample():
    mapd = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(mapd, primal(L24, [2, 0.5, 0, 0]))
    ys = dual(L24, [0.3, 1.0, -0.2, 0.0])
    xs = coderiv_ball_lp(base.x, 1.0, ys).point
    rays = (primal(L24, [0, 3, 0, 0]), primal(L24, [1, -1, 1, 0]))
    sched = SamplingSchedule(r0=0.25, levels=5, dirs_per_level=16, extra_rays=rays, seed=4)
    est = estimate_limsup(mapd, base, xs, ys, sched)
    trace = est.trace
    assert trace.radii.shape == (5,)
    assert trace.us.shape == trace.vs.shape == (5, 18, 4)
    assert trace.quotients.shape == (5, 18)
    assert len(trace) == 5 * (16 + 2)
    assert np.array_equal(trace.radii, 0.25 * 2.0 ** -np.arange(5))
    assert np.array_equal(trace.quotients.max(axis=1), est.per_level_sup)
    for k in range(5):
        assert np.array_equal(trace.vs[k], mapd.value_batch(trace.us[k]))
        for u, v, q in zip(trace.us[k], trace.vs[k], trace.quotients[k]):
            expected = quotient(mapd, base, primal(L24, u), primal(L24, v), xs, ys)
            assert abs(q - expected) <= 1e-12 * max(abs(expected), 1e-300)


def _shared_pass_bases():
    l34 = lp_space(3.0, 4)
    l1 = l1_space(4)
    c33 = c01_space(33)
    grid = c33.grid
    f = primal(c33, grid**2)
    poly_rays = (f, primal(c33, np.ones(33)), primal(c33, grid), primal(c33, np.sin(np.pi * grid)))
    ball2, ball3 = ball_projection_map(L24, 1.0), ball_projection_map(l34, 1.0)
    cone, l1ball = cone_projection_map(L24), l1_ball_projection_map(l1, 1.0)
    affine, poly = _translation(L24, 2.0), poly_projection_map(c33, 1)
    return {
        "ball p=2 exterior": (ball2, primal(L24, [2.0, 0.5, 0.0, -0.3]), SamplingSchedule(seed=3)),
        "ball p=2 interior": (ball2, primal(L24, [0.2, 0.1, 0.0, 0.3]), SamplingSchedule(seed=4)),
        "ball p=3 exterior": (ball3, primal(l34, [1.2, -0.8, 0.5, 0.3]), SamplingSchedule(seed=5)),
        "cone": (cone, primal(L24, [1.0, -2.0, 0.0, 0.5]), SamplingSchedule(seed=6, levels=5)),
        "l1 exterior": (l1ball, primal(l1, [2.0, 0.0, 0.0, 0.0]), SamplingSchedule(seed=7)),
        "affine": (affine, primal(L24, [0.1, 0.4, -0.2, 0.0]), SamplingSchedule(seed=8, dirs_per_level=16)),
        "poly with extra rays": (poly, f, SamplingSchedule(levels=4, dirs_per_level=16, extra_rays=poly_rays, seed=9)),
    }


SHARED_PASS_BASES = _shared_pass_bases()


def _same_estimate(a, b):
    assert np.array_equal(a.per_level_sup, b.per_level_sup)
    assert np.array_equal(a.extrapolated, b.extrapolated)
    assert a.verdict == b.verdict
    for field in ("radii", "us", "vs", "quotients"):
        assert np.array_equal(getattr(a.trace, field), getattr(b.trace, field))


@pytest.mark.parametrize("name", sorted(SHARED_PASS_BASES))
def test_a_shared_pass_gives_every_candidate_its_fresh_estimate(name):
    mapd, x, sched = SHARED_PASS_BASES[name]
    base = GraphPoint.at_point(mapd, x)
    rng = np.random.default_rng(sorted(SHARED_PASS_BASES).index(name))
    size = mapd.space.size
    # sparse duals keep the C[0, 1] candidates to a few atoms
    cands = [dual(mapd.space, rng.normal(size=size) * (rng.random(size) < min(1.0, 6.0 / size)))
             for _ in range(4)]
    samples = sample_base(mapd, base, sched)
    shared = [limsup_oracle._estimate(samples, c, c) for c in cands]
    shared += [limsup_oracle._estimate(samples, cands[0], c) for c in cands[1:]]
    fresh = [estimate_limsup(mapd, base, c, c, sched) for c in cands]
    fresh += [estimate_limsup(mapd, base, cands[0], c, sched) for c in cands[1:]]
    for a, b in zip(shared, fresh):
        _same_estimate(a, b)
        # the trace shares the pass's rows instead of copying them
        assert a.trace.us is samples.us and a.trace.vs is samples.vs
    for c in cands[:2]:
        _same_estimate(membership_test(mapd, base, c, c, sched), membership_test(mapd, base, c, c, sched))


def test_shared_base_samples_give_every_query_its_fresh_verdict():
    mapd, x, sched = SHARED_PASS_BASES["ball p=3 exterior"]
    base = GraphPoint.at_point(mapd, x)
    samples = sample_base(mapd, base, sched)
    rng = np.random.default_rng(11)
    for _ in range(6):
        cand = dual(mapd.space, rng.uniform(-1.0, 1.0, size=4))
        for mode in ("oracle", "audit", "registry"):
            fresh = sample_base(mapd, base, sched)
            assert is_fixed_point(samples, cand, mode=mode) == is_fixed_point(fresh, cand, mode=mode)


def _two_diff(a, b):
    s = a - b
    bv = s - a
    av = s - bv
    return s, (a - av) - (b + bv)


def _audit_spread_per_candidate(mapd, base, sched, ystar):
    # reference: the audit spread computed from scratch for one candidate,
    # on the finest level of a fresh pass, pairing the increments, their
    # difference and the TwoDiff shift
    fresh = sample_base(mapd, base, sched)
    us, vs = fresh.us[-1], fresh.vs[-1]
    du = us - base.x.values[None, :]
    dv = vs - base.y.values[None, :]
    den = norm_rows(base.x.space, du) + norm_rows(base.x.space, dv)
    f1 = (pairing_rows(ystar, du) - pairing_rows(ystar, dv)) / den
    f2 = pairing_rows(ystar, du - dv) / den
    a, ea = _two_diff(us, vs)
    b, eb = _two_diff(base.x.values, base.y.values)
    f3 = pairing_rows(ystar, (a - b) + (ea - eb)) / den
    return np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))


@pytest.mark.parametrize("name", ["ball p=2 exterior", "ball p=3 exterior", "cone", "l1 exterior", "affine"])
def test_shared_audit_rows_give_every_candidate_its_per_candidate_spread(name):
    mapd, x, sched = SHARED_PASS_BASES[name]
    base = GraphPoint.at_point(mapd, x)
    rows = sample_base(mapd, base, sched).audit
    rng = np.random.default_rng(23)
    for _ in range(5):
        ystar = dual(mapd.space, rng.uniform(-1.5, 1.5, size=mapd.space.size))
        assert np.array_equal(quotient_forms_spread(ystar, rows),
                              _audit_spread_per_candidate(mapd, base, sched, ystar))


def test_a_shared_pass_and_its_trace_are_read_only():
    mapd, x, sched = SHARED_PASS_BASES["ball p=2 exterior"]
    base = GraphPoint.at_point(mapd, x)
    samples = sample_base(mapd, base, sched)
    for field in ("radii", "us", "vs", "dens"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(samples, field).flat[0] = 0.0
    w = dual(L24, [1.0, 0.0, 0.0, 0.0])
    est = estimate_limsup(mapd, base, w, w, sched)
    with pytest.raises(ValueError, match="read-only"):
        est.trace.us[0, 0, 0] = 0.0



@pytest.mark.parametrize("name", sorted(SHARED_PASS_BASES))
def test_the_audit_rows_are_the_finest_level_of_the_pass(name):
    mapd, x, sched = SHARED_PASS_BASES[name]
    base = GraphPoint.at_point(mapd, x)
    samples = sample_base(mapd, base, sched)
    rows = samples.audit
    assert samples.audit is rows
    assert np.array_equal(rows.du, samples.us[-1] - x.values[None, :])
    assert np.array_equal(rows.dv, samples.vs[-1] - base.y.values[None, :])
    assert np.array_equal(rows.den, samples.dens[-1])
    for array in vars(rows).values():
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.0


def test_passes_from_the_shared_draw_block_equal_fresh_passes(monkeypatch):
    # two bases and two spaces on three schedules share one block of normal
    # draws; each pass equals one drawn on a fresh schedule after the block
    # is dropped
    l2, l3 = lp_space(2.0, 16), lp_space(3.0, 16)
    extra = (primal(l2, np.arange(16.0)),)
    cases = [
        (ball_projection_map(l2, 1.0), primal(l2, np.linspace(-1.0, 2.0, 16)), extra),
        (ball_projection_map(l2, 1.0), primal(l2, np.linspace(0.3, -0.1, 16)), extra),
        (ball_projection_map(l3, 1.0), primal(l3, np.linspace(-1.0, 2.0, 16)), ()),
    ]
    draws = limsup_oracle._normal_draws
    draws.cache_clear()
    shared = []
    for mapd, x, rays in cases:
        sched = SamplingSchedule(seed=12, levels=5, dirs_per_level=32, extra_rays=rays)
        shared.append(sample_base(mapd, GraphPoint.at_point(mapd, x), sched))
    assert draws.cache_info().hits == 2 and draws.cache_info().misses == 1
    block = draws(12, 5, 32, 16)
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0, 0] = 0.0

    def equal_fresh(passes):
        for samples in passes:
            draws.cache_clear()
            fresh_schedule = replace(samples.schedule)
            assert fresh_schedule == samples.schedule and not fresh_schedule._norms
            fresh = sample_base(samples.map, samples.base, fresh_schedule)
            for field in ("radii", "us", "vs", "dens"):
                assert np.array_equal(getattr(samples, field), getattr(fresh, field))

    equal_fresh(shared)
    # the in-place rows are the plain u = x + r * d of each level
    samples = shared[0]
    space, x = samples.map.space, samples.base.x.values
    unit_extra = extra[0].values / norm(extra[0])
    for level, radius in enumerate(samples.radii.tolist()):
        dirs = np.random.default_rng([12, level]).standard_normal((32, 16))
        dirs = dirs / norm_rows(space, dirs)[:, None]
        assert np.array_equal(samples.us[level], x[None, :] + radius * np.vstack([dirs, unit_extra]))

    # bases in a p = 2, 3, 2 order on one schedule: it computes the norms of
    # the block once per space, one norm_rows call per block of levels (one
    # block here)
    normed = []

    def counted(space, rows):
        normed.append((space, rows))
        return norm_rows(space, rows)

    monkeypatch.setattr(limsup_oracle, "norm_rows", counted)
    sched = SamplingSchedule(seed=12, levels=5, dirs_per_level=32, extra_rays=extra)
    order = [cases[0], cases[2], cases[1]]
    shared = [sample_base(mapd, GraphPoint.at_point(mapd, x), sched) for mapd, x, _ in order]
    block = draws(12, 5, 32, 16)
    assert limsup_oracle._level_blocks(block.shape, 1) == [slice(0, 32)]
    assert [space.p for space, rows in normed if np.shares_memory(rows, block)] == [2.0, 3.0]
    # the schedule keeps one read-only (levels, rows) array per space
    kept = sched._norms
    assert sorted(space.p for space in kept) == [2.0, 3.0]
    for space, norms in kept.items():
        assert sched._direction_draws(space)[1] is norms
        assert norms.shape == (5, 32)
        with pytest.raises(ValueError, match="read-only"):
            norms[0, 0] = 1.0
    equal_fresh(shared)
    # the kept norms go with the schedule, so no more than its spaces are kept
    kept_refs = [weakref.ref(norms) for norms in kept.values()]
    del kept, norms, sched, shared
    gc.collect()
    assert [ref() for ref in kept_refs] == [None, None]


def _block_cases():
    """(map, base point, schedule, x*, y*, quotient calls): one pass below
    the block, and three above it."""
    rng = np.random.default_rng(41)
    l16, c513 = lp_space(2.0, 16), c01_space(513)
    ball4, ball16 = ball_projection_map(L24, 1.0), ball_projection_map(l16, 1.0)
    atoms = atomic_measure(c513, [(0.0, 1.0), (0.3, -0.5), (0.8, 0.25)])
    return {
        "N=4 S=64 K=8": (ball4, primal(L24, [2.0, 0.5, 0.0, -0.3]), SamplingSchedule(seed=3),
                         dual(L24, rng.normal(size=4)), dual(L24, rng.normal(size=4)), 1),
        "N=16 S=256 K=6": (ball16, primal(l16, np.linspace(-1.0, 2.0, 16)),
                           SamplingSchedule(seed=4, levels=6, dirs_per_level=256),
                           dual(l16, rng.normal(size=16)), dual(l16, rng.normal(size=16)), 2),
        "N=16 S=1024 K=8": (ball16, primal(l16, np.linspace(0.3, -0.1, 16)),
                            SamplingSchedule(seed=5, dirs_per_level=1024),
                            dual(l16, rng.normal(size=16)), dual(l16, rng.normal(size=16)), 8),
        "C01 G=513": (_translation(c513, 2.0), primal(c513, c513.grid**2),
                      SamplingSchedule(seed=6, levels=5, dirs_per_level=16), atoms, 0.5 * atoms, 5),
    }


BLOCK_CASES = _block_cases()


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_the_blocked_pass_gives_the_per_level_quotients_bit_for_bit(name, monkeypatch):
    mapd, x, sched, xstar, ystar, calls = BLOCK_CASES[name]
    base = GraphPoint.at_point(mapd, x)
    samples = sample_base(mapd, base, sched)
    quotients = limsup_oracle._quotients
    sizes = []

    def counted(space, xstars, ystars, du, dv, dens):
        sizes.append(du.size)
        return quotients(space, xstars, ystars, du, dv, dens)

    def per_level(k):
        du, dv, dens = limsup_oracle._increments(base, samples.us[k], samples.vs[k], samples.dens[k])
        return quotients(mapd.space, xstar.values[None], ystar.values[None], du[None], dv[None], dens)[0]

    monkeypatch.setattr(limsup_oracle, "_quotients", counted)
    est = estimate_limsup(mapd, base, xstar, ystar, sched)
    reference = np.stack([per_level(k) for k in range(sched.levels)])
    assert np.array_equal(est.trace.quotients, reference)
    assert len(sizes) == calls and sum(sizes) == samples.us.size
    assert max(sizes) <= max(limsup_oracle.QUOTIENT_BLOCK, samples.us[0].size)


def _per_level_pass(mapd, base, schedule):
    """Reference: the rows of a pass built one level at a time, each level's
    direction norms, values and denominators from its own rows."""
    space, dim = mapd.space, mapd.space.size
    x, y = base.x.values, base.y.values
    extra = np.empty((0, dim))
    if schedule.extra_rays:
        extra = np.stack([ray.values for ray in schedule.extra_rays])
        extra_norms = norm_rows(space, extra)
        extra = extra / np.where(extra_norms == 0.0, 1.0, extra_norms)[:, None]
    levels, dirs = schedule.levels, schedule.dirs_per_level
    radii = np.empty(levels)
    us = np.empty((levels, dirs + len(extra), dim))
    vs = np.empty_like(us)
    dens = np.empty(us.shape[:2])
    for level in range(levels):
        draws = np.random.default_rng([schedule.seed, level]).standard_normal((dirs, dim))
        dir_norms = norm_rows(space, draws)
        dir_norms[dir_norms == 0.0] = 1.0
        radii[level] = schedule.r0 * 2.0 ** (-level)
        np.divide(draws, dir_norms[:, None], out=us[level, :dirs])
        us[level, dirs:] = extra
        us[level] *= radii[level]
        us[level] += x
        vs[level] = mapd.value_batch(us[level])
        dens[level] = norm_rows(space, us[level] - x[None, :]) + norm_rows(space, vs[level] - y[None, :])
    return radii, us, vs, dens


def _pass_cases():
    """(map, base point, schedule): Lp balls and cones at p = 1.5, 2 and 3
    and the l_1 ball at the default shape and at N = 16, S = 1024, and the
    C[0, 1] polynomial projection with extra rays at G = 513 and 4097."""
    cases = {}
    for n, schedule in ((4, SamplingSchedule(seed=8)), (16, SamplingSchedule(seed=9, dirs_per_level=1024))):
        ramp = np.linspace(-0.7, 1.3, n)
        for p in (1.5, 2.0, 3.0):
            space = lp_space(p, n)
            cases[f"ball p={p:g} N={n}"] = (ball_projection_map(space, 1.0), primal(space, 2.0 * ramp), schedule)
            cases[f"cone p={p:g} N={n}"] = (cone_projection_map(space), primal(space, ramp), schedule)
        l1 = l1_space(n)
        cases[f"l1 ball N={n}"] = (l1_ball_projection_map(l1, 1.0), primal(l1, ramp), schedule)
    for g in (513, 4097):
        space = c01_space(g)
        f = primal(space, space.grid**2)
        rays = (f, primal(space, space.grid), primal(space, np.sin(np.pi * space.grid)))
        schedule = SamplingSchedule(levels=5, dirs_per_level=16, extra_rays=rays, seed=10)
        cases[f"C01 G={g}"] = (poly_projection_map(space, 1), f, schedule)
    return cases


PASS_CASES = _pass_cases()


@pytest.mark.parametrize("name", sorted(PASS_CASES))
def test_the_block_built_pass_gives_the_per_level_rows_bit_for_bit(name, monkeypatch):
    mapd, x, sched = PASS_CASES[name]
    base = GraphPoint.at_point(mapd, x)
    reference = _per_level_pass(mapd, base, sched)
    value_batch = MapDescriptor.value_batch
    sizes = []

    def counted(self, rows):
        sizes.append(rows.size)
        return value_batch(self, rows)

    monkeypatch.setattr(MapDescriptor, "value_batch", counted)
    samples = sample_base(mapd, base, replace(sched))
    for field, expected in zip(("radii", "us", "vs", "dens"), reference):
        assert np.array_equal(getattr(samples, field), expected), field
    level = samples.us[0].size
    assert sum(sizes) == samples.us.size
    assert max(sizes) <= max(limsup_oracle.QUOTIENT_BLOCK, level)
    # the whole pass is one block at the default shape; one level at N = 16,
    # S = 1024 and on these grids
    assert len(sizes) == (1 if samples.us.size <= limsup_oracle.QUOTIENT_BLOCK else sched.levels)


def _membership_by_ray(mapd, base, xstar, ystar, sched, extra_rays):
    # reference: the sampled estimate folded with each ray's own
    # directed_ray_limit, one call per ray, in membership_test's order: the
    # norming ray of x* - y*, the kink rays, then the extra rays
    combined = estimate_limsup(mapd, base, xstar, ystar, sched).extrapolated
    diff = xstar - ystar
    norming = [norming_direction(diff)] if dual_norm(diff) > 1e-12 * (1.0 + dual_norm(ystar)) else []
    for ray in [*norming, *mapd.kink_rays, *(primal(mapd.space, row) for row in extra_rays)]:
        if norm(ray) == 0.0:
            continue
        try:
            limit = directed_ray_limit(mapd, base, xstar, ystar, ray)
        except ValueError:
            continue
        combined = max(combined, limit)
    return combined


def _stacked_ray_cases():
    rng = np.random.default_rng(31)
    cases = []
    for p in (2.0, 3.0):
        space = lp_space(p, 16)
        mapd = ball_projection_map(space, 1.0)
        x = primal(space, rng.normal(size=16))
        x = (3.0 / norm(x)) * x
        ystar = dual(space, rng.uniform(-1.0, 1.0, size=16))
        image = coderiv_ball_lp(x, 1.0, ystar).point
        for xstar in (image, image + dual(space, 0.1 * rng.normal(size=16))):
            cases.append((f"ball p={p:g}", mapd, x, xstar, ystar))
    l3 = lp_space(3.0, 16)
    cone = cone_projection_map(l3)
    f = rng.uniform(0.3, 1.5, size=16) * rng.choice([-1.0, 0.0, 1.0], size=16)
    f[3] = 1e-300  # the ray -e_4 leaves this branch at every tested scale
    for _ in range(3):
        phi = rng.uniform(-1.0, 1.0, size=16)
        phi[3] = -5.0  # would dominate, were that ray not skipped
        phi = dual(l3, phi)
        cases.append(("cone p=3", cone, primal(l3, f), DualVector.zero(l3), phi))
        cases.append(("cone p=3", cone, primal(l3, f), phi, phi))
    l1 = l1_space(8)
    l1ball = l1_ball_projection_map(l1, 1.0)
    for phi in (dual(l1, np.eye(8)[1]), dual(l1, rng.uniform(-1.0, 1.0, size=8))):
        cases.append(("l1 exterior", l1ball, primal(l1, 2.0 * np.eye(8)[0]), phi, phi))
    affine = _translation(L24, 2.0)
    for _ in range(2):
        xs = dual(L24, rng.normal(size=4))
        cases.append(("affine", affine, primal(L24, [0.1, 0.4, -0.2, 0.0]), xs, xs))
        cases.append(("affine", affine, primal(L24, [0.1, 0.4, -0.2, 0.0]), xs, dual(L24, rng.normal(size=4))))
    return cases


def test_the_stacked_rays_give_the_per_ray_limit_bit_for_bit():
    sched = SamplingSchedule(seed=14, dirs_per_level=32)
    raised = 0
    for name, mapd, x, xstar, ystar in _stacked_ray_cases():
        base = GraphPoint.at_point(mapd, x)
        rays = registry_rays(mapd, base, xstar.values[None], ystar.values[None])
        rays = np.vstack([rays, np.zeros(mapd.space.size)])  # a zero ray is skipped
        est = membership_test(mapd, base, xstar, ystar, sched, rays)
        reference = _membership_by_ray(mapd, base, xstar, ystar, sched, rays)
        assert np.array_equal(est.extrapolated, reference), name
        sampled = estimate_limsup(mapd, base, xstar, ystar, sched).extrapolated
        raised += est.extrapolated > sampled
        if name == "cone p=3":
            with pytest.raises(ValueError, match="every tested scale"):
                directed_ray_limit(mapd, base, xstar, ystar, primal(mapd.space, -np.eye(16)[3]))
    # the rays raise some of these estimates
    assert raised >= 4


def _ray_start_by_halving(mapd, base, direction):
    # reference: one ray at a time, each probe built as a vector and tested
    # alone; None where the ray leaves the branch at every tested scale or a
    # probe is not finite
    t = RAY_T0
    for _ in range(60):
        with np.errstate(over="ignore"):
            try:
                probe = base.x + t * direction
            except ValueError:
                return None
        if mapd.same_branch(base.x, probe.values[None, :])[0]:
            return t
        t *= 0.5
    return None


def _ray_start_cases():
    """(name, map, base point, rays), each with rays that start at RAY_T0
    and rays that need halvings."""
    rng = np.random.default_rng(43)
    cases = []
    for p in (2.0, 3.0):
        space = lp_space(p, 6)
        mapd = ball_projection_map(space, 1.0)
        unit = primal(space, rng.normal(size=6))
        unit = (1.0 / norm(unit)) * unit
        random = [primal(space, rng.normal(size=6)) for _ in range(4)]
        for radius in (0.5, 3.0, 1.0 - 1e-3, 1.0 + 1e-3):
            cases.append((f"ball p={p:g} |x|={radius}", mapd, radius * unit, [unit, -unit, *random]))
    for p in (2.0, 3.0):
        space = lp_space(p, 6)
        x = primal(space, [3e-3, -2e-3, 0.0, 1.5, 4e-4, -0.7])
        basis = [primal(space, sign * row) for row in np.eye(6) for sign in (1.0, -1.0)]
        rays = [*basis, primal(space, rng.normal(size=6))]
        cases.append((f"cone p={p:g}", cone_projection_map(space), x, rays))
    l1 = l1_space(5)
    mapd = l1_ball_projection_map(l1, 1.0)
    for x in ([0.2, -0.1, 0.0, 0.15, 0.05], [0.6, -0.2, 0.0, 0.2, 4e-3], [2.0, 0.0, -0.5, 0.0, 0.0]):
        x = primal(l1, x)
        rays = [-x, x, *(primal(l1, rng.normal(size=5)) for _ in range(3))]
        cases.append((f"l1 |x|={norm(x)}", mapd, x, rays))
    return cases


def test_the_batched_ray_starts_equal_a_per_ray_halving_loop():
    halved = 0
    for name, mapd, x, rays in _ray_start_cases():
        base = GraphPoint.at_point(mapd, x)
        starts = limsup_oracle._ray_starts(mapd, base, np.stack([ray.values for ray in rays]))
        reference = [_ray_start_by_halving(mapd, base, ray) for ray in rays]
        assert [None if np.isnan(t) else t for t in starts.tolist()] == reference, name
        halved += sum(t < RAY_T0 for t in reference)
    # the near-sphere balls, the small cone coordinates and the l_1 ball at
    # 1.004 start rays below RAY_T0
    assert halved >= 10


def test_a_ball_probe_on_the_band_edge_takes_the_side_of_its_row_norm():
    # a point's norm is the row norm of a row of one, so the two agree bit
    # for bit; with the band edge just at or just past a probe's norm, the
    # row branch test, the scalar side and a scalar halving loop agree
    space = lp_space(3.0, 5)
    x = primal(space, [0.1, -0.2, 0.05, 0.0, 0.15])
    rng = np.random.default_rng(0)
    probes = []
    for _ in range(100):
        d = primal(space, 40.0 * rng.normal(size=5))
        probe = x + RAY_T0 * d
        assert norm(probe) == norm_rows(space, probe.values[None, :])[0]
        probes.append((d, probe))
    d, probe = next((d, probe) for d, probe in probes if 0.5 < norm(probe) < 1.0)
    n = norm(probe)
    # the smallest radius below 1 whose band holds the probe's norm
    radius = n - SPHERE_BAND
    while not n - radius <= SPHERE_BAND:
        radius = np.nextafter(radius, np.inf)
    while n - np.nextafter(radius, -np.inf) <= SPHERE_BAND:
        radius = np.nextafter(radius, -np.inf)
    for r, on_sphere in ((radius, True), (np.nextafter(radius, -np.inf), False)):
        mapd = ball_projection_map(space, float(r))
        assert (mapd._side(probe) <= 0) == on_sphere
        assert mapd.same_branch(x, probe.values[None, :]).tolist() == [on_sphere]
        t = RAY_T0
        while mapd._side(x + t * d) > 0:
            t *= 0.5
        assert t == (RAY_T0 if on_sphere else 0.5 * RAY_T0)
        base = GraphPoint.at_point(mapd, x)
        assert limsup_oracle._ray_starts(mapd, base, d.values[None, :]).tolist() == [t]


def test_rays_that_never_start_are_skipped_and_raise_alone():
    # -e_2 leaves the cone's branch at 1e-300 at every tested scale, and the
    # first probe along 1e308 e_1 from 1.79e308 e_1 overflows
    space = lp_space(3.0, 4)
    cone, translation = cone_projection_map(space), _translation(space)
    phi = dual(space, [0.2, -5.0, 0.3, 0.4])
    good = primal(space, [0.0, 1.0, -1.0, 1.0])
    sched = SamplingSchedule(seed=5, dirs_per_level=16)
    for mapd, x, never in (
        (cone, [1.0, 1e-300, 0.5, -0.5], -np.eye(4)[1]),
        (translation, [1.79e308, 0.5, 0.0, 0.0], 1e308 * np.eye(4)[0]),
    ):
        base = GraphPoint.at_point(mapd, primal(space, x))
        never = primal(space, never)
        starts = limsup_oracle._ray_starts(mapd, base, np.stack([never.values, good.values]))
        assert np.isnan(starts[0]) and starts[1] == RAY_T0
        assert _ray_start_by_halving(mapd, base, never) is None
        both = np.stack([never.values, good.values])
        skipped = membership_test(mapd, base, phi, phi, sched, both)
        alone = membership_test(mapd, base, phi, phi, sched, good.values[None])
        assert skipped.extrapolated == alone.extrapolated
        with pytest.raises(ValueError, match="every tested scale"):
            directed_ray_limit(mapd, base, phi, phi, never)
        assert np.isfinite(directed_ray_limit(mapd, base, phi, phi, good))


def test_monotone_refinement_nested_directions():
    mapd = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(mapd, primal(L24, [2, 0.5, 0, 0]))
    ys = dual(L24, [0.3, 1.0, -0.2, 0.0])
    xs = coderiv_ball_lp(base.x, 1.0, ys).point
    small = estimate_limsup(mapd, base, xs, ys, SamplingSchedule(seed=3, dirs_per_level=32))
    large = estimate_limsup(mapd, base, xs, ys, SamplingSchedule(seed=3, dirs_per_level=64))
    for s, l in zip(small.per_level_sup, large.per_level_sup):
        assert l >= s


def test_affine_scaling_limits():
    sp = lp_space(2.0, 2)
    xstar = dual(sp, [1.0, 0.0])
    for lam, sign in ((2.0, -1.0), (0.5, 1.0)):
        mapd = affine_map(sp, primal(sp, [0.3, -0.2]), lam)
        base = GraphPoint.at_point(mapd, primal(sp, [0.1, 0.4]))
        ray = sign * duality_map_inverse(xstar)
        limit = directed_ray_limit(mapd, base, xstar, xstar, ray)
        assert abs(limit - 1 / 3) <= 1e-9


def test_affine_scale_two_sampled_sup_reaches_limit():
    # random direction sampling alone must get close to the analytic value
    # 1/3 attained along the worst ray
    sp = lp_space(2.0, 2)
    xstar = dual(sp, [1.0, 0.0])
    mapd = affine_map(sp, primal(sp, [0.3, -0.2]), 2.0)
    base = GraphPoint.at_point(mapd, primal(sp, [0.1, 0.4]))
    est = estimate_limsup(mapd, base, xstar, xstar, SamplingSchedule(seed=6))
    assert est.extrapolated >= 0.3
    assert est.extrapolated <= 1 / 3 + 1e-12


def test_l1_case_limits_split_and_raw():
    sp = l1_space(6)
    x = primal(sp, [2, 0, 0, 0, 0, 0])
    mapd = l1_ball_projection_map(sp, 1.0)
    base = GraphPoint.at_point(mapd, x)
    basis = np.eye(6)
    phi_e2 = dual(sp, basis[1])
    assert abs(
        directed_ray_limit(mapd, base, phi_e2, phi_e2, primal(sp, basis[1]), split_l1_denominator=True)
        - 0.25
    ) <= 0.05 * 0.25
    phi_e1 = dual(sp, basis[0])
    assert abs(
        directed_ray_limit(mapd, base, phi_e1, phi_e1, primal(sp, basis[0]), split_l1_denominator=True)
        - 0.5
    ) <= 0.05 * 0.5
    phi_m = dual(sp, -basis[0])
    assert abs(
        directed_ray_limit(mapd, base, phi_m, phi_m, primal(sp, -basis[0]), split_l1_denominator=True)
        - 0.5
    ) <= 0.05 * 0.5
    # raw ray quotients dominate the split surrogate
    raw = directed_ray_limit(mapd, base, phi_e1, phi_e1, primal(sp, basis[0]))
    assert raw >= 0.5 - 1e-9


RAY_CASES = {
    "ball": (ball_projection_map(lp_space(3.0, 4), 1.0), [2.0, 0.3, -0.4, 0.1]),
    "cone": (cone_projection_map(L24), [1.0, -0.5, 0.7, -2.0]),
    "affine": (_translation(L24, 2.0), [0.3, 0.1, -0.2, 0.5]),
    "l1": (l1_ball_projection_map(l1_space(4), 1.0), [2.0, 1.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("kind", RAY_CASES)
def test_ray_limit_is_the_richardson_step_of_quotient(kind):
    mapd, x = RAY_CASES[kind]
    sp = mapd.space
    base = GraphPoint.at_point(mapd, primal(sp, x))
    xs, ys = dual(sp, [1.0, -2.0, 0.5, 0.3]), dual(sp, [0.2, 0.4, -1.0, 0.6])
    direction = primal(sp, [0.6, -0.3, 0.8, 0.5])
    qs = []
    for j in range(RAY_STEPS):
        u = base.x + (RAY_T0 * RAY_RATIO**j) * direction
        qs.append(quotient(mapd, base, u, mapd.value(u), xs, ys))
    expected = (qs[-1] - RAY_RATIO * qs[-2]) / (1.0 - RAY_RATIO)
    assert expected != 0.0
    limit = directed_ray_limit(mapd, base, xs, ys, direction)
    assert abs(limit - expected) <= 1e-12 * abs(expected)


def test_split_ray_limit_matches_the_scalar_split_denominator():
    mapd, x = RAY_CASES["l1"]
    sp, r = mapd.space, mapd.radius
    base = GraphPoint.at_point(mapd, primal(sp, x))
    xs = ys = dual(sp, [0.0, 1.0, 0.0, 0.0])
    direction = primal(sp, [0.0, 1.0, 0.5, -0.25])
    qs = []
    for j in range(RAY_STEPS):
        t = RAY_T0 * RAY_RATIO**j
        u = base.x + t * direction
        num = pairing(xs, u - base.x) - pairing(ys, mapd.value(u) - base.y)
        den = (
            norm(t * direction)
            + norm((r / norm(u)) * t * direction)
            + norm((r / norm(u) - r / norm(base.x)) * base.x)
        )
        qs.append(num / den)
    expected = (qs[-1] - RAY_RATIO * qs[-2]) / (1.0 - RAY_RATIO)
    assert expected != 0.0
    limit = directed_ray_limit(mapd, base, xs, ys, direction, split_l1_denominator=True)
    assert abs(limit - expected) <= 1e-12 * abs(expected)


def test_split_denominator_guard():
    mapd = ball_projection_map(L24, 1.0)
    base = GraphPoint.at_point(mapd, primal(L24, [2, 0, 0, 0]))
    w = dual(L24, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        directed_ray_limit(
            mapd, base, w, w, primal(L24, [1, 0, 0, 0]), split_l1_denominator=True
        )
    with pytest.raises(ValueError):
        directed_ray_limit(mapd, base, w, w, PrimalVector.zero(L24))


def test_l1_per_level_sup_bounded_below_by_case_limits():
    sp = l1_space(6)
    x = primal(sp, [2, 0, 0, 0, 0, 0])
    mapd = l1_ball_projection_map(sp, 1.0)
    base = GraphPoint.at_point(mapd, x)
    basis = np.eye(6)
    cases = (
        (dual(sp, basis[1]), primal(sp, basis[1]), 0.25),
        (dual(sp, basis[0]), primal(sp, basis[0]), 0.5),
        (dual(sp, -basis[0]), primal(sp, -basis[0]), 0.5),
    )
    for phi, ray, value in cases:
        sched = SamplingSchedule(seed=9, extra_rays=(ray,))
        est = estimate_limsup(mapd, base, phi, phi, sched)
        for sup in est.per_level_sup[-2:]:
            assert sup >= 0.95 * value


def test_membership_theta_star_everywhere():
    sched = SamplingSchedule(seed=2)
    instances = []
    instances.append((_translation(L24), PrimalVector.zero(L24)))
    instances.append((ball_projection_map(L24, 1.0), primal(L24, [0.1, 0, 0, 0])))
    instances.append((ball_projection_map(L24, 1.0), primal(L24, [2, 0, 0, 0])))
    instances.append((cone_projection_map(L24), primal(L24, [1, 0, -1, 0])))
    l1sp = l1_space(4)
    instances.append((l1_ball_projection_map(l1sp, 1.0), primal(l1sp, [2, 0, 0, 0])))
    for mapd, x in instances:
        base = GraphPoint.at_point(mapd, x)
        theta = DualVector.zero(mapd.space)
        est = membership_test(mapd, base, theta, theta, sched)
        assert est.verdict == Verdict.MEMBER
        assert est.extrapolated == 0.0


def test_soundness_members_and_rejections(rng):
    """Closed-form members are accepted and 0.1-perturbations of singleton
    values rejected, with no indeterminate verdicts, per mapping family."""
    sched = SamplingSchedule(seed=17)
    indeterminate = 0

    def run(mapd, base, xstar, ystar):
        nonlocal indeterminate
        est = membership_test(mapd, base, xstar, ystar, sched)
        indeterminate += est.verdict == Verdict.INDETERMINATE
        return est.verdict

    for i in range(50):
        lam = rng.uniform(-1.5, 1.5)
        mapd = _translation(L24, lam)
        base = GraphPoint.at_point(mapd, primal(L24, rng.normal(size=4) * 0.3))
        w = dual(L24, rng.normal(size=4))
        w = (rng.uniform(0.5, 1.5) / dual_norm(w)) * w
        image = coderiv_affine(mapd, base.x, w).point
        assert run(mapd, base, image, w) == Verdict.MEMBER
        perturbed = image + 0.1 * (1.0 / dual_norm(w)) * w if dual_norm(w) else image
        perturbed = image + 0.1 * _unit(rng, L24)
        assert run(mapd, base, perturbed, w) == Verdict.NON_MEMBER

    for i in range(50):
        p = 2.0 if i % 2 == 0 else 3.0
        sp = lp_space(p, 4)
        mapd = ball_projection_map(sp, 1.0)
        x = primal(sp, rng.normal(size=4))
        x = (rng.uniform(2.5, 3.5) / norm(x)) * x
        base = GraphPoint.at_point(mapd, x)
        w = dual(sp, rng.normal(size=4))
        w = (rng.uniform(0.5, 1.5) / dual_norm(w)) * w
        image = coderiv_ball_lp(x, 1.0, w).point
        assert run(mapd, base, image, w) == Verdict.MEMBER
        assert run(mapd, base, image + 0.1 * _unit(rng, sp), w) == Verdict.NON_MEMBER

    sp = lp_space(2.0, 6)
    mapd = cone_projection_map(sp)
    xbar = primal(sp, [1, 2, 0, 0, 0, 0])
    base = GraphPoint.at_point(mapd, xbar)
    for i in range(50):
        y = rng.normal(size=6) * 2
        y[2:] = np.abs(y[2:])
        yd = dual(sp, y)
        assert run(mapd, base, yd, yd) == Verdict.MEMBER
        bad = np.array(y)
        bad[2 + int(rng.integers(0, 4))] = -rng.uniform(0.3, 2.0)
        badd = dual(sp, bad)
        assert run(mapd, base, badd, badd) == Verdict.NON_MEMBER

    l1sp = l1_space(4)
    mapd = l1_ball_projection_map(l1sp, 1.0)
    for i in range(50):
        x = primal(l1sp, rng.normal(size=4) * 0.15)
        base = GraphPoint.at_point(mapd, x)
        phi = dual(l1sp, rng.normal(size=4))
        phi = (rng.uniform(0.5, 1.5) / dual_norm(phi)) * phi
        image = coderiv_l1ball(x, 1.0, phi).point
        assert run(mapd, base, image, phi) == Verdict.MEMBER
        assert run(mapd, base, image + 0.1 * _unit(rng, l1sp), phi) == Verdict.NON_MEMBER

    assert indeterminate == 0


def _unit(rng, space):
    w = dual(space, rng.normal(size=space.size))
    return (1.0 / dual_norm(w)) * w


def test_tolerances_scale_with_candidate():
    sp = lp_space(2.0, 2)
    small_accept, small_reject = tolerance_pair(dual(sp, [0.0, 0.0]))
    big_accept, big_reject = tolerance_pair(dual(sp, [9.0, 0.0]))
    assert small_accept == 1e-3 and small_reject == 1e-2
    assert big_accept == 1e-2 and big_reject == 1e-1


def test_trace_csv_format():
    mapd = _translation(L24)
    base = GraphPoint.at_point(mapd, PrimalVector.zero(L24))
    w = dual(L24, [1, 0, 0, 0])
    est = estimate_limsup(mapd, base, w, w, SamplingSchedule(seed=1, levels=4, dirs_per_level=16))
    csv = trace_to_csv(est)
    lines = csv.strip().split("\n")
    assert lines[0] == "level,radius,direction_index,quotient"
    assert len(lines) == 1 + 4 * 16
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "0"
