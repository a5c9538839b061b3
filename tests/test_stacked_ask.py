"""`fixed_points.ask` over stacked passes against a frozen per-run reference.

`ask` samples and answers every run of queries at one map that needs the
oracle for equally many queries as one stacked pass, wherever the runs sit in
the list. The reference below is the per-run pass the stack replaced: one
pass sampled per run of consecutive queries at one base, and one oracle pass
over that run's candidates, with one pairing slice per candidate
(`_ref_pairing`) and the kink rays that start kept apart from those that do
not. Every oracle entry (spread, scale, value and verdict) and every answer
must be bit for bit the reference's.
"""

from __future__ import annotations

import re
from itertools import groupby

import numpy as np
import pytest

from frozen_pass import walked_rows
from projderiv import fixed_points
from projderiv.coderivatives import (
    AFFINE,
    BALL_PROJ,
    CONE_PROJ,
    L1_BALL_PROJ,
    MapDescriptor,
    _sphere_side,
    affine_map,
    ball_projection_map,
    coderiv_ball_lp,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
)
from projderiv.fixed_points import FixedPointAuditError, Query, ask, is_fixed_point, registry_verdict
from projderiv.limsup_oracle import (
    QUOTIENT_BLOCK,
    RAY_HALVINGS,
    RAY_RATIO,
    RAY_STEPS,
    RAY_T0,
    Answer,
    GraphPoint,
    SamplingSchedule,
    Verdict,
    norming_rays,
    sample_base,
)
from projderiv.spaces import (
    KIND_C01,
    DualVector,
    PrimalVector,
    c01_space,
    dual,
    dual_norm,
    dual_norm_rows,
    duality_map,
    l1_space,
    lp_space,
    norm,
    norm_rows,
    primal,
)

# ---------------------------------------------------------------------------
# the frozen per-run reference
# ---------------------------------------------------------------------------


def _ref_level_blocks(shape, candidates):
    levels, rows, size = shape
    step = max(1, QUOTIENT_BLOCK // (rows * max(size, candidates)))
    return [slice(lo, lo + step) for lo in range(0, levels, step)]


def _ref_pairing(space, duals, rows):
    """Each of m duals against a (k, ..., n, size) block, k = 1 or m: one
    matrix-vector slice per dual, a measure over its own atoms."""
    m, size = duals.shape
    if space.kind == KIND_C01:
        out = np.empty((m, *rows.shape[1:-1]))
        for i, w in enumerate(duals):
            idx = np.flatnonzero(w)
            out[i] = rows[i if len(rows) > 1 else 0][..., idx] @ w[idx]
        return out
    return np.matmul(rows, duals.reshape(m, *(1,) * (rows.ndim - 3), size, 1))[..., 0]


def _ref_quotients(space, xs, ys, du, dv, dens):
    return (_ref_pairing(space, xs, du) - _ref_pairing(space, ys, dv)) / dens


def _ref_richardson(qs):
    return (qs[..., -1] - RAY_RATIO * qs[..., -2]) / (1.0 - RAY_RATIO)


def _ref_sample(mapd, base, schedule):
    """One base's pass: (us, vs, dens), indexed [level, row]."""
    space, dim = mapd.space, mapd.space.size
    extra = np.empty((0, dim))
    if schedule.extra_rays:
        extra = np.stack([ray.values for ray in schedule.extra_rays])
        extra_norms = norm_rows(space, extra)
        extra = extra / np.where(extra_norms == 0.0, 1.0, extra_norms)[:, None]
    levels, dirs = schedule.levels, schedule.dirs_per_level
    us = np.empty((levels, dirs + len(extra), dim))
    for level in range(levels):
        draws = np.random.default_rng([schedule.seed, level]).standard_normal((dirs, dim))
        dir_norms = norm_rows(space, draws)
        dir_norms[dir_norms == 0.0] = 1.0
        us[level, :dirs] = draws / dir_norms[:, None]
    us[:, dirs:] = extra
    us *= np.array([schedule.r0 * 2.0 ** (-level) for level in range(levels)])[:, None, None]
    us += base.x.values
    vs = np.empty_like(us)
    dens = np.empty(us.shape[:2])
    for block in _ref_level_blocks(us.shape, 1):
        vs[block] = mapd.value_batch(us[block].reshape(-1, dim)).reshape(us[block].shape)
        dens[block] = norm_rows(space, us[block] - base.x.values) + norm_rows(space, vs[block] - base.y.values)
    return us, vs, dens


def _ref_same_branch(mapd, x, rows):
    if mapd.kind in (BALL_PROJ, L1_BALL_PROJ):
        inside = _sphere_side(norm_rows(mapd.space, rows), mapd.radius) <= 0
        return inside == (_sphere_side(norm(x), mapd.radius) <= 0)
    if mapd.kind == CONE_PROJ:
        sx = np.sign(x.values)
        active = sx != 0
        return np.all(np.sign(rows[..., active]) == sx[active], axis=-1)
    return np.ones(rows.shape[:-1], dtype=bool)


def _ref_started_rays(mapd, base, directions):
    """Which rays start in the base branch, and the rows of those that do."""
    x = base.x.values
    starts = np.full(len(directions), np.nan)
    t = RAY_T0
    with np.errstate(over="ignore"):
        probes = x + t * directions
    pending = np.flatnonzero(np.isfinite(probes).all(axis=-1))
    probes = probes[pending]
    for halving in range(RAY_HALVINGS):
        if halving:
            t *= 0.5
            probes = x + t * directions[pending]
        inside = _ref_same_branch(mapd, base.x, probes)
        starts[pending[inside]] = t
        pending = pending[~inside]
        if not pending.size:
            break
    started = ~np.isnan(starts)
    ts = starts[started][:, None] * RAY_RATIO ** np.arange(RAY_STEPS)
    us = x + ts[:, :, None] * directions[started][:, None, :]
    vs = mapd.value_batch(us.reshape(-1, us.shape[-1])).reshape(us.shape)
    du, dv = us - x, vs - base.y.values
    return started, (du, dv, norm_rows(mapd.space, du) + norm_rows(mapd.space, dv))


def _ref_expected_image(mapd, base, ys):
    """The closed-form image of each row of the (m, size) array `ys`, or None."""
    if mapd.kind == AFFINE:
        return ys * mapd.scale
    side = _sphere_side(norm(base.x), mapd.radius) if mapd.kind in (BALL_PROJ, L1_BALL_PROJ) else 0.0
    if mapd.kind == BALL_PROJ and side != 0:
        if side < 0:
            return ys
        x, nx = base.x, norm(base.x)
        coeffs = _ref_pairing(x.space, ys, x.values[None, None, :]) / nx**2
        return (mapd.radius / nx) * (ys - coeffs * duality_map(x).values)
    if mapd.kind == L1_BALL_PROJ and side < 0:
        return ys
    return None


def _ref_registry_rays(mapd, base, xs, ys):
    expected = _ref_expected_image(mapd, base, ys)
    if expected is None:
        return np.zeros(xs.shape)
    return norming_rays(mapd.space, xs - expected, ys)


def _ref_membership(mapd, base, sample, xs, ys, extra_rays):
    """The extrapolated value and verdict of each candidate of one run."""
    space = mapd.space
    us, vs, dens = sample
    sups = []
    for block in _ref_level_blocks(us.shape, len(xs)):
        du, dv = us[block] - base.x.values, vs[block] - base.y.values
        sups.append(_ref_quotients(space, xs, ys, du[None], dv[None], dens[block]).max(axis=-1))
    sups = np.concatenate(sups, axis=1)
    values = np.where(sups[:, -1] > sups[:, -2], sups[:, -1], sups[:, -2])
    norming = norming_rays(space, xs - ys, ys)
    directions = np.concatenate([norming[:, None], extra_rays], axis=1)
    own = np.full(directions.shape[:2], np.nan)
    directions = directions.reshape(-1, space.size)
    nonzero = np.flatnonzero(directions.any(axis=-1))
    if nonzero.size:
        started, rows = _ref_started_rays(mapd, base, directions[nonzero])
        owners, columns = np.divmod(nonzero[started], own.shape[1])
        own[owners, columns] = _ref_richardson(_ref_quotients(space, xs[owners], ys[owners], *rows))
    kinks = np.empty((len(values), 0))
    if mapd.kink_rays:
        kink_directions = np.stack([ray.values for ray in mapd.kink_rays])
        du, dv, kink_dens = _ref_started_rays(mapd, base, kink_directions)[1]
        kinks = _ref_richardson(_ref_quotients(space, xs, ys, du[None], dv[None], kink_dens))
    for limits in (own[:, 0], *kinks.T, *own[:, 1:].T):
        values = np.where(limits > values, limits, values)
    scale = 1.0 + dual_norm_rows(space, ys)
    accepts, rejects = 1e-3 * scale, 1e-2 * scale
    verdicts = [
        Verdict.MEMBER if v <= a else Verdict.NON_MEMBER if v >= r else Verdict.INDETERMINATE
        for v, a, r in zip(values.tolist(), accepts.tolist(), rejects.tolist())
    ]
    return [Answer(v, verdict) for v, verdict in zip(values.tolist(), verdicts)]


def _ref_two_diff(a, b):
    s = a - b
    bv = s - a
    return s, (a - (s - bv)) - (b + bv)


def _ref_oracle_pass(mapd, base, sample, queries):
    """(spread, scale, answer) of each query of one run."""
    space = mapd.space
    xs = np.stack([q.xstar.values for q in queries])
    ys = np.stack([(q.xstar if q.ystar is None else q.ystar).values for q in queries])
    answers = _ref_membership(mapd, base, sample, xs, ys, _ref_registry_rays(mapd, base, xs, ys)[:, None])
    fixed = np.array([q.ystar is None for q in queries])
    spreads = np.zeros(len(queries))
    if fixed.any():
        us, vs = sample[0][-1], sample[1][-1]
        du, dv = us - base.x.values, vs - base.y.values
        den = norm_rows(space, du) + norm_rows(space, dv)
        a, ea = _ref_two_diff(us, vs)
        b, eb = _ref_two_diff(base.x.values, base.y.values)
        shift = (a - b) + (ea - eb)

        def pair(rows):
            return _ref_pairing(space, xs[fixed], rows[None])

        f1 = (pair(du) - pair(dv)) / den
        f2 = pair(du - dv) / den
        f3 = pair(shift) / den
        spread = np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))
        spreads[fixed] = spread.max(axis=-1)
    scales = 1.0 + dual_norm_rows(space, ys)
    return list(zip(spreads.tolist(), scales.tolist(), answers))


def _ref_runs(queries):
    """Each run of consecutive queries at one map and base, with its
    registry verdicts and the queries that need the oracle."""
    runs = []
    for (mapd, base), run in groupby(queries, key=lambda q: (q.map, q.base)):
        run = list(run)
        asked = [q for q in run if q.ystar is None and q.mode in ("registry", "audit")]
        char = mapd.fixed_point_set(base) if asked else None
        exact = {q: registry_verdict(mapd, base, q.xstar, char) for q in asked}
        needed = [q for q in run if q.ystar is not None or q.mode in ("oracle", "audit")
                  or (q in exact and exact[q] is None)]
        runs.append((run, exact, needed))
    return runs


def _ref_checked(queries, schedule):
    """The per-run oracle entry of every query that needs the oracle."""
    checked = {}
    for run, _, needed in _ref_runs(queries):
        if needed:
            mapd, base = run[0].map, run[0].base
            sample = _ref_sample(mapd, base, schedule)
            checked.update(zip(needed, _ref_oracle_pass(mapd, base, sample, needed)))
    return checked


def _ref_ask(queries, schedule):
    checked = _ref_checked(queries, schedule)
    answers = []
    for run, exact, _ in _ref_runs(queries):
        settled = {q: is_fixed_point(None, q.xstar, q.mode, batch=(exact.get(q), checked.get(q)))
                   for q in run if q.ystar is None}
        answers += [checked[q][2] if q in checked else Answer(None, settled[q]) for q in run]
    return answers


# ---------------------------------------------------------------------------
# query lists
# ---------------------------------------------------------------------------


def _duals(space, rng, count, lo=0.3, hi=1.5):
    """`count` duals with dual norms in [lo, hi]; a measure has a few atoms."""
    out = []
    while len(out) < count:
        vals = rng.normal(size=space.size)
        if space.kind == KIND_C01:
            vals *= rng.random(space.size) < 4.0 / space.size
        if np.any(vals):
            w = dual(space, vals)
            out.append((rng.uniform(lo, hi) / dual_norm(w)) * w)
    return out


def _point(space, rng, radius):
    x = primal(space, rng.normal(size=space.size))
    return (radius / norm(x)) * x


def _every_mode(mapd, base, rng, count):
    """`count` fixed-point queries in each mode and `count` membership
    queries, the dual origin among them."""
    space = mapd.space
    cands = [DualVector.zero(space), *_duals(space, rng, count - 1)]
    ystars = _duals(space, rng, count)
    queries = [Query(mapd, base, w, mode=mode) for mode in ("registry", "oracle", "audit") for w in cands]
    return queries + [Query(mapd, base, w, y) for w, y in zip(cands, ystars)]


def _ball_case(p, seed):
    """Interior, exterior and sphere bases of one ball, with runs of 1, 20
    and 21 queries, runs at one map that a cone run separates, and every
    mode."""
    rng = np.random.default_rng(seed)
    space = lp_space(p, 4)
    ballm = ball_projection_map(space, 1.0)
    cone = cone_projection_map(space)
    interior = [GraphPoint.at_point(ballm, _point(space, rng, r)) for r in (0.3, 0.6, 0.8)]
    exterior = [GraphPoint.at_point(ballm, _point(space, rng, r)) for r in (1.5, 2.0, 3.0)]
    sphere = GraphPoint.at_point(ballm, primal(space, [1.0, 0.0, 0.0, 0.0]))
    elsewhere = GraphPoint.at_point(cone, _point(space, rng, 1.0))
    queries = []
    for base in (interior[0], exterior[0]):
        queries += [Query(ballm, base, w, mode="oracle") for w in _duals(space, rng, 20)]
    queries += [Query(cone, elsewhere, w, w) for w in _duals(space, rng, 20)]
    for base in (exterior[1], interior[1], sphere):
        queries += [Query(ballm, base, DualVector.zero(space), mode="oracle")]
        queries += [Query(ballm, base, w, mode="oracle") for w in _duals(space, rng, 20)]
    for base in (*exterior, *interior, sphere):
        ystar = _duals(space, rng, 1)[0]
        image = coderiv_ball_lp(base.x, 1.0, ystar).point if base is not sphere else ystar
        queries.append(Query(ballm, base, image + dual(space, 0.1 * rng.normal(size=4)), ystar))
    for base in (exterior[2], interior[2], sphere):
        queries += _every_mode(ballm, base, rng, 3)
    return f"ball p={p:g}", SamplingSchedule(seed=seed), queries


def _cone_case(p, seed):
    """The Lp cone at the origin, at a base off the origin, and at a base
    with a 1e-300 coordinate, from which the kink ray -e_2 never starts;
    runs of 1 and 20 queries and every mode."""
    rng = np.random.default_rng(seed)
    space = lp_space(p, 4)
    cone = cone_projection_map(space)
    origin = GraphPoint.at_point(cone, PrimalVector.zero(space))
    tiny = GraphPoint.at_point(cone, primal(space, [0.7, 1e-300, -0.4, 0.0]))
    mixed = [GraphPoint.at_point(cone, primal(space, rng.uniform(-1.0, 1.5, size=4))) for _ in range(3)]
    queries = []
    for base in (origin, tiny, *mixed):
        queries += [Query(cone, base, w, w) for w in _duals(space, rng, 1)]
    psis = [dual(space, np.abs(w.values)) for w in _duals(space, rng, 20)]
    queries += [Query(cone, origin, w, w) for w in psis]
    queries += [Query(cone, tiny, DualVector.zero(space), w) for w in _duals(space, rng, 20)]
    for base in (origin, tiny, mixed[0]):
        queries += _every_mode(cone, base, rng, 3)
    return f"cone p={p:g}", SamplingSchedule(seed=seed), queries


def _other_case(seed):
    """The l_1 ball inside and outside (no expected image outside), two
    affine maps, and a translation and the polynomial projection on a
    C[0, 1] grid."""
    rng = np.random.default_rng(seed)
    l1 = l1_space(4)
    l1ball = l1_ball_projection_map(l1, 1.0)
    inside = GraphPoint.at_point(l1ball, primal(l1, [0.2, -0.1, 0.0, 0.3]))
    outside = GraphPoint.at_point(l1ball, primal(l1, [2.0, 0.5, 0.0, -0.4]))
    lp = lp_space(2.0, 4)
    maps = [affine_map(lp, primal(lp, [0.3, -0.2, 0.1, 0.0]), scale) for scale in (1.0, 2.0)]
    queries = []
    for base in (inside, outside, inside):
        queries += _every_mode(l1ball, base, rng, 2)
    for mapd in maps:
        for _ in range(2):
            queries += _every_mode(mapd, GraphPoint.at_point(mapd, _point(lp, rng, 0.5)), rng, 2)
    return "l1 ball and affine", SamplingSchedule(seed=seed), queries


def _c01_case(seed):
    rng = np.random.default_rng(seed)
    space = c01_space(33)
    grid = space.grid
    maps = [affine_map(space, primal(space, 0.3 * grid), 1.0), poly_projection_map(space, 1)]
    queries = []
    for k in range(2):
        for mapd in maps:
            base = GraphPoint.at_point(mapd, primal(space, np.sin((2 + k) * grid)))
            queries += _every_mode(mapd, base, rng, 2)
    schedule = SamplingSchedule(seed=seed, levels=4, dirs_per_level=16, extra_rays=(primal(space, grid),))
    return "C01", schedule, queries


def _split_case(seed):
    """Ten runs of one membership query at one ball: one more than a stack
    holds at the default shape, so the stack splits at QUOTIENT_BLOCK."""
    rng = np.random.default_rng(seed)
    space = lp_space(3.0, 4)
    ballm = ball_projection_map(space, 1.0)
    queries = []
    for k in range(10):
        base = GraphPoint.at_point(ballm, _point(space, rng, 2.5 if k % 2 else 0.5))
        ystar = _duals(space, rng, 1)[0]
        queries.append(Query(ballm, base, coderiv_ball_lp(base.x, 1.0, ystar).point, ystar))
    return "split", SamplingSchedule(seed=seed), queries


def _wide_case(seed):
    """N = 16 and S = 1024: a pass above the budget, a stack of one, walked
    one level at a time."""
    rng = np.random.default_rng(seed)
    space = lp_space(2.0, 16)
    ballm = ball_projection_map(space, 1.0)
    queries = []
    for radius in (2.5, 3.0, 0.5):
        base = GraphPoint.at_point(ballm, _point(space, rng, radius))
        ystar = _duals(space, rng, 1)[0]
        image = coderiv_ball_lp(base.x, 1.0, ystar).point
        queries += [Query(ballm, base, image, ystar), Query(ballm, base, image + 0.1 * ystar, ystar)]
        queries += [Query(ballm, base, w, mode="oracle") for w in _duals(space, rng, 2)]
    return "N=16 S=1024", SamplingSchedule(seed=seed, dirs_per_level=1024), queries


CASES = {
    name: (schedule, queries)
    for name, schedule, queries in (
        _ball_case(2.0, 1),
        _ball_case(3.0, 2),
        _cone_case(2.0, 3),
        _cone_case(3.0, 4),
        _other_case(5),
        _c01_case(6),
        _split_case(7),
        _wide_case(8),
    )
}


def _bits(answer):
    return (None if answer.extrapolated is None else answer.extrapolated.hex(), answer.verdict)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_ask_is_the_per_run_pass_bit_for_bit(name, monkeypatch):
    schedule, queries = CASES[name]
    reference = _ref_checked(queries, schedule)
    assert reference
    sizes, stacks = [], []
    value_batch, draw = MapDescriptor.value_batch, fixed_points.sample_base

    def counted_values(self, rows):
        sizes.append(rows.size)
        return value_batch(self, rows)

    def counted_draws(mapd, bases, schedule):
        stacks.append(len(bases))
        return draw(mapd, bases, schedule)

    monkeypatch.setattr(MapDescriptor, "value_batch", counted_values)
    monkeypatch.setattr(fixed_points, "sample_base", counted_draws)
    runs = [needed for _, _, needed in _ref_runs(queries)]
    checked = fixed_points._oracle_answers(runs, schedule)
    assert checked.keys() == reference.keys()
    for q, (spread, scale, answer) in checked.items():
        want_spread, want_scale, want = reference[q]
        assert (spread, scale, _bits(answer)) == (want_spread, want_scale, _bits(want)), (name, q.mode)
    # fewer passes than runs wherever runs stack, and no value batch above
    # the block or one level of one base; the rays' batches stay below it
    # too at these shapes
    rows = schedule.dirs_per_level + len(schedule.extra_rays)
    level = rows * queries[0].map.space.size
    assert max(sizes) <= max(QUOTIENT_BLOCK, level)
    assert sum(stacks) == sum(1 for run in runs if run)
    if name == "split":
        assert stacks == [8, 2]
    elif name == "N=16 S=1024":
        assert stacks == [1, 1, 1]
    else:
        assert len(stacks) < sum(1 for run in runs if run)
    monkeypatch.undo()
    try:
        want = _ref_ask(queries, schedule)
    except FixedPointAuditError as error:
        with pytest.raises(FixedPointAuditError, match=re.escape(str(error))):
            ask(queries, schedule)
    else:
        assert [_bits(a) for a in ask(queries, schedule)] == [_bits(a) for a in want]


@pytest.mark.parametrize("name", ["ball p=3", "cone p=2", "C01"])
def test_a_stack_holds_each_bases_own_pass(name):
    schedule, queries = CASES[name]
    bases = {}
    for q in queries:
        bases.setdefault(q.map, {}).setdefault(q.base, None)
    assert max(len(at) for at in bases.values()) > 1
    for mapd, at in bases.items():
        samples = sample_base(mapd, list(at), schedule)
        assert samples.x.shape[0] == len(at)
        rows = walked_rows(samples)
        for k, base in enumerate(at):
            for field, got, want in zip(("us", "vs", "dens"), rows, _ref_sample(mapd, base, schedule)):
                assert np.array_equal(got[k], want), (name, field)
            assert np.array_equal(samples.x[k], base.x.values) and np.array_equal(samples.y[k], base.y.values)


def test_a_kink_ray_that_does_not_start_reads_nan_in_its_stack():
    # -e_2 never starts from the 1e-300 base; at the origin every kink ray
    # starts; the other rays' rows are each base's own
    space = lp_space(3.0, 4)
    cone = cone_projection_map(space)
    bases = [GraphPoint.at_point(cone, primal(space, x)) for x in ([0.7, 1e-300, -0.4, 0.0], [0.0] * 4)]
    rows = sample_base(cone, bases, SamplingSchedule(seed=9)).kink_rows
    directions = np.stack([ray.values for ray in cone.kink_rays])
    assert rows.du.shape == (2, len(directions), RAY_STEPS, 4)
    never = np.isnan(rows.dens).all(axis=-1)
    assert never.tolist() == [[k == 3 for k in range(len(directions))], [False] * len(directions)]
    for k, base in enumerate(bases):
        started, want = _ref_started_rays(cone, base, directions)
        assert started.tolist() == (~never[k]).tolist()
        for got, expected in zip(rows, want):
            assert np.array_equal(got[k][started], expected)


def test_expected_images_of_a_stack_are_each_bases_own():
    # interior, exterior and sphere bases of one ball in one stack: each
    # block is its base's image alone, and a base on the sphere reads NaN
    rng = np.random.default_rng(12)
    space = lp_space(3.0, 4)
    ballm = ball_projection_map(space, 1.0)
    points = [_point(space, rng, r) for r in (0.5, 2.0)] + [primal(space, [1.0, 0.0, 0.0, 0.0])]
    bases = [GraphPoint.at_point(ballm, x) for x in points]
    ys = np.stack([np.stack([w.values for w in _duals(space, rng, 5)]) for _ in bases])
    images = ballm.expected_image(bases, ys)
    for base, got, y in zip(bases, images, ys):
        want = _ref_expected_image(ballm, base, y)
        if want is None:
            assert np.isnan(got).all()
        else:
            assert np.array_equal(got, want)
    assert ballm.expected_image(bases[2:], ys[2:]) is None
