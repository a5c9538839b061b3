"""`fixed_points.ask` over stacked passes against the reference oracle.

`ask` samples and answers every run of queries at one map that needs the
oracle for equally many queries as one stacked pass, wherever the runs sit in
the list. The reference is the per-run pass the stack replaced: one pass of
`reference_oracle.py` sampled per run of consecutive queries at one base, one
level at a time, and the membership values, registry rays and audit spreads
of that run's candidates, with one pairing slice per candidate and the kink
rays that start kept apart from those that do not. Every oracle entry
(spread, scale, value and verdict) and every answer must be bit for bit the
reference's.
"""

from __future__ import annotations

import re
from itertools import groupby

import numpy as np
import pytest

import reference_oracle as ref
from projderiv import fixed_points, limsup_oracle
from projderiv.coderivatives import (
    MapDescriptor,
    affine_map,
    ball_projection_map,
    coderiv_ball_lp,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
)
from projderiv.fixed_points import FixedPointAuditError, Query, ask, is_fixed_point, registry_verdict
from projderiv.limsup_oracle import (
    RAY_STEPS,
    Answer,
    GraphPoint,
    SamplingSchedule,
    sample_base,
)
from projderiv.spaces import (
    KIND_C01,
    DualVector,
    PrimalVector,
    c01_space,
    dual,
    dual_norm,
    l1_space,
    lp_space,
    norm,
    primal,
)

# ---------------------------------------------------------------------------
# the per-run reference
# ---------------------------------------------------------------------------


def _runs(queries):
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


def _reference_entries(mapd, base, schedule, queries):
    """(spread, scale, answer) of each query of one run on the run's own
    reference pass, the audit spread on its finest level."""
    space, x, y = mapd.space, base.x.values, base.y.values
    xs = np.stack([q.xstar.values for q in queries])
    ys = np.stack([(q.xstar if q.ystar is None else q.ystar).values for q in queries])
    sample = ref.sample_pass(mapd, base, schedule)
    rays = np.stack([ref.registry_ray(mapd, x, xw, yw) for xw, yw in zip(xs, ys)])
    answers = ref.membership(mapd, base, sample, xs, ys, rays[:, None])
    fixed = np.array([q.ystar is None for q in queries])
    spreads = np.zeros(len(queries))
    if fixed.any():
        spreads[fixed] = ref.audit_spread(space, x, y, sample.us[-1], sample.vs[-1], xs[fixed]).max(axis=-1)
    scales = [1.0 + float(ref.dual_norm(space, w)) for w in ys]
    return list(zip(spreads.tolist(), scales, answers))


def _reference_checked(queries, schedule):
    """The per-run oracle entry of every query that needs the oracle."""
    checked = {}
    for run, _, needed in _runs(queries):
        if needed:
            checked.update(zip(needed, _reference_entries(run[0].map, run[0].base, schedule, needed)))
    return checked


def _reference_ask(queries, checked):
    """The answers of `ask`, given the reference entries `checked`."""
    answers = []
    for run, exact, _ in _runs(queries):
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
    """Thirty-three runs of one membership query at one ball: one more than
    a stack holds at the default shape, so the stack splits at
    QUOTIENT_BLOCK."""
    rng = np.random.default_rng(seed)
    space = lp_space(3.0, 4)
    ballm = ball_projection_map(space, 1.0)
    queries = []
    for k in range(33):
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


def _wide_cone_case(seed):
    """The l_3 cone at N = 16 and S = 1024, with its 32 kink rays: four runs
    of one query, one at a base with a 1e-300 coordinate, from which the
    kink ray -e_2 never starts, and a run of two at a fifth base."""
    rng = np.random.default_rng(seed)
    space = lp_space(3.0, 16)
    cone = cone_projection_map(space)
    tiny = np.zeros(16)
    tiny[:3] = [0.7, 1e-300, -0.4]
    points = [tiny, *(rng.uniform(-1.0, 1.5, size=16) for _ in range(4))]
    bases = [GraphPoint.at_point(cone, primal(space, x)) for x in points]
    queries = [Query(cone, bases[0], DualVector.zero(space), _duals(space, rng, 1)[0])]
    queries += [Query(cone, bases[1], w, w) for w in _duals(space, rng, 1)]
    queries += [Query(cone, bases[2], w, mode="oracle") for w in _duals(space, rng, 1)]
    queries += [Query(cone, bases[3], w, _duals(space, rng, 1)[0]) for w in _duals(space, rng, 1)]
    queries += [Query(cone, bases[4], w, mode="audit") for w in _duals(space, rng, 2)]
    return "cone N=16 S=1024", SamplingSchedule(seed=seed, dirs_per_level=1024), queries


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
        _wide_cone_case(9),
    )
}

WIDE = ("N=16 S=1024", "cone N=16 S=1024")


def _bits(answer):
    return (None if answer.extrapolated is None else answer.extrapolated.hex(), answer.verdict)


def _check_stacked_ask(name, monkeypatch):
    """Asks the case's queries, checks every oracle entry and answer against
    the per-run reference and every batch against the block, and returns the
    bases of each sample stack and of each fold of rays."""
    schedule, queries = CASES[name]
    block = limsup_oracle.QUOTIENT_BLOCK
    reference = _reference_checked(queries, schedule)
    assert reference
    sizes, stacks, folds, rays = [], [], [], []
    value_batch, walked, fold, ray_rows = (
        MapDescriptor.value_batch, limsup_oracle._sampled_sups, limsup_oracle._fold_rays, limsup_oracle._ray_rows
    )

    def counted_values(self, rows):
        sizes.append(rows.size)
        return value_batch(self, rows)

    def counted_walks(samples, *args):
        stacks.append(len(samples.bases))
        return walked(samples, *args)

    def counted_folds(samples, *args):
        folds.append(len(samples.bases))
        return fold(samples, *args)

    def counted_rays(mapd, x, y, t_starts, directions, split_l1_denominator=False):
        rays.append(directions.size * RAY_STEPS)  # the entries of its one value batch
        return ray_rows(mapd, x, y, t_starts, directions, split_l1_denominator)

    runs = [needed for _, _, needed in _runs(queries)]
    with monkeypatch.context() as patch:
        patch.setattr(MapDescriptor, "value_batch", counted_values)
        patch.setattr(limsup_oracle, "_sampled_sups", counted_walks)
        patch.setattr(limsup_oracle, "_fold_rays", counted_folds)
        patch.setattr(limsup_oracle, "_ray_rows", counted_rays)
        checked = fixed_points._oracle_answers(runs, schedule)
    assert checked.keys() == reference.keys()
    for q, (spread, scale, answer) in checked.items():
        want_spread, want_scale, want = reference[q]
        assert (spread, scale, _bits(answer)) == (want_spread, want_scale, _bits(want)), (name, q.mode)
    # no value batch above the block or one level of one base, and no ray
    # batch above the block or the rays of one base: its kink rays and each
    # candidate's norming and registry rays
    rows = schedule.dirs_per_level + len(schedule.extra_rays)
    level = rows * queries[0].map.space.size
    assert max(sizes) <= max(block, level)
    own = max((len(run[0].map.kink_rays) + 2 * len(run)) * RAY_STEPS * run[0].map.space.size for run in runs if run)
    assert max(rays) <= max(block, own)
    # every run in one sample stack and in one fold, a fold being whole
    # sample stacks
    assert sum(stacks) == sum(folds) == sum(1 for run in runs if run)
    assert len(folds) <= len(stacks)
    try:
        want = _reference_ask(queries, reference)
    except FixedPointAuditError as error:
        with pytest.raises(FixedPointAuditError, match=re.escape(str(error))):
            ask(queries, schedule)
    else:
        assert [_bits(a) for a in ask(queries, schedule)] == [_bits(a) for a in want]
    return stacks, folds


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_ask_is_the_per_run_pass_bit_for_bit(name, monkeypatch):
    schedule, queries = CASES[name]
    stacks, folds = _check_stacked_ask(name, monkeypatch)
    runs = sum(1 for _ in groupby(queries, key=lambda q: (q.map, q.base)))
    if name == "split":
        # 80 ray rows per base: both sample stacks fold as one
        assert stacks == [32, 1] and folds == [33]
    elif name == "N=16 S=1024":
        # three bases of four queries, 1,280 ray rows each: one sample stack
        # per base, one fold for all three
        assert stacks == [1, 1, 1] and folds == [3]
    elif name == "cone N=16 S=1024":
        # 5,440 ray rows per base of one query, 5,760 at the base of two
        assert stacks == [1, 1, 1, 1, 1] and folds == [3, 1, 1]
    else:
        # fewer passes than runs wherever runs stack; the folds are the
        # sample stacks at these shapes
        assert len(stacks) < runs and folds == stacks


@pytest.mark.parametrize("block", [700, 1])
@pytest.mark.parametrize("name", WIDE)
def test_a_small_block_folds_the_rays_of_one_base_at_a_time(name, block, monkeypatch):
    # a block of 700 entries holds fewer than one base's ray rows, and of
    # one entry nothing: every sample stack, fold and part of candidates is
    # one base's, and every answer keeps its bits
    monkeypatch.setattr(limsup_oracle, "QUOTIENT_BLOCK", block)
    stacks, folds = _check_stacked_ask(name, monkeypatch)
    assert set(stacks) == set(folds) == {1}


def test_ask_and_is_fixed_point_walk_and_fold_only_inside_membership_batch(monkeypatch):
    # every level that `ask` evaluates on a mixed run, and every fold of its
    # rays, and those of a direct `is_fixed_point`, fall inside the oracle's
    # one public stacked entry, so their time is the oracle's own
    rng = np.random.default_rng(13)
    space = lp_space(3.0, 4)
    ballm = ball_projection_map(space, 1.0)
    base = GraphPoint.at_point(ballm, _point(space, rng, 2.0))
    queries = _every_mode(ballm, base, rng, 3)
    schedule = SamplingSchedule(seed=13)
    entry, depth, calls = limsup_oracle.membership_batch, [0], []

    def entered(*args):
        depth[0] += 1
        try:
            return entry(*args)
        finally:
            depth[0] -= 1

    def recorded(name):
        inner = getattr(limsup_oracle, name)

        def call(*args):
            calls.append((name, depth[0] > 0))
            return inner(*args)

        return call

    monkeypatch.setattr(fixed_points, "membership_batch", entered, raising=False)
    monkeypatch.setattr(limsup_oracle, "membership_batch", entered)
    for name in ("_level_rows", "_fold_rays"):
        monkeypatch.setattr(limsup_oracle, name, recorded(name))
    ask(queries, schedule)
    asked = len(calls)
    is_fixed_point(sample_base(ballm, base, schedule), queries[-1].xstar, "oracle")
    assert 0 < asked < len(calls)
    assert [name for name, inside in calls if not inside] == []
    assert {name for name, _ in calls} == {"_level_rows", "_fold_rays"}


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
        rows = ref.walked_rows(samples)
        for k, base in enumerate(at):
            for field, got, want in zip(("us", "vs", "dens"), rows, ref.sample_pass(mapd, base, schedule)[1:]):
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
        started, want = ref.started_rays(cone, base, directions)
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
        want = [ref.expected_image(ballm, base.x.values, w) for w in y]
        if want[0] is None:
            assert np.isnan(got).all()
        else:
            assert np.array_equal(got, np.stack(want))
    assert ballm.expected_image(bases[2:], ys[2:]) is None
