"""`fixed_points.ask` over stacked passes against the reference oracle.

`ask` samples and answers every run of queries at one map that needs the
oracle for equally many candidates as one stacked pass, wherever the runs sit
in the list. The reference is the per-run pass the stack replaced: one pass
of `reference_oracle.py` sampled per run of consecutive queries at one base,
one level at a time, and the membership values, registry rays and audit
spreads of that run's candidates, taken one dual at a time, with one pairing
slice per candidate and the kink rays that start kept apart from those that
do not. Every oracle entry (spread, scale, value and verdict) and every
answer must be bit for bit the reference's, and every answer must be the one
its candidate gets as a block of one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class _Candidate:
    """One row of a query's block, its duals as `DualVector`s."""

    map: MapDescriptor
    base: GraphPoint
    xstar: DualVector
    ystar: DualVector | None
    mode: str


def _candidates(queries):
    """The candidates of the queries, each query's rows in order."""
    return [
        _Candidate(q.map, q.base, dual(q.map.space, x), None if q.ystars is None else dual(q.map.space, q.ystars[i]), q.mode)
        for q in queries
        for i, x in enumerate(q.xstars)
    ]


def _runs(queries):
    """Each run of consecutive candidates at one map and base, with its
    registry verdicts and the candidates that need the oracle."""
    runs = []
    for (mapd, base), run in groupby(_candidates(queries), key=lambda q: (q.map, q.base)):
        run = list(run)
        asked = [q for q in run if q.ystar is None and q.mode in ("registry", "audit")]
        char = mapd.fixed_point_set(base) if asked else None
        exact = {q: registry_verdict(mapd, base, q.xstar, char) for q in asked}
        needed = [q for q in run if q.ystar is not None or q.mode in ("oracle", "audit")
                  or (q in exact and exact[q] is None)]
        runs.append((run, exact, needed))
    return runs


def _reference_entries(mapd, base, schedule, queries):
    """(spread, scale, answer) of each candidate of one run on the run's own
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


def _reference_checked(runs, schedule):
    """The per-run oracle entry of every candidate of `_runs` that needs the
    oracle."""
    checked = {}
    for run, _, needed in runs:
        if needed:
            checked.update(zip(needed, _reference_entries(run[0].map, run[0].base, schedule, needed)))
    return checked


def _reference_ask(runs, checked):
    """The answers of `ask`, one per candidate of `_runs`, given the
    reference entries `checked`."""
    answers = []
    for run, exact, _ in runs:
        settled = {q: is_fixed_point(None, q.xstar, q.mode, batch=(exact.get(q), checked.get(q)))
                   for q in run if q.ystar is None}
        answers += [checked[q][2] if q in checked else Answer(None, settled[q]) for q in run]
    return answers


# ---------------------------------------------------------------------------
# query lists
# ---------------------------------------------------------------------------


def _duals(space, rng, count, lo=0.3, hi=1.5):
    """`count` dual values with dual norms in [lo, hi], the rows of a
    (count, size) block; a measure has a few atoms."""
    out = []
    while len(out) < count:
        vals = rng.normal(size=space.size)
        if space.kind == KIND_C01:
            vals *= rng.random(space.size) < 4.0 / space.size
        if np.any(vals):
            out.append(vals * (rng.uniform(lo, hi) / dual_norm(dual(space, vals))))
    return np.array(out).reshape(count, space.size)


def _point(space, rng, radius):
    x = primal(space, rng.normal(size=space.size))
    return (radius / norm(x)) * x


def _every_mode(mapd, base, rng, count):
    """A block of `count` fixed-point candidates in each mode and a block of
    `count` membership candidates, the dual origin first in each."""
    cands = np.concatenate([np.zeros((1, mapd.space.size)), _duals(mapd.space, rng, count - 1)])
    queries = [Query(mapd, base, cands, mode=mode) for mode in ("registry", "oracle", "audit")]
    return queries + [Query(mapd, base, cands, _duals(mapd.space, rng, count))]


def _ball_case(p, seed):
    """Interior, exterior and sphere bases of one ball, with runs of 1, 20
    and 21 candidates (the dual origin and 20 draws as one block or as two),
    runs at one map that a cone run separates, and every mode."""
    rng = np.random.default_rng(seed)
    space = lp_space(p, 4)
    ballm = ball_projection_map(space, 1.0)
    cone = cone_projection_map(space)
    interior = [GraphPoint.at_point(ballm, _point(space, rng, r)) for r in (0.3, 0.6, 0.8)]
    exterior = [GraphPoint.at_point(ballm, _point(space, rng, r)) for r in (1.5, 2.0, 3.0)]
    sphere = GraphPoint.at_point(ballm, primal(space, [1.0, 0.0, 0.0, 0.0]))
    elsewhere = GraphPoint.at_point(cone, _point(space, rng, 1.0))
    queries = [Query(ballm, base, _duals(space, rng, 20), mode="oracle") for base in (interior[0], exterior[0])]
    ws = _duals(space, rng, 20)
    queries.append(Query(cone, elsewhere, ws, ws))
    zero = np.zeros((1, 4))
    queries += [Query(ballm, exterior[1], zero, mode="oracle"), Query(ballm, exterior[1], _duals(space, rng, 20), mode="oracle")]
    for base in (interior[1], sphere):
        queries.append(Query(ballm, base, np.concatenate([zero, _duals(space, rng, 20)]), mode="oracle"))
    for base in (*exterior, *interior, sphere):
        ystar = _duals(space, rng, 1)
        image = coderiv_ball_lp(base.x, 1.0, dual(space, ystar[0])).point.values if base is not sphere else ystar[0]
        queries.append(Query(ballm, base, (image + 0.1 * rng.normal(size=4))[None], ystar))
    for base in (exterior[2], interior[2], sphere):
        queries += _every_mode(ballm, base, rng, 3)
    return f"ball p={p:g}", SamplingSchedule(seed=seed), queries


def _cone_case(p, seed):
    """The Lp cone at the origin, at a base off the origin, and at a base
    with a 1e-300 coordinate, from which the kink ray -e_2 never starts;
    runs of 1 and 20 candidates and every mode."""
    rng = np.random.default_rng(seed)
    space = lp_space(p, 4)
    cone = cone_projection_map(space)
    origin = GraphPoint.at_point(cone, PrimalVector.zero(space))
    tiny = GraphPoint.at_point(cone, primal(space, [0.7, 1e-300, -0.4, 0.0]))
    mixed = [GraphPoint.at_point(cone, primal(space, rng.uniform(-1.0, 1.5, size=4))) for _ in range(3)]
    queries = []
    for base in (origin, tiny, *mixed):
        w = _duals(space, rng, 1)
        queries.append(Query(cone, base, w, w))
    psis = np.abs(_duals(space, rng, 20))
    queries += [Query(cone, origin, psis, psis), Query(cone, tiny, np.zeros((20, 4)), _duals(space, rng, 20))]
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
    """Thirty-three runs of one membership candidate at one ball: one more
    than a stack holds at the default shape, so the stack splits at
    QUOTIENT_BLOCK."""
    rng = np.random.default_rng(seed)
    space = lp_space(3.0, 4)
    ballm = ball_projection_map(space, 1.0)
    queries = []
    for k in range(33):
        base = GraphPoint.at_point(ballm, _point(space, rng, 2.5 if k % 2 else 0.5))
        ystar = _duals(space, rng, 1)
        queries.append(Query(ballm, base, coderiv_ball_lp(base.x, 1.0, dual(space, ystar[0])).point.values[None], ystar))
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
        ystar = _duals(space, rng, 1)
        image = coderiv_ball_lp(base.x, 1.0, dual(space, ystar[0])).point.values
        queries.append(Query(ballm, base, np.stack([image, image + 0.1 * ystar[0]]), np.concatenate([ystar, ystar])))
        queries.append(Query(ballm, base, _duals(space, rng, 2), mode="oracle"))
    return "N=16 S=1024", SamplingSchedule(seed=seed, dirs_per_level=1024), queries


def _wide_cone_case(seed):
    """The l_3 cone at N = 16 and S = 1024, with its 32 kink rays: four runs
    of one candidate, one at a base with a 1e-300 coordinate, from which the
    kink ray -e_2 never starts, and a run of two at a fifth base."""
    rng = np.random.default_rng(seed)
    space = lp_space(3.0, 16)
    cone = cone_projection_map(space)
    tiny = np.zeros(16)
    tiny[:3] = [0.7, 1e-300, -0.4]
    points = [tiny, *(rng.uniform(-1.0, 1.5, size=16) for _ in range(4))]
    bases = [GraphPoint.at_point(cone, primal(space, x)) for x in points]
    w = _duals(space, rng, 1)
    queries = [Query(cone, bases[0], np.zeros((1, 16)), _duals(space, rng, 1)), Query(cone, bases[1], w, w)]
    queries.append(Query(cone, bases[2], _duals(space, rng, 1), mode="oracle"))
    queries.append(Query(cone, bases[3], _duals(space, rng, 1), _duals(space, rng, 1)))
    queries.append(Query(cone, bases[4], _duals(space, rng, 2), mode="audit"))
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
    candidate_runs = _runs(queries)
    reference = _reference_checked(candidate_runs, schedule)
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

    runs = [needed for _, _, needed in candidate_runs if needed]
    # each candidate that needs the oracle as a block of one
    blocks = [
        [Query(q.map, q.base, q.xstar.values[None], None if q.ystar is None else q.ystar.values[None], q.mode) for q in run]
        for run in runs
    ]
    with monkeypatch.context() as patch:
        patch.setattr(MapDescriptor, "value_batch", counted_values)
        patch.setattr(limsup_oracle, "_sampled_sups", counted_walks)
        patch.setattr(limsup_oracle, "_fold_rays", counted_folds)
        patch.setattr(limsup_oracle, "_ray_rows", counted_rays)
        checked = fixed_points._oracle_answers(blocks, [[True] * len(run) for run in runs], schedule)
    assert [len(entries) for entries in checked] == [len(run) for run in runs]
    assert sum(map(len, runs)) == len(reference)
    for run, entries in zip(runs, checked):
        for q, (spread, scale, answer) in zip(run, entries):
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
    assert sum(stacks) == sum(folds) == len(runs)
    assert len(folds) <= len(stacks)
    # the blocks as asked, and each candidate as a block of one
    alone = [Query(q.map, q.base, q.xstars[i : i + 1], None if q.ystars is None else q.ystars[i : i + 1], q.mode)
             for q in queries for i in range(len(q.xstars))]
    for asked in (queries, alone):
        try:
            want = _reference_ask(candidate_runs, reference)
        except FixedPointAuditError as error:
            with pytest.raises(FixedPointAuditError, match=re.escape(str(error))):
                ask(asked, schedule)
        else:
            assert [_bits(a) for a in ask(asked, schedule)] == [_bits(a) for a in want]
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
    is_fixed_point(sample_base(ballm, base, schedule), dual(space, queries[-1].xstars[-1]), "oracle")
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
    ys = np.stack([_duals(space, rng, 5) for _ in bases])
    images = ballm.expected_image(bases, ys)
    for base, got, y in zip(bases, images, ys):
        want = [ref.expected_image(ballm, base.x.values, w) for w in y]
        if want[0] is None:
            assert np.isnan(got).all()
        else:
            assert np.array_equal(got, np.stack(want))
    assert ballm.expected_image(bases[2:], ys[2:]) is None
