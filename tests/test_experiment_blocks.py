"""The ball experiments' candidate blocks against one dual at a time.

`ball_theorem_4_1` and `ball_coderiv_theorem_3_1` draw their candidates as
blocks of rows (`experiments._duals_with_norm`, whose directions are
normalized as one block) and take the closed-form images of y* and of J(x)
at each map's bases in one `coderivatives._ball_images` call. The reference here draws from the
same generators in the same order one dual at a time: a `DualVector` per
candidate, normalized alone (`_unit_values`), and one `coderiv_ball_lp` and
`duality_map` call per base. Every candidate row, image, perturbed image and
collapse value must be the reference's bit for bit, and the answers of each
block must be those its candidates get as blocks of one.
"""

from __future__ import annotations

import numpy as np
import pytest

from projderiv import coderivatives, fixed_points
from projderiv.coderivatives import ball_projection_map, coderiv_ball_lp
from projderiv.experiments import _primal_with_norm, resolve_config, run_experiment
from projderiv.fixed_points import Query
from projderiv.spaces import DualVector, dual, dual_norm, dual_norm_rows, duality_map, lp_space

SEEDS = [1, 3, 7, 11]


def _unit_values(space, rng):
    vals = rng.normal(size=space.size)
    return vals * (1.0 / dual_norm_rows(space, vals[None, :])[0])


def _one_dual(space, rng, lo_norm, hi_norm):
    """One dual of norm drawn in [lo_norm, hi_norm], its norm drawn before
    its direction."""
    scale = rng.uniform(lo_norm, hi_norm)
    return scale * dual(space, _unit_values(space, rng))


def _bits(array):
    return np.asarray(array, dtype=float).tobytes()


def _asked(name, seed, monkeypatch):
    """The query lists the experiment hands to `fixed_points.ask`, the
    (points, images) of each `coderivatives._ball_images` call it makes
    before it first asks, and its report."""
    asked, imaged, ask, ball_images = [], [], fixed_points.ask, coderivatives._ball_images

    def recorded(queries, schedule):
        asked.append((list(queries), schedule))
        return ask(*asked[-1])

    def recorded_images(points, r, ws):
        images = ball_images(points, r, ws)
        if not asked:
            imaged.append((points, images))
        return images

    with monkeypatch.context() as patch:
        patch.setattr(fixed_points, "ask", recorded)
        patch.setattr(coderivatives, "_ball_images", recorded_images)
        report = run_experiment(resolve_config(name, overrides={"seed": seed}))
    assert report.passed
    return asked, imaged, report


def _check_blocks_answer_as_blocks_of_one(asked):
    for queries, schedule in asked:
        alone = [
            Query(q.map, q.base, q.xstars[i : i + 1], None if q.ystars is None else q.ystars[i : i + 1], q.mode)
            for q in queries
            for i in range(len(q.xstars))
        ]
        answers = [(a.verdict, a.extrapolated) for a in fixed_points.ask(queries, schedule)]
        assert answers == [(a.verdict, a.extrapolated) for a in fixed_points.ask(alone, schedule)]


@pytest.mark.parametrize("seed", SEEDS)
def test_ball_fixed_point_blocks_are_the_duals_drawn_one_at_a_time(seed, monkeypatch):
    asked, _, _ = _asked("ball_theorem_4_1", seed, monkeypatch)
    config = resolve_config("ball_theorem_4_1", overrides={"seed": seed})
    assert len(asked) == 2
    for tag, (p, (queries, _)) in enumerate(zip((2.0, 3.0), asked)):
        space = lp_space(p, config.N)
        rng = np.random.default_rng([seed, 10 + tag])
        want = []
        for _ in range(20):
            x = _primal_with_norm(space, rng, 0.1 * config.r, 0.8 * config.r)
            want.append((x, [_one_dual(space, rng, 0.3, 1.5) for _ in range(20)]))
        for _ in range(20):
            x = _primal_with_norm(space, rng, 1.5 * config.r, 2.2 * config.r)
            want.append((x, [DualVector.zero(space)] + [_one_dual(space, rng, 0.5, 1.0) for _ in range(20)]))
        assert len(queries) == len(want) == 40
        for q, (x, duals) in zip(queries, want):
            assert (q.ystars, q.mode) == (None, "oracle")
            assert _bits(q.base.x.values) == _bits(x.values)
            assert [_bits(row) for row in q.xstars] == [_bits(w.values) for w in duals]
    _check_blocks_answer_as_blocks_of_one(asked)


@pytest.mark.parametrize("seed", SEEDS)
def test_ball_coderivative_blocks_are_the_images_taken_one_at_a_time(seed, monkeypatch):
    asked, imaged, report = _asked("ball_coderiv_theorem_3_1", seed, monkeypatch)
    config = resolve_config("ball_coderiv_theorem_3_1", overrides={"seed": seed})
    ((queries, _),) = asked
    assert len(queries) == 50
    maps = [ball_projection_map(lp_space(p, config.N), config.r) for p in (2.0, 3.0)]
    points, collapse, collapsed = ([], []), ([], []), ([], [])
    for i, q in enumerate(queries):
        space = maps[i % 2].space
        rng = np.random.default_rng([seed, 20 + i])
        x = _primal_with_norm(space, rng, 2.5 * config.r, 3.5 * config.r)
        ystar = _one_dual(space, rng, 0.5, 1.5)
        image = coderiv_ball_lp(x, config.r, ystar).point
        perturbed = image + dual(space, 0.1 * _unit_values(space, rng))
        assert q.map is queries[i % 2].map and q.map.space == space
        assert _bits(q.base.x.values) == _bits(x.values)
        assert [_bits(row) for row in q.xstars] == [_bits(image.values), _bits(perturbed.values)]
        assert [_bits(row) for row in q.ystars] == [_bits(ystar.values)] * 2
        points[i % 2].append(x)
        collapsed[i % 2].append(coderiv_ball_lp(x, config.r, duality_map(x)).point)
        collapse[i % 2].append(dual_norm(collapsed[i % 2][-1]))
    # one stacked call per map takes the images of y* and of J(x)
    assert len(imaged) == 2
    for mapd, (at, images), want_points, want, norms in zip(maps, imaged, points, collapsed, collapse):
        assert [_bits(x.values) for x in at] == [_bits(x.values) for x in want_points]
        assert [_bits(row) for row in images[:, 1]] == [_bits(w.values) for w in want]
        assert _bits(dual_norm_rows(mapd.space, images[:, 1])) == _bits(norms)
    (observed,) = [c.observed for c in report.checks if c.name == "duality image collapses to the dual origin"]
    assert observed == f"{max(collapse[0] + collapse[1]):.3e}"
    _check_blocks_answer_as_blocks_of_one(asked)
