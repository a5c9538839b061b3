import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from projderiv.coderivatives import (
    MapDescriptor,
    affine_map,
    ball_projection_map,
    cone_projection_map,
    l1_ball_projection_map,
    l1_projection_set_contains,
    poly_projection_map,
)
from projderiv.projections import brute_force_project
from projderiv.spaces import (
    c01_space,
    dual,
    duality_map_l1_selection,
    l1_space,
    lp_space,
    norm,
    pairing,
    primal,
)

L24 = lp_space(2.0, 2)
C513 = c01_space(513)

entry = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_ball_projection_examples():
    proj = ball_projection_map(L24, 1.0)
    inside = primal(L24, [0.1, 0.2])
    assert np.array_equal(proj.value(inside).values, inside.values)
    out = proj.value(primal(L24, [3, 4]))
    assert np.allclose(out.values, [0.6, 0.8], atol=1e-15)
    boundary = primal(L24, [0.6, 0.8])
    assert np.array_equal(proj.value(boundary).values, boundary.values)


def test_cone_projection_examples():
    sp = lp_space(2.0, 3)
    proj = cone_projection_map(sp)
    assert np.array_equal(proj.value(primal(sp, [1, -2, 3])).values, [1, 0, 3])
    assert norm(proj.value(primal(sp, [-1, -2, 0]))) == 0.0


@given(st.lists(entry, min_size=3, max_size=3), st.floats(min_value=0, max_value=4))
def test_cone_positive_homogeneous(vals, lam):
    sp = lp_space(2.0, 3)
    proj = cone_projection_map(sp)
    x = primal(sp, vals)
    left = proj.value(lam * x)
    right = lam * proj.value(x)
    assert np.allclose(left.values, right.values, atol=1e-12)


def test_l1_selection_examples():
    sp = l1_space(3)
    proj = l1_ball_projection_map(sp, 1.0)
    x = primal(sp, [2, 1, 0])
    assert np.allclose(proj.value(x).values, [2 / 3, 1 / 3, 0])
    # exterior: the selection is one member of a larger projection set
    assert l1_projection_set_contains(x, 1.0, primal(sp, [1.0, 0.0, 0.0]))
    inside = primal(sp, [0.2, -0.3, 0.1])
    assert np.array_equal(proj.value(inside).values, inside.values)
    # interior: the projection set is the point itself
    assert not l1_projection_set_contains(inside, 1.0, primal(sp, [0.2, -0.3, 0.0]))


def test_l1_selection_variational_inequality(rng):
    sp = l1_space(4)
    x = primal(sp, [2.0, 1.0, 0.5, 0.25])
    r = 1.0
    sel = l1_ball_projection_map(sp, r).value(x)
    jx = duality_map_l1_selection(x)
    for _ in range(100):
        y = rng.normal(size=4)
        y = primal(sp, r * rng.uniform(0, 1) * y / np.sum(np.abs(y)))
        assert pairing(jx, sel - y) >= -1e-12


def test_l1_projection_set_membership():
    sp = l1_space(3)
    x = primal(sp, [2.0, 1.0, 0.0])
    assert l1_projection_set_contains(x, 1.0, primal(sp, [2 / 3, 1 / 3, 0.0]))
    assert l1_projection_set_contains(x, 1.0, primal(sp, [1.0, 0.0, 0.0]))
    assert not l1_projection_set_contains(x, 1.0, primal(sp, [0.0, 0.0, 1.0]))


def test_project_poly_examples():
    proj = poly_projection_map(C513, 1)
    f = primal(C513, C513.grid**2)
    fit = proj.value(f)
    assert abs(norm(f - fit) - 0.125) <= 1e-9
    poly_f = primal(C513, 0.5 - 0.25 * C513.grid)
    assert norm(poly_f - proj.value(poly_f)) <= 1e-12
    shifted = proj.value(primal(C513, f.values + 0.3))
    assert np.max(np.abs(shifted.values - (fit.values + 0.3))) <= 1e-8


@given(st.sampled_from([1.5, 2.0, 3.0]), st.lists(entry, min_size=3, max_size=3))
def test_ball_projection_idempotent_exactly(p, vals):
    sp = lp_space(p, 3)
    proj = ball_projection_map(sp, 1.0)
    once = proj.value(primal(sp, vals))
    twice = proj.value(once)
    assert np.array_equal(once.values, twice.values)
    assert norm(once) <= 1.0 + 1e-12


def test_ball_rows_with_subnormal_norms_stay_inside_without_overflow():
    rows = np.array([[5e-324, 0.0, 0.0], [0.0, -5e-324, 0.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    maps = [ball_projection_map(lp_space(p, 3), 1.0) for p in (1.5, 2.0, 3.0)]
    maps.append(l1_ball_projection_map(l1_space(3), 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mapd in maps:
            out = mapd.value_batch(rows)
            assert np.array_equal(out[:3], rows[:3])
            assert abs(norm(primal(mapd.space, out[3])) - 1.0) <= 1e-15


@given(st.lists(entry, min_size=3, max_size=3))
def test_cone_and_l1_idempotent_exactly(vals):
    spc = lp_space(2.0, 3)
    cone = cone_projection_map(spc)
    once = cone.value(primal(spc, vals))
    assert np.array_equal(once.values, cone.value(once).values)
    spl = l1_space(3)
    l1ball = l1_ball_projection_map(spl, 1.0)
    sel = l1ball.value(primal(spl, vals))
    again = l1ball.value(sel)
    assert np.array_equal(sel.values, again.values)


def test_hilbert_nonexpansive_and_variational(rng):
    sp = lp_space(2.0, 3)
    ballm, cone = ball_projection_map(sp, 1.0), cone_projection_map(sp)
    xs = rng.normal(size=(500, 3)) * 2
    ys = rng.normal(size=(500, 3)) * 2
    gaps = np.linalg.norm(xs - ys, axis=1)
    for proj in (ballm, cone):
        moved = np.linalg.norm(proj.value_batch(xs) - proj.value_batch(ys), axis=1)
        assert np.all(moved <= gaps + 1e-12)
    for _ in range(100):
        x = primal(sp, rng.normal(size=3) * 2)
        px = ballm.value(x)
        z = rng.normal(size=3)
        z = primal(sp, rng.uniform(0, 1) * z / np.linalg.norm(z))
        residual = dual(sp, x.values - px.values)
        assert pairing(residual, z - px) <= 1e-9


def test_brute_force_matches_closed_forms(rng):
    for trial in range(8):
        p = (2.0, 3.0, 1.5)[trial % 3]
        d = 2 + trial % 2
        sp = lp_space(p, d)
        x = primal(sp, rng.normal(size=d) * 1.6)
        assume_outside = norm(x) > 1.1
        if not assume_outside:
            continue
        cf = ball_projection_map(sp, 1.0).value(x)
        bf = brute_force_project(x, ball_projection_map(sp, 1.0), resolution=40, seed=trial)
        assert norm(bf - cf) <= 2 / 40
        xc = primal(sp, rng.normal(size=d) * 1.5)
        cfc = cone_projection_map(sp).value(xc)
        bfc = brute_force_project(xc, cone_projection_map(sp), resolution=40, seed=trial)
        assert norm(bfc - cfc) <= 2 / 40


def test_brute_force_l1_matches_distance(rng):
    sp = l1_space(3)
    for trial in range(4):
        x = primal(sp, rng.normal(size=3) * 1.5)
        bf = brute_force_project(x, l1_ball_projection_map(sp, 1.0), resolution=30, seed=trial)
        expected = max(norm(x) - 1.0, 0.0)
        assert abs(norm(x - bf) - expected) <= 1e-4


def test_brute_force_inside_returns_input():
    sp = lp_space(2.0, 2)
    x = primal(sp, [0.3, -0.2])
    assert brute_force_project(x, ball_projection_map(sp, 1.0)) is x


def test_brute_force_dimension_guard():
    sp = lp_space(2.0, 5)
    with pytest.raises(ValueError):
        brute_force_project(primal(sp, np.ones(5) * 2), ball_projection_map(sp, 1.0))


def test_projection_map_validation():
    with pytest.raises(ValueError):
        ball_projection_map(l1_space(3), 1.0)
    with pytest.raises(ValueError):
        l1_ball_projection_map(lp_space(2, 3), 1.0)
    with pytest.raises(ValueError):
        ball_projection_map(lp_space(2, 3), -1.0)
    with pytest.raises(ValueError):
        poly_projection_map(lp_space(2, 3), 1)
    # members of the cone are their own nearest point
    cone = cone_projection_map(l1_space(3))
    member = primal(l1_space(3), [0, 1, 2])
    assert brute_force_project(member, cone) is member
    outside = primal(l1_space(3), [0, -1, 2])
    assert not np.array_equal(brute_force_project(outside, cone, resolution=8).values, outside.values)
    # an affine map projects onto no set
    sp = lp_space(2, 3)
    with pytest.raises(ValueError):
        brute_force_project(primal(sp, [2, 0, 0]), affine_map(sp, primal(sp, [0, 0, 0])))


ORACLE_CASES = [
    *[
        pytest.param(ball_projection_map(lp_space(p, 3), 1.0), [1.2, -0.9, 0.4], id=f"ball-p{p}")
        for p in (1.5, 2.0, 3.0)
    ],
    pytest.param(cone_projection_map(lp_space(3.0, 3)), [0.7, -1.1, 0.2], id="cone-Lp"),
    pytest.param(cone_projection_map(l1_space(3)), [-0.3, 0.8, -1.4], id="cone-L1"),
    pytest.param(l1_ball_projection_map(l1_space(3), 1.0), [1.1, -0.6, 0.3], id="l1_ball"),
    *[
        pytest.param(poly_projection_map(C513, n), np.sin(3 * C513.grid) + C513.grid**3, id=f"poly{n}")
        for n in (0, 1, 2)
    ],
]


@pytest.mark.parametrize("mapd, values", ORACLE_CASES)
def test_brute_force_never_evaluates_the_map(mapd, values, monkeypatch):
    x = primal(mapd.space, values)
    expected = brute_force_project(x, mapd, resolution=8, seed=3)

    def closed_form(*args):
        raise AssertionError("the oracle evaluated the map's closed form")

    monkeypatch.setattr(MapDescriptor, "value", closed_form)
    monkeypatch.setattr(MapDescriptor, "value_batch", closed_form)
    assert np.array_equal(brute_force_project(x, mapd, resolution=8, seed=3).values, expected.values)


POLY_CASES = [case for case in ORACLE_CASES if case.id.startswith("poly")]


@pytest.mark.parametrize("mapd, values", POLY_CASES)
def test_poly_oracle_raises_when_the_lp_fails(mapd, values, monkeypatch):
    def failed(*args, **kwargs):
        return scipy.optimize.OptimizeResult(success=False, status=4, message="numerical difficulties")

    monkeypatch.setattr(scipy.optimize, "linprog", failed)
    with pytest.raises(RuntimeError, match="numerical difficulties"):
        brute_force_project(primal(mapd.space, values), mapd)
