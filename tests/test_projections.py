import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given
from hypothesis import strategies as st

import grid_lp
from projderiv import chebyshev
from projderiv.coderivatives import (
    INSIDE_SLACK,
    MapDescriptor,
    affine_map,
    ball_projection_map,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
    projection_gap,
)
from projderiv.experiments import _random_smooth, resolve_config, run_experiment
from projderiv.projections import poly_bracket
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
    assert proj.graph_contains(x, primal(sp, [1.0, 0.0, 0.0]), tol=1e-12)
    inside = primal(sp, [0.2, -0.3, 0.1])
    assert np.array_equal(proj.value(inside).values, inside.values)
    # interior: the projection set is the point itself
    assert not proj.graph_contains(inside, primal(sp, [0.2, -0.3, 0.0]), tol=1e-12)


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
    proj = l1_ball_projection_map(sp, 1.0)
    x = primal(sp, [2.0, 1.0, 0.0])
    assert proj.graph_contains(x, primal(sp, [2 / 3, 1 / 3, 0.0]), tol=1e-12)
    assert proj.graph_contains(x, primal(sp, [1.0, 0.0, 0.0]), tol=1e-12)
    assert not proj.graph_contains(x, primal(sp, [0.0, 0.0, 1.0]), tol=1e-12)


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


def _certified(mapd, x, y):
    return projection_gap(mapd, x, y) <= 1e-12 * max(1.0, norm(x))


def _sampled_members(mapd, rng, count):
    # members of the set drawn without its projection formula: random rows
    # scaled into the ball, or folded into the cone
    rows = rng.normal(size=(count, mapd.space.size)) * rng.uniform(0.05, 3.0, size=(count, 1))
    if mapd.radius is None:
        return [primal(mapd.space, np.abs(row)) for row in rows]
    members = [primal(mapd.space, row) for row in rows]
    return [(rng.uniform(0.0, mapd.radius) / norm(y)) * y for y in members]


def _certify_against_samples(mapd, rng):
    # every closed-form value has gap <= 1e-12 relative, and no sampled member
    # of the set is nearer to x than the closed form by more than rounding
    d = mapd.space.size
    xs = rng.normal(size=(12, d)) * rng.uniform(0.05, 3.0, size=(12, 1))
    samples = _sampled_members(mapd, rng, 16)
    for x, y in zip(xs, mapd.value_batch(xs)):
        x, y = primal(mapd.space, x), primal(mapd.space, y)
        assert _certified(mapd, x, y)
        dist = norm(x - y)
        assert all(norm(x - z) >= dist - 1e-12 * max(1.0, norm(x)) for z in samples)


def test_brute_force_matches_closed_forms(rng):
    for p in (1.5, 2.0, 3.0, 6.0):
        for d in (2, 3, 16, 64):
            sp = lp_space(p, d)
            _certify_against_samples(ball_projection_map(sp, 1.0), rng)
            _certify_against_samples(cone_projection_map(sp), rng)


def test_brute_force_l1_matches_distance(rng):
    for d in (2, 3, 16, 64):
        sp = l1_space(d)
        _certify_against_samples(cone_projection_map(sp), rng)
        l1ball = l1_ball_projection_map(sp, 1.0)
        _certify_against_samples(l1ball, rng)
        for _ in range(4):
            x = primal(sp, rng.normal(size=d) * 1.5)
            expected = max(norm(x) - 1.0, 0.0)
            assert abs(norm(x - l1ball.value(x)) - expected) <= 1e-12 * max(1.0, norm(x))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_projection_gap_rejects_a_ball_value_moved_along_the_sphere(p):
    rng = np.random.default_rng([16, int(2 * p)])
    sp = lp_space(p, 16)
    mapd = ball_projection_map(sp, 1.0)
    for _ in range(20):
        x = primal(sp, rng.normal(size=16) * 3.0)
        y = mapd.value(x)
        step = primal(sp, rng.normal(size=16))
        moved = y + (1e-4 / norm(step)) * step
        moved = (1.0 / norm(moved)) * moved
        assert _certified(mapd, x, y)
        assert not _certified(mapd, x, moved)


@pytest.mark.parametrize("sp", [lp_space(1.5, 16), lp_space(3.0, 16), l1_space(16)], ids=["Lp1.5", "Lp3", "L1"])
def test_projection_gap_rejects_a_raised_cone_coordinate(sp):
    rng = np.random.default_rng(16)
    mapd = cone_projection_map(sp)
    for _ in range(20):
        x = primal(sp, rng.normal(size=16))
        y = mapd.value(x)
        for i in np.flatnonzero(y.values == 0.0):
            raised = y.values.copy()
            raised[i] = 1e-4
            assert not _certified(mapd, x, primal(sp, raised))


def test_projection_gap_rejects_an_l1_ball_value_moved_off_its_face():
    rng = np.random.default_rng(17)
    sp = l1_space(16)
    mapd = l1_ball_projection_map(sp, 1.0)
    for _ in range(20):
        vals = rng.normal(size=16) * 3.0
        vals[-1] = 0.0
        x = primal(sp, vals)
        y = mapd.value(x)
        # move mass 1e-4 from the first coordinate to the last, which is off
        # the face of the sign pattern of x: the value stays on the sphere
        moved = y.values.copy()
        moved[0] -= np.sign(moved[0]) * 1e-4
        moved[-1] = 1e-4
        assert _certified(mapd, x, y)
        assert not _certified(mapd, x, primal(sp, moved))


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
def test_projection_gap_reads_the_norm_of_a_point_as_a_vector(p):
    # the ball's feasibility test takes the row norm of y's values, a
    # one-dimensional row; at a radius whose slack ends exactly at the
    # vector norm of y, y is inside, so its gap is finite
    sp = lp_space(p, 5)
    for peak in (1e-200, 1.0, 1e200):
        y = primal(sp, peak * np.array([0.25, -0.75, 0.5, -1.0, 0.0]))
        ny = norm(y)
        radius = ny / (1.0 + INSIDE_SLACK)
        while radius * (1.0 + INSIDE_SLACK) > ny:
            radius = np.nextafter(radius, 0.0)
        while np.nextafter(radius, np.inf) * (1.0 + INSIDE_SLACK) <= ny:
            radius = np.nextafter(radius, np.inf)
        mapd = ball_projection_map(sp, float(radius))
        assert projection_gap(mapd, y, y) < np.inf
        assert projection_gap(ball_projection_map(sp, ny / 2.0), y, y) == np.inf


GAP_MAPS = [ball_projection_map(lp_space(p, 4), 1.0) for p in (1.5, 2.0, 3.0, 6.0)] + [
    cone_projection_map(lp_space(3.0, 4)),
    cone_projection_map(l1_space(4)),
    l1_ball_projection_map(l1_space(4), 1.0),
]


@given(
    st.sampled_from(GAP_MAPS),
    st.lists(entry, min_size=4, max_size=4),
    st.lists(entry, min_size=4, max_size=4),
    st.floats(min_value=0.0, max_value=1.0),
)
# x - y has a subnormal norm, whose reciprocal overflows
@example(mapd=GAP_MAPS[4], xvals=[0.0] * 4, yvals=[0.0, 0.0, 0.0, 2.225073858507203e-309], shrink=0.0)
# x lies outside the l_1 ball but inside its sphere band, where value(x) is x
@example(mapd=GAP_MAPS[6], xvals=[1.0 / 3.0] * 3 + [8.001170540235475e-13], yvals=[0.0] * 4, shrink=0.0)
def test_projection_gap_never_certifies_more_than_the_distance(mapd, xvals, yvals, shrink):
    # weak duality: the bound the gap subtracts is at most dist(x, C), so the
    # gap of any member y is at least ||x - y|| - dist(x, C)
    x = primal(mapd.space, xvals)
    y = primal(mapd.space, np.abs(yvals) if mapd.radius is None else yvals)
    if mapd.radius is not None and norm(y) > 0.0:
        y = (shrink * mapd.radius / norm(y)) * y
    nearest = mapd.value(x)
    if mapd.radius is not None and norm(x) > mapd.radius:
        # the radial point (r / ||x||) x is a nearest point of a ball in every
        # norm; the maps' sphere band keeps x itself within SPHERE_BAND of it
        nearest = (mapd.radius / norm(x)) * x
    dist = norm(x - nearest)
    assert projection_gap(mapd, x, y) >= norm(x - y) - dist - 1e-15 * max(1.0, norm(x))


def test_a_member_has_gap_zero():
    members = [
        (ball_projection_map(L24, 1.0), [0.3, -0.2]),
        (ball_projection_map(lp_space(3.0, 3), 2.0), [1.0, -1.2, 0.5]),
        (cone_projection_map(lp_space(1.5, 3)), [0.0, 1.0, 2.0]),
        (cone_projection_map(l1_space(3)), [0.0, 1.0, 2.0]),
        (l1_ball_projection_map(l1_space(3), 1.0), [0.2, -0.3, 0.1]),
    ]
    for mapd, values in members:
        x = primal(mapd.space, values)
        assert projection_gap(mapd, x, x) == 0.0


def test_projection_map_validation():
    with pytest.raises(ValueError):
        ball_projection_map(l1_space(3), 1.0)
    with pytest.raises(ValueError):
        l1_ball_projection_map(lp_space(2, 3), 1.0)
    with pytest.raises(ValueError):
        ball_projection_map(lp_space(2, 3), -1.0)
    with pytest.raises(ValueError):
        poly_projection_map(lp_space(2, 3), 1)
    # a point off the cone is no candidate for its own nearest point
    cone = cone_projection_map(l1_space(3))
    outside = primal(l1_space(3), [0, -1, 2])
    assert projection_gap(cone, outside, outside) == np.inf
    # an affine map projects onto no set
    sp = lp_space(2, 3)
    with pytest.raises(ValueError, match="affine"):
        projection_gap(affine_map(sp, primal(sp, [0, 0, 0])), primal(sp, [2, 0, 0]), primal(sp, [1, 0, 0]))


ORACLE_CASES = [
    *[
        pytest.param(ball_projection_map(lp_space(p, 3), 1.0), [1.2, -0.9, 0.4], id=f"ball-p{p}")
        for p in (1.5, 2.0, 3.0)
    ],
    pytest.param(cone_projection_map(lp_space(3.0, 3)), [0.7, -1.1, 0.2], id="cone-Lp"),
    pytest.param(cone_projection_map(l1_space(3)), [-0.3, 0.8, -1.4], id="cone-L1"),
    pytest.param(l1_ball_projection_map(l1_space(3), 1.0), [1.1, -0.6, 0.3], id="l1_ball"),
]

POLY_CASES = [
    pytest.param(poly_projection_map(C513, n), np.sin(3 * C513.grid) + C513.grid**3, id=f"poly{n}")
    for n in (0, 1, 2)
]


def _forbid_the_closed_forms(monkeypatch):
    def closed_form(*args):
        raise AssertionError("the oracle evaluated the map's closed form")

    monkeypatch.setattr(MapDescriptor, "value", closed_form)
    monkeypatch.setattr(MapDescriptor, "value_batch", closed_form)


@pytest.mark.parametrize("mapd, values", ORACLE_CASES)
def test_projection_gap_never_evaluates_the_map(mapd, values, monkeypatch):
    x = primal(mapd.space, values)
    y = mapd.value(x)
    expected = projection_gap(mapd, x, y)
    _forbid_the_closed_forms(monkeypatch)
    assert projection_gap(mapd, x, y) == expected


@pytest.mark.parametrize("mapd, values", POLY_CASES)
def test_poly_bracket_never_evaluates_the_map(mapd, values, monkeypatch):
    f = primal(mapd.space, values)
    res = chebyshev.remez(f, mapd.degree)
    expected = poly_bracket(f, mapd, res.discrete_reference, res.discrete_polynomial)
    _forbid_the_closed_forms(monkeypatch)
    assert poly_bracket(f, mapd, res.discrete_reference, res.discrete_polynomial) == expected


@pytest.mark.parametrize("mapd, values", POLY_CASES)
def test_poly_oracle_raises_when_the_lp_fails(mapd, values, monkeypatch):
    # the polynomial oracle of the tests is the grid linear program
    def failed(*args, **kwargs):
        return scipy.optimize.OptimizeResult(success=False, status=4, message="numerical difficulties")

    monkeypatch.setattr(scipy.optimize, "linprog", failed)
    with pytest.raises(RuntimeError, match="numerical difficulties"):
        grid_lp.minimax_lp(mapd.space, mapd.degree, values)


def test_projection_gap_refuses_a_polynomial_class():
    f = primal(C513, C513.grid**3)
    with pytest.raises(ValueError, match="poly_bracket"):
        projection_gap(poly_projection_map(C513, 2), f, f)


def _bracket(f, n):
    res = chebyshev.remez(f, n)
    return res, poly_bracket(f, poly_projection_map(f.space, n), res.discrete_reference, res.discrete_polynomial)


@pytest.mark.parametrize("n", range(9))
def test_poly_bracket_lower_bound_is_below_the_grid_lp(n):
    # weak duality: the linear program's polynomial is feasible, so its
    # error is at least the grid optimum, which lb bounds from below
    rng = np.random.default_rng([n, 513])
    for _ in range(10):
        f = _random_smooth(C513, rng)
        _, (lb, ub) = _bracket(f, n)
        assert lb <= grid_lp.lp_error(C513, n, f.values)
        assert (ub - lb) / max(1.0, lb) <= chebyshev.REMEZ_TOL


@pytest.mark.parametrize("n", [0, 1, 2])
def test_poly_bracket_opens_when_one_coefficient_moves(n):
    f = _random_smooth(C513, np.random.default_rng([n, 7]))
    res, (lb, ub) = _bracket(f, n)
    assert (ub - lb) / max(1.0, lb) <= chebyshev.REMEZ_TOL
    mapd = poly_projection_map(C513, n)
    for k in range(n + 1):
        for delta in (1e-6, -1e-6):
            coeffs = list(res.discrete_polynomial.coefficients)
            coeffs[k] += delta
            lb2, ub2 = poly_bracket(f, mapd, res.discrete_reference, chebyshev.Polynomial(tuple(coeffs)))
            assert (ub2 - lb2) / max(1.0, lb2) > chebyshev.REMEZ_TOL


def test_the_bracket_check_fails_when_the_discrete_polynomial_moves(monkeypatch):
    remez = chebyshev.remez

    def moved(f, n, **kwargs):
        res = remez(f, n, **kwargs)
        coeffs = (res.discrete_polynomial.coefficients[0] + 1e-6,) + res.discrete_polynomial.coefficients[1:]
        return dataclasses.replace(res, discrete_polynomial=chebyshev.Polynomial(coeffs))

    monkeypatch.setattr(chebyshev, "remez", moved)
    report = run_experiment(resolve_config("remez_theorem_5_4"))
    assert [c.name for c in report.checks if not c.passed] == ["discrete bracket closes"]


@pytest.mark.parametrize("n", [0, 2, 5])
def test_poly_bracket_of_a_polynomial_is_zero_up_to_rounding(n):
    space = c01_space(513)
    mapd = poly_projection_map(space, n)
    f = chebyshev.Polynomial(tuple(np.random.default_rng(n).normal(size=n + 1))).on_grid(space)
    res, (lb, ub) = _bracket(f, n)
    assert res.iterations == 0
    assert ub <= 1e-12 * (1.0 + np.max(np.abs(f.values)))  # the class test's bound
    weights, residual = chebyshev.annihilator(space.grid[list(res.discrete_reference)], n)
    assert lb <= residual * np.sum(np.abs(res.discrete_polynomial.coefficients))
    zero = primal(space, np.zeros(space.grid_size))
    assert _bracket(zero, n)[1] == (0.0, 0.0)
    assert poly_bracket(zero, mapd, res.discrete_reference, chebyshev.Polynomial((0.0,))) == (0.0, 0.0)


def test_poly_bracket_rejects_bad_input():
    mapd = poly_projection_map(C513, 1)
    f = primal(C513, C513.grid**2)
    line = chebyshev.Polynomial((0.0, 1.0))
    for nodes in ([0, 256], [0, 256, 256], [0, 300, 200], [-1, 5, 9], [0, 5, 513]):
        with pytest.raises(ValueError):
            poly_bracket(f, mapd, nodes, line)
    with pytest.raises(ValueError):
        poly_bracket(f, mapd, [0, 256, 512], chebyshev.Polynomial((0.0, 0.0, 1.0)))
    with pytest.raises(ValueError):
        poly_bracket(f, ball_projection_map(L24, 1.0), [0, 256, 512], line)
    with pytest.raises(ValueError):
        poly_bracket(f, poly_projection_map(c01_space(33), 1), [0, 16, 32], line)
    assert poly_bracket(f, mapd, [0, 256, 512], line) == pytest.approx((0.125, 0.25))
