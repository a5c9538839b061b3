import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

import grid_lp
from projderiv import chebyshev
from projderiv.coderivatives import (
    MapDescriptor,
    affine_map,
    ball_projection_map,
    cone_projection_map,
    l1_ball_projection_map,
    l1_projection_set_contains,
    poly_projection_map,
)
from projderiv.experiments import _random_smooth, resolve_config, run_experiment
from projderiv.projections import brute_force_project, poly_bracket
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
def test_brute_force_never_evaluates_the_map(mapd, values, monkeypatch):
    x = primal(mapd.space, values)
    expected = brute_force_project(x, mapd, resolution=8, seed=3)
    _forbid_the_closed_forms(monkeypatch)
    assert np.array_equal(brute_force_project(x, mapd, resolution=8, seed=3).values, expected.values)


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
        grid_lp.minimax_lp(mapd.space.power_matrix(mapd.degree), values)


def test_brute_force_refuses_a_polynomial_class():
    with pytest.raises(ValueError, match="poly_bracket"):
        brute_force_project(primal(C513, C513.grid**3), poly_projection_map(C513, 2))


def _bracket(f, n):
    res = chebyshev.remez(f, n)
    return res, poly_bracket(f, poly_projection_map(f.space, n), res.discrete_reference, res.discrete_polynomial)


@pytest.mark.parametrize("n", range(9))
def test_poly_bracket_lower_bound_is_below_the_grid_lp(n):
    # weak duality: the linear program's polynomial is feasible, so its
    # error is at least the grid optimum, which lb bounds from below
    rng = np.random.default_rng([n, 513])
    vander = C513.power_matrix(n)
    for _ in range(10):
        f = _random_smooth(C513, rng)
        _, (lb, ub) = _bracket(f, n)
        assert lb <= grid_lp.lp_error(vander, f.values)
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
