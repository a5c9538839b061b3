import numpy as np
import pytest

from projderiv.coderivatives import (
    BoundaryCaseError,
    CoderivativeSet,
    OracleOnlyError,
    affine_map,
    ball_projection_map,
    coderiv_affine,
    coderiv_ball_lp,
    coderiv_cone_l2,
    coderiv_cone_lp_at_origin,
    coderiv_cone_lp_theta_membership,
    coderiv_l1ball,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
    zm_index_set,
)
from projderiv.fixed_points import ORACLE_ONLY, characterize
from projderiv.limsup_oracle import (
    GraphPoint,
    SamplingSchedule,
    Verdict,
    membership_test,
)
from projderiv.spaces import (
    DualVector,
    IndexSet,
    PrimalVector,
    c01_space,
    dual,
    dual_norm,
    duality_map,
    duality_map_l1_selection,
    l1_space,
    lp_space,
    norm,
    primal,
)

L24 = lp_space(2.0, 4)
L26 = lp_space(2.0, 6)


def test_affine_coderivative():
    shift = primal(L24, [1, 0, 0, 0])
    for lam, w, expected in (
        (1.0, [1, 2, 0, 0], [1, 2, 0, 0]),
        (0.0, [3, -1, 2, 5], [0, 0, 0, 0]),
        (2.0, [1, 0, 0, 0], [2, 0, 0, 0]),
    ):
        mapd = affine_map(L24, shift, lam)
        out = coderiv_affine(mapd, PrimalVector.zero(L24), dual(L24, w))
        assert out.kind == "singleton"
        assert np.allclose(out.point.values, expected)


def test_affine_identity_operator(rng):
    mapd = affine_map(L24, primal(L24, [0.2, 0, 0, 0]), 1.0)
    for _ in range(20):
        w = dual(L24, rng.normal(size=4))
        out = coderiv_affine(mapd, PrimalVector.zero(L24), w)
        assert np.array_equal(out.point.values, w.values)


def test_affine_scale_two_oracle_cross_check():
    sp = lp_space(2.0, 2)
    mapd = affine_map(sp, primal(sp, [0.3, 0.1]), 2.0)
    base = GraphPoint.at_point(mapd, primal(sp, [0.1, -0.2]))
    w = dual(sp, [1.0, 0.0])
    image = coderiv_affine(mapd, base.x, w).point
    sched = SamplingSchedule(seed=5)
    est = membership_test(mapd, base, image, w, sched)
    assert est.verdict == Verdict.MEMBER
    est_bad = membership_test(mapd, base, w, w, sched)
    assert est_bad.verdict == Verdict.NON_MEMBER


def test_ball_coderivative_cases():
    interior = primal(L24, [0.1, 0.2, 0, 0])
    w = dual(L24, [5, -1, 0, 0])
    out = coderiv_ball_lp(interior, 1.0, w)
    assert np.array_equal(out.point.values, w.values)

    sp2 = lp_space(2.0, 2)
    x = primal(sp2, [2, 0])
    perp = coderiv_ball_lp(x, 1.0, dual(sp2, [0, 1]))
    assert np.allclose(perp.point.values, [0, 0.5], atol=1e-15)
    collapse = coderiv_ball_lp(x, 1.0, duality_map(x))
    assert dual_norm(collapse.point) <= 1e-12


def test_ball_coderivative_collapse_random(rng):
    for p in (2.0, 3.0):
        sp = lp_space(p, 4)
        for _ in range(15):
            x = primal(sp, rng.normal(size=4))
            x = (rng.uniform(1.2, 3.0) / norm(x)) * x
            r = rng.uniform(0.3, 1.0)
            out = coderiv_ball_lp(x, r, duality_map(x))
            assert dual_norm(out.point) <= 1e-12 * (1 + norm(x) ** 2)


def test_ball_boundary_uncovered():
    x = primal(lp_space(2.0, 2), [0.6, 0.8])
    with pytest.raises(BoundaryCaseError):
        coderiv_ball_lp(x, 1.0, dual(lp_space(2.0, 2), [1, 0]))


@pytest.mark.parametrize("offset", [-4e-13, 4e-13], ids=["inside", "outside"])
@pytest.mark.parametrize("radius", [1.0, 2.0])
@pytest.mark.parametrize("family", ["ball", "l1_ball"])
def test_points_near_the_sphere_count_as_on_it(family, radius, offset):
    # one predicate decides the sphere for the value, the branch test, the
    # fixed-point set and the closed forms
    if family == "ball":
        space = lp_space(3.0, 3)
        mapd, coderiv = ball_projection_map(space, radius), coderiv_ball_lp
    else:
        space = l1_space(3)
        mapd, coderiv = l1_ball_projection_map(space, radius), coderiv_l1ball
    x = primal(space, [radius + offset, 0.0, 0.0])
    assert abs(norm(x) - radius) <= 5e-13
    assert np.array_equal(mapd.value(x).values, x.values)
    assert mapd.same_branch(x, 0.5 * x)
    assert mapd.same_branch(0.5 * x, x)
    assert characterize(mapd, GraphPoint.at_point(mapd, x)).kind == ORACLE_ONLY
    with pytest.raises(BoundaryCaseError):
        coderiv(x, radius, dual(space, [1.0, 0.0, 0.0]))


def test_zm_index_set():
    assert zm_index_set(primal(L24, [1, 2, 0, 0])).members == frozenset({1, 2})
    assert zm_index_set(primal(L24, [1, -0.5, 0, 0])) is None
    assert zm_index_set(primal(L24, [0, 0, 0, 0])).members == frozenset()


def test_cone_l2_cases():
    xbar = primal(L24, [1, 2, 0, 0])
    m_set = IndexSet(frozenset({1, 2}), 4)
    out = coderiv_cone_l2(xbar, m_set, DualVector.zero(L24))
    assert out.kind == "singleton" and dual_norm(out.point) == 0.0

    boundary_y = dual(L24, [5, -1, 1, 0])
    out2 = coderiv_cone_l2(xbar, m_set, boundary_y)
    assert out2.kind == "singleton"
    assert np.array_equal(out2.point.values, boundary_y.values)

    y = dual(L24, [5, -1, 1, 1])
    slice_set = coderiv_cone_l2(xbar, m_set, y)
    assert slice_set.kind == "cone_slice"
    assert slice_set.membership(dual(L24, [5, -1, 0.5, 1]))
    assert not slice_set.membership(dual(L24, [4, -1, 0.5, 1]))

    with pytest.raises(OracleOnlyError):
        coderiv_cone_l2(xbar, m_set, dual(L24, [0, 0, -1, 1]))
    with pytest.raises(ValueError):
        coderiv_cone_l2(primal(L24, [1, -1, 0, 0]), m_set, y)
    with pytest.raises(ValueError):
        coderiv_cone_l2(primal(lp_space(3.0, 4), [1, 2, 0, 0]), m_set, y)


def test_cone_slice_membership_monotone(rng):
    xbar = primal(L26, [1, 2, 0, 0, 0, 0])
    m_set = IndexSet(frozenset({1, 2}), 6)
    y = dual(L26, [3, -1, 2, 1, 0.5, 0.25])
    slice_set = coderiv_cone_l2(xbar, m_set, y)
    for _ in range(30):
        z = np.array(y.values)
        z[2:] *= rng.uniform(0, 1, size=4)
        assert slice_set.membership(dual(L26, z))
        smaller = np.array(z)
        smaller[2:] *= rng.uniform(0, 1, size=4)
        assert slice_set.membership(dual(L26, smaller))


def test_cone_lp_theta_membership():
    sp = lp_space(3.0, 4)
    f_neg = primal(sp, [-1, -2, 0, -0.5])
    phi_pos = dual(sp, [1, 0, 2, 0.5])
    assert coderiv_cone_lp_theta_membership(f_neg, phi_pos)
    f_pos = primal(sp, [1, 0.5, 0, 0])
    assert not coderiv_cone_lp_theta_membership(f_pos, duality_map(f_pos))
    assert coderiv_cone_lp_theta_membership(f_pos, DualVector.zero(sp))


def test_cone_lp_order_interval():
    sp = lp_space(3.0, 3)
    psi = dual(sp, [1, 2, 0])
    interval = coderiv_cone_lp_at_origin(psi)
    assert interval.kind == "order_interval"
    assert interval.membership(dual(sp, [0.5, 2, 0]))
    assert not interval.membership(dual(sp, [1.1, 0, 0]))
    degenerate = coderiv_cone_lp_at_origin(DualVector.zero(sp))
    assert degenerate.membership(DualVector.zero(sp))
    assert not degenerate.membership(dual(sp, [0.1, 0, 0]))
    with pytest.raises(ValueError):
        coderiv_cone_lp_at_origin(dual(sp, [-0.1, 1, 0]))


def test_order_interval_membership_monotone(rng):
    sp = lp_space(3.0, 4)
    psi = dual(sp, [1, 2, 0.5, 3])
    interval = coderiv_cone_lp_at_origin(psi)
    for _ in range(30):
        z = psi.values * rng.uniform(0, 1, size=4)
        assert interval.membership(dual(sp, z))
        assert interval.membership(dual(sp, z * rng.uniform(0, 1)))


def test_l1_ball_coderivative_cases():
    sp = l1_space(4)
    interior = primal(sp, [0.2, -0.1, 0.05, 0])
    phi = dual(sp, [1, -1, 0, 0])
    out = coderiv_l1ball(interior, 1.0, phi)
    assert np.array_equal(out.point.values, phi.values)

    exterior = primal(sp, [1.0, 0.75, 0.5, 0.25])
    out2 = coderiv_l1ball(exterior, 1.0, DualVector.zero(sp))
    assert out2.kind == "singleton" and dual_norm(out2.point) == 0.0
    jx = duality_map_l1_selection(exterior)
    assert coderiv_l1ball(exterior, 1.0, jx).kind == "empty"

    with pytest.raises(OracleOnlyError):
        coderiv_l1ball(exterior, 1.0, phi)
    not_positive = primal(sp, [2.0, 0, 0, 0])
    with pytest.raises(OracleOnlyError):
        coderiv_l1ball(not_positive, 1.0, jx)
    with pytest.raises(BoundaryCaseError):
        coderiv_l1ball(primal(sp, [0.5, 0.5, 0, 0]), 1.0, phi)


def test_map_descriptor_values_and_graph(rng):
    sp = lp_space(2.0, 3)
    maps = [
        affine_map(sp, primal(sp, [0.1, -0.2, 0.3]), 1.7),
        ball_projection_map(sp, 1.0),
        cone_projection_map(sp),
    ]
    l1sp = l1_space(3)
    maps.append(l1_ball_projection_map(l1sp, 1.0))
    for mapd in maps:
        space = mapd.space
        rows = rng.normal(size=(12, 3)) * 1.5
        batch = mapd.value_batch(rows)
        for i in range(12):
            x = primal(space, rows[i])
            single = mapd.value(x)
            assert np.allclose(batch[i], single.values, atol=1e-14)
            assert mapd.graph_contains(x, single)
            assert not mapd.graph_contains(x, single + primal(space, [0.3, 0, 0]))


def test_poly_map_descriptor():
    C513 = c01_space(513)
    mapd = poly_projection_map(C513, 1)
    f = primal(C513, C513.grid**2)
    y = mapd.value(f)
    assert mapd.graph_contains(f, y)
    assert abs(np.max(np.abs(f.values - y.values)) - 0.125) <= 1e-9


def test_singleton_outputs_pass_oracle(rng):
    """Closed-form singleton values are oracle members across the families."""
    sched = SamplingSchedule(seed=11)
    sp = lp_space(2.0, 4)
    shift = primal(sp, [0.4, -0.1, 0.2, 0.0])
    checked = 0
    for i in range(12):
        lam = rng.uniform(-2, 2)
        mapd = affine_map(sp, shift, lam)
        base = GraphPoint.at_point(mapd, primal(sp, rng.normal(size=4)))
        w = dual(sp, rng.normal(size=4))
        image = coderiv_affine(mapd, base.x, w).point
        est = membership_test(mapd, base, image, w, sched)
        assert est.verdict == Verdict.MEMBER
        checked += 1
    for i in range(12):
        p = 2.0 if i % 2 == 0 else 3.0
        spp = lp_space(p, 4)
        mapd = ball_projection_map(spp, 1.0)
        x = primal(spp, rng.normal(size=4))
        x = (rng.uniform(2.5, 3.5) / norm(x)) * x
        base = GraphPoint.at_point(mapd, x)
        w = dual(spp, rng.normal(size=4))
        w = (rng.uniform(0.5, 1.5) / dual_norm(w)) * w
        image = coderiv_ball_lp(x, 1.0, w).point
        est = membership_test(mapd, base, image, w, sched)
        assert est.verdict == Verdict.MEMBER
        checked += 1
    l1sp = l1_space(4)
    mapd = l1_ball_projection_map(l1sp, 1.0)
    for i in range(6):
        x = primal(l1sp, rng.normal(size=4) * 0.15)
        base = GraphPoint.at_point(mapd, x)
        phi = dual(l1sp, rng.normal(size=4))
        image = coderiv_l1ball(x, 1.0, phi).point
        est = membership_test(mapd, base, image, phi, sched)
        assert est.verdict == Verdict.MEMBER
        checked += 1
    cone = cone_projection_map(L26)
    xbar = primal(L26, [1, 2, 0, 0, 0, 0])
    cone_base = GraphPoint.at_point(cone, xbar)
    m_set = IndexSet(frozenset({1, 2}), 6)
    for i in range(6):
        y = rng.normal(size=6) * 2.0
        y[2:] = np.abs(y[2:])
        y[2 + int(rng.integers(0, 4))] = 0.0  # off-support zero: singleton {y}
        yd = dual(L26, y)
        out = coderiv_cone_l2(xbar, m_set, yd)
        assert out.kind == "singleton"
        est = membership_test(cone, cone_base, out.point, yd, sched)
        assert est.verdict == Verdict.MEMBER
        checked += 1
    assert checked == 36


def test_coderivative_set_validation():
    sp = lp_space(2.0, 2)
    with pytest.raises(ValueError):
        CoderivativeSet("singleton", sp)
    with pytest.raises(ValueError):
        CoderivativeSet(
            "order_interval", sp, lower=dual(sp, [1, 1]), upper=dual(sp, [0, 0])
        )
    with pytest.raises(ValueError):
        CoderivativeSet("whole_dual", sp)
    empty = CoderivativeSet("empty", sp)
    assert not empty.membership(DualVector.zero(sp))
