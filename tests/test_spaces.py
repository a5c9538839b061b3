import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import reference_oracle as ref
from projderiv.spaces import (
    DualVector,
    IndexSet,
    PrimalVector,
    SpaceMismatchError,
    atomic_measure,
    c01_space,
    dual,
    dual_norm,
    duality_map,
    duality_map_inverse,
    duality_map_l1_selection,
    l1_space,
    lp_space,
    norm,
    norm_rows,
    norming_direction,
    pairing,
    pairing_rows,
    pairing_stack,
    primal,
)

L23 = lp_space(2.0, 2)
C101 = c01_space(101)


def test_norm_examples():
    assert norm(primal(l1_space(3), [2, 1, 0])) == 3.0
    assert norm(primal(L23, [3, 4])) == 5.0
    f = primal(C101, C101.grid**2)
    assert norm(f) == 1.0


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("peak", [1.8e-240, 1e-160, 1e160, 1e250])
def test_lp_norms_outside_the_power_range(p, peak):
    # sum(|v|^p) under- or overflows at the extremes; the norm must still scale
    space = lp_space(p, 4)
    vals = np.array([0.0, 0.0, 3.0, 4.0]) * (peak / 4.0)
    expected = peak / 4.0 * float(np.sum(np.array([3.0, 4.0]) ** p) ** (1.0 / p))
    assert norm(primal(space, vals)) == pytest.approx(expected, rel=1e-12)
    assert dual_norm(dual(space, vals)) == pytest.approx(
        peak / 4.0 * float(np.sum(np.array([3.0, 4.0]) ** space.q) ** (1.0 / space.q)), rel=1e-12
    )
    plain = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 0.0, 0.0, 0.0]])
    rows = norm_rows(space, np.vstack([plain, vals]))
    assert rows[2] == pytest.approx(expected, rel=1e-12)
    assert rows[1] == 0.0
    assert rows[0] == np.sum(np.abs(plain[0]) ** p) ** (1.0 / p)
    assert norm(PrimalVector.zero(space)) == dual_norm(DualVector.zero(space)) == 0.0


def _stack_spaces():
    rng = np.random.default_rng(17)
    c33 = c01_space(33)
    atoms = atomic_measure(c33, [(0.0, 1.5), (0.25, -2.0), (0.5, 0.75), (1.0, -0.5)])
    cases = []
    for space, w in (
        (lp_space(2.0, 16), None),
        (lp_space(3.0, 6), None),
        (l1_space(16), None),
        (c33, atoms),
    ):
        if w is None:
            w = dual(space, rng.normal(size=space.size))
        cases.append((space, w))
    return cases


@pytest.mark.parametrize("space, w", _stack_spaces(), ids=["Lp p=2", "Lp p=3", "L1", "C01 atoms"])
@pytest.mark.parametrize("k, m", [(1, 10), (3, 10), (5, 7), (2, 64)])
def test_row_functions_reduce_over_the_last_axis_of_a_stack(space, w, k, m):
    # a (k, m, size) stack gives each 2-D slice's result, bit for bit
    stack = np.random.default_rng(k * 100 + m).normal(size=(k, m, space.size))
    stack[0, 0] = 0.0
    if space.kind == "Lp":
        stack[-1, -1] *= 1e-200  # the rescaled branch of the p-norm
    norms, pairs = norm_rows(space, stack), pairing_rows(w, stack)
    assert norms.shape == pairs.shape == (k, m)
    assert np.array_equal(norms, np.stack([norm_rows(space, rows) for rows in stack]))
    assert np.array_equal(pairs, np.stack([pairing_rows(w, rows) for rows in stack]))
    assert norms[0, 0] == 0.0 and norms[-1, -1] > 0.0


@pytest.mark.parametrize("space, w", _stack_spaces(), ids=["Lp p=2", "Lp p=3", "L1", "C01 atoms"])
@pytest.mark.parametrize("m", [1, 7, 9, 21])
def test_stacked_pairings_are_the_per_dual_pairings_bit_for_bit(space, w, m):
    """`pairing_stack` of m duals equals `pairing_rows` of each dual against
    its block, bit for bit: on (levels, rows, size) sample blocks shared by
    every dual, and on (rays, steps, size) ray blocks, shared or one per
    dual. C01 duals pair over their own atoms only, so a run of them must
    not be paired over a shared support; each takes its own product."""
    rng = np.random.default_rng(m)
    duals = [w] + [dual(space, rng.normal(size=space.size) * (w.values != 0)) for _ in range(m - 1)]
    if m > 1:
        duals[1] = DualVector.zero(space)
    stacked = np.stack([v.values for v in duals])
    for shape in ((8, 64), (1, 1), (5, 3), (12, 10)):
        shared = rng.normal(size=(*shape, space.size))
        pairs = pairing_stack(space, stacked, shared[None])
        assert pairs.shape == (m, *shape)
        for v, got in zip(duals, pairs):
            assert np.array_equal(got, pairing_rows(v, shared))
        own = rng.normal(size=(m, *shape, space.size))
        pairs = pairing_stack(space, stacked, own)
        assert pairs.shape == (m, *shape)
        for v, block, got in zip(duals, own, pairs):
            assert np.array_equal(got, pairing_rows(v, block))


def _sweep_spaces():
    return [lp_space(p, d) for d in (1, 2, 7, 64, 100) for p in (1.5, 2.0, 3.0)] + [
        l1_space(d) for d in (1, 16, 100)
    ] + [c01_space(g) for g in (33, 513, 4097)]


@pytest.mark.parametrize("space", _sweep_spaces(), ids=lambda s: f"{s.kind} size={s.size} p={s.p}")
def test_pairing_and_pairing_rows_are_slices_of_pairing_stack(space):
    # one pairing formula: a vector pairing and the rows of any leading
    # shape are the one-dual `pairing_stack`, bit for bit, and so are the
    # products they replaced (np.dot and a matrix-vector product, over the
    # atoms of a measure)
    rng = np.random.default_rng(space.size)
    for _ in range(20):
        if space.kind == "C01":
            w = np.zeros(space.size)
            atoms = rng.choice(space.size, size=int(rng.integers(1, 9)), replace=False)
            w[atoms] = rng.normal(size=atoms.size)
        else:
            w = rng.normal(size=space.size) * 10.0 ** rng.uniform(-3, 3)
        idx = np.flatnonzero(w) if space.kind == "C01" else slice(None)
        v = rng.normal(size=space.size)
        got = pairing(dual(space, w), primal(space, v))
        assert np.float64(got).tobytes() == pairing_stack(space, w[None], v[None, None])[0, 0].tobytes()
        assert np.float64(got).tobytes() == np.dot(w[idx], v[idx]).tobytes()
        for shape in ((), (1,), (5,), (3, 4), (2, 1, 6)):
            rows = rng.normal(size=(*shape, space.size))
            block = rows.reshape(1, -1, space.size) if len(shape) < 2 else rows[None]
            got = pairing_rows(dual(space, w), rows)
            assert got.shape == shape
            assert got.tobytes() == pairing_stack(space, w[None], block)[0].tobytes()
            assert got.tobytes() == (rows[..., idx] @ w[idx]).tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
def test_row_norms_keep_the_bits_of_the_power_sum_and_its_rescaled_fallback(p):
    # peaks 0, 1e-310 and 1e-200 underflow the power sum and 1e200 overflows
    # it for some p, so each dimension of input reaches the fallback; the
    # power is raised in place on a fresh array, never on the input
    space = lp_space(p, 5)
    vals = np.array([0.5, -1.0, 0.0, 0.25, -0.75])
    peaks = [0.0, 1e-310, 1e-200, 1e200, 1.0, 3.0]
    rows = np.stack([peak * np.roll(vals, k) for k, peak in enumerate(peaks)])
    inputs = [*rows, rows, rows.reshape(2, 3, 5)]
    # arrays that mix zero rows with rows that do and do not need rescaling:
    # only the latter are rescaled, and each row keeps its own bits
    mixed = [0.0, 1e-310, 1.0, 1e200, 0.0, 1.0]
    for order in (mixed, mixed[::-1], [0.0, 1.0, 0.0, 1.0, 1e-310, 1e200]):
        stack = np.stack([peak * np.roll(vals, k) for k, peak in enumerate(order)])
        inputs += [stack, stack.reshape(3, 2, 5), stack[[0, 2, 4]]]
    for array in inputs:
        before = array.copy()
        array.flags.writeable = False
        norms = norm_rows(space, array)
        # the one-vector formula on each row
        reference = np.array([ref.lp_norm(row, p) for row in before.reshape(-1, 5)]).reshape(before.shape[:-1])
        assert norms.shape == reference.shape == array.shape[:-1]
        assert np.array_equal(norms, reference)
        assert np.array_equal(array, before)
        if array.ndim > 1:
            single = [norm_rows(space, row[None])[0] for row in before.reshape(-1, 5)]
            assert np.array_equal(norms.reshape(-1), single)
    norms = norm_rows(space, rows)
    assert norms[0] == 0.0 and norms[1] > 0.0


@pytest.mark.parametrize(
    "space",
    [pytest.param(lp_space(p, 5), id=str(p)) for p in (1.5, 2.0, 3.0, 6.0)]
    + [pytest.param(l1_space(5), id="L1"), pytest.param(c01_space(5), id="C01")],
)
def test_a_one_dimensional_row_has_the_norm_of_its_vector(space):
    # reduced on its own, a (size,) row would end in a numpy scalar, whose
    # `**` rounds differently from the array `**` of a row of an array: at
    # p = 3 the 1e-200 row below read 1.1603972084031948e-200 that way,
    # against ...946e-200 as a vector and as a row of a (1, 5) array. A
    # vector's norm is the row norm of a row of one in every space, and it
    # keeps the bits of the one-vector formula.
    for peak in (0.0, 1e-310, 1e-200, 1.0, 1e200):
        vals = peak * np.array([0.25, -0.75, 0.5, -1.0, 0.0])
        flat = norm_rows(space, vals)
        assert np.shape(flat) == ()
        assert flat == norm_rows(space, vals[None, :])[0] == norm(primal(space, vals))
        assert flat == ref.norm(space, vals)


NORM_SPACES = [lp_space(p, 5) for p in (1.5, 2.0, 3.0, 6.0)] + [l1_space(5), c01_space(5)]


@pytest.mark.parametrize("space", NORM_SPACES, ids=lambda s: f"{s.kind} p={s.p}")
@pytest.mark.parametrize("peak", [0.0, 1.0, 1e-200, 1e200, 1e-310])
def test_norms_are_computed_once_per_vector_and_keep_the_formula_bits(space, peak):
    # 1e-200, 1e200 and 1e-310 reach the rescaled branch of the p-norm for
    # some p; 0.0 is the origin
    vals = np.array([0.5, -1.0, 0.0, 0.25, -0.75]) * peak
    primal_formula, dual_formula = ref.norm(space, vals), ref.dual_norm(space, vals)
    v, w = primal(space, vals), dual(space, vals)
    assert norm(v) == primal_formula and dual_norm(w) == dual_formula
    assert norm(v) is norm(v) and dual_norm(w) is dual_norm(w)
    # each norm keeps its own value, on the same vector too
    assert norm(w) == primal_formula and dual_norm(v) == dual_formula
    if space.kind == "Lp" and space.p != 2.0 and peak == 1.0:
        assert norm(v) != dual_norm(v)


def test_dual_norm_examples():
    assert dual_norm(dual(l1_space(3), [1, -3, 2])) == 3.0
    mu = atomic_measure(C101, [(0, 1), (0.5, -2), (1, 1)])
    assert dual_norm(mu) == 4.0
    assert dual_norm(dual(L23, [3, 4])) == 5.0


def test_pairing_examples():
    assert pairing(dual(lp_space(2, 3), [1, 0, 2]), primal(lp_space(2, 3), [3, 1, 1])) == 5.0
    f = primal(C101, C101.grid**2)
    assert pairing(atomic_measure(C101, [(1.0, 1.0)]), f) == 1.0
    mu = atomic_measure(C101, [(0, 1), (0.5, -2), (1, 1)])
    assert pairing(mu, primal(C101, C101.grid)) == 0.0


def test_pairing_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        pairing(dual(L23, [1, 0]), primal(lp_space(2, 3), [1, 0, 0]))


def test_duality_map_examples():
    v = primal(L23, [1, 2])
    assert np.array_equal(duality_map(v).values, v.values)
    sp3 = lp_space(3.0, 2)
    j = duality_map(primal(sp3, [1, 0]))
    assert np.allclose(j.values, [1, 0])
    j2 = duality_map(primal(sp3, [1, 1]))
    assert np.allclose(j2.values, [2 ** (-1 / 3), 2 ** (-1 / 3)], rtol=1e-14)


def test_duality_map_origin():
    sp3 = lp_space(3.0, 2)
    assert dual_norm(duality_map(PrimalVector.zero(sp3))) == 0.0


def test_l1_selection_examples():
    sp = l1_space(3)
    sel = duality_map_l1_selection(primal(sp, [2, 1, 0]))
    assert dual_norm(sel) != 0.0
    assert np.array_equal(sel.values, [3, 3, 0])
    sel2 = duality_map_l1_selection(primal(l1_space(2), [-1, 0]))
    assert np.array_equal(sel2.values, [-1, 0])
    assert dual_norm(duality_map_l1_selection(PrimalVector.zero(sp))) == 0.0


def test_duality_map_inverse_examples():
    assert np.array_equal(duality_map_inverse(dual(L23, [0, 1])).values, [0, 1])
    sp3 = lp_space(3.0, 2)
    assert np.allclose(duality_map_inverse(dual(sp3, [1, 0])).values, [1, 0])
    assert norm(duality_map_inverse(DualVector.zero(sp3))) == 0.0


finite_entry = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
exponent = st.sampled_from([1.3, 1.5, 2.0, 3.0, 4.0])


@given(exponent, st.lists(finite_entry, min_size=5, max_size=5))
def test_duality_identities(p, vals):
    space = lp_space(p, 5)
    v = primal(space, vals)
    nv = norm(v)
    assume(nv > 1e-3)
    j = duality_map(v)
    assert abs(pairing(j, v) - nv**2) <= 1e-10 * max(1.0, nv**2)
    assert abs(dual_norm(j) - nv) <= 1e-10 * max(1.0, nv)


@given(exponent, st.lists(finite_entry, min_size=5, max_size=5))
def test_duality_inverse_roundtrip(p, vals):
    space = lp_space(p, 5)
    v = primal(space, vals)
    nv = norm(v)
    assume(nv > 1e-3)
    back = duality_map_inverse(duality_map(v))
    assert norm(back - v) <= 1e-9 * max(1.0, nv)


@pytest.mark.parametrize("p", [5000.0, 1.0001])
@pytest.mark.parametrize("scale", [1e-3, 0.5, 1.0, 3.0, 1e3])
def test_duality_maps_at_extreme_exponents(p, scale):
    # |v_i|^(p-1) and ||v||^(p-2) over- or underflow at these p (and their
    # conjugates); both maps must keep their two defining identities
    space = lp_space(p, 4)
    vals = np.array([0.3, -1.2, 0.0, 0.7]) * scale
    v = primal(space, vals)
    j = duality_map(v)
    assert pairing(j, v) == pytest.approx(norm(v) ** 2, rel=1e-9)
    assert dual_norm(j) == pytest.approx(norm(v), rel=1e-9)
    w = dual(space, vals)
    k = duality_map_inverse(w)
    assert pairing(w, k) == pytest.approx(dual_norm(w) ** 2, rel=1e-9)
    assert norm(k) == pytest.approx(dual_norm(w), rel=1e-9)


@given(st.lists(finite_entry, min_size=4, max_size=4))
def test_l1_selection_identities(vals):
    space = l1_space(4)
    v = primal(space, vals)
    nv = norm(v)
    assume(nv > 1e-6)
    sel = duality_map_l1_selection(v)
    scale = max(1.0, nv**2)
    assert abs(pairing(sel, v) - nv**2) <= 1e-12 * scale
    assert abs(dual_norm(sel) - nv) <= 1e-12 * max(1.0, nv)


@given(
    st.lists(finite_entry, min_size=4, max_size=4),
    st.lists(finite_entry, min_size=4, max_size=4),
    st.lists(finite_entry, min_size=4, max_size=4),
    finite_entry,
    finite_entry,
)
def test_pairing_bilinear(wv, v1v, v2v, a, b):
    space = lp_space(2.0, 4)
    w = dual(space, wv)
    v1, v2 = primal(space, v1v), primal(space, v2v)
    lhs = pairing(w, a * v1 + b * v2)
    rhs = a * pairing(w, v1) + b * pairing(w, v2)
    scale = (1 + abs(a) + abs(b)) * (1 + dual_norm(w)) * (1 + norm(v1) + norm(v2))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(exponent, st.lists(finite_entry, min_size=5, max_size=5))
def test_norming_direction_lp(p, vals):
    space = lp_space(p, 5)
    w = dual(space, vals)
    assume(dual_norm(w) > 1e-3)
    g = norming_direction(w)
    assert abs(norm(g) - 1.0) <= 1e-9
    assert abs(pairing(w, g) - dual_norm(w)) <= 1e-9 * (1 + dual_norm(w))


def test_norming_direction_l1_and_atoms():
    w = dual(l1_space(3), [0.5, -2.0, 1.0])
    g = norming_direction(w)
    assert np.array_equal(g.values, [0, -1, 0])
    mu = atomic_measure(C101, [(0, 1), (0.5, -2), (1, 1)])
    h = norming_direction(mu)
    assert norm(h) == 1.0
    assert abs(pairing(mu, h) - dual_norm(mu)) <= 1e-12


def test_atoms_snap_and_reject_duplicates():
    mu = atomic_measure(C101, [(0.2501, 1.0)])
    (node,) = np.flatnonzero(mu.values)
    assert C101.grid[node] == 0.25
    assert abs(C101.grid[node] - 0.2501) <= 0.005
    with pytest.raises(ValueError):
        atomic_measure(C101, [(0.25, 1.0), (0.2501, 2.0)])
    with pytest.raises(ValueError):
        atomic_measure(C101, [(1.2, 1.0)])


def test_vector_validation():
    with pytest.raises(ValueError):
        primal(L23, [1.0, np.nan])
    with pytest.raises(ValueError):
        primal(L23, [1.0])
    with pytest.raises(ValueError):
        lp_space(1.0, 3)
    with pytest.raises(ValueError):
        c01_space(1)


def test_values_immutable():
    v = primal(L23, [1.0, 2.0])
    with pytest.raises(ValueError):
        v.values[0] = 5.0


def test_index_set():
    m = IndexSet(frozenset({1, 2}), 4)
    assert m.complement.members == frozenset({3, 4})
    assert m.mask.tolist() == [True, True, False, False]
    with pytest.raises(ValueError):
        IndexSet(frozenset({0}), 4)


def test_dual_arithmetic_atoms():
    a = atomic_measure(C101, [(0.0, 1.0), (1.0, 2.0)])
    b = atomic_measure(C101, [(1.0, 2.0)])
    diff = a - b
    nodes = np.flatnonzero(diff.values)
    assert list(zip(C101.grid[nodes], diff.values[nodes])) == [(0.0, 1.0)]
    assert dual_norm(2.0 * a) == 6.0


def test_atomic_measure_is_node_weights():
    mu = atomic_measure(C101, [(0.8, -0.5), (0.3049, 2.0), (0.0, 0.25)])
    nodes = np.flatnonzero(mu.values)
    assert nodes.tolist() == [0, 30, 80]
    assert mu.values[nodes].tolist() == [0.25, 2.0, -0.5]
    # dyadic entries keep every atom sum exact in any summation order
    f = primal(C101, 0.5 * np.arange(101))
    atom_sum = 0.25 * f.values[0] + 2.0 * f.values[30] + -0.5 * f.values[80]
    assert pairing(mu, f) == atom_sum == 10.0
    rows = np.stack([f.values, np.arange(101.0) ** 2])
    assert pairing_rows(mu, rows).tolist() == [atom_sum, 2.0 * 900.0 + -0.5 * 6400.0]
    assert dual_norm(mu) == 0.25 + 2.0 + 0.5


def test_primal_and_dual_do_not_mix():
    v = primal(L23, [1.0, 2.0])
    w = dual(L23, [1.0, 2.0])
    with pytest.raises(SpaceMismatchError):
        v + w
    with pytest.raises(SpaceMismatchError):
        w - v
    with pytest.raises(SpaceMismatchError):
        w + dual(lp_space(2.0, 3), [1.0, 2.0, 3.0])
