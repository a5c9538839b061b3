import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from projderiv import chebyshev
from projderiv.chebyshev import (
    Polynomial,
    RemezConvergenceError,
    _alternating_extrema,
    _bareiss_determinant,
    _leveled_solves,
    _trim_reference,
    an_determinant,
    an_recursive,
    chebyshev_points,
    coefficient_bound,
    coeffs_from_values,
    compare_determinants,
    continuity_experiment,
    derivative_coefficient_bound,
    remez,
    remez_rows,
    sample_value,
)
from grid_lp import lp_error
from projderiv.spaces import PrimalVector, c01_space, norm, primal

C513 = c01_space(513)


def quintic(t):
    return t**5 - 2 * t**4 + 2 * t**2 - t


def test_a2_matches_quintic():
    for t in np.linspace(0.03, 0.97, 20):
        assert abs(an_determinant(float(t), 2) - quintic(t)) <= 1e-12
        assert quintic(t) < 0


def test_a2_exact_rational():
    assert an_determinant(Fraction(1, 2), 2) == Fraction(-3, 32)
    assert an_determinant(0.5, 2) == -3 / 32
    assert an_recursive(0.5, 2) == -3 / 32


def test_determinant_vanishes_at_endpoints():
    assert an_determinant(0.0, 2) == 0.0
    assert an_determinant(1.0, 3) == 0.0


def test_an_degree_guard():
    with pytest.raises(ValueError):
        an_determinant(0.5, 9)
    with pytest.raises(ValueError):
        an_recursive(0.5, 0)


def test_recursive_matches_quintic_symbolically():
    for t in np.linspace(0.05, 0.95, 20):
        assert abs(an_recursive(float(t), 2) - quintic(t)) <= 1e-12


def test_direct_vs_recursive_agreement():
    report = compare_determinants(3, np.linspace(0.01, 0.99, 100))
    assert report.max_rel_diff <= 1e-9
    assert all(v != 0.0 for v in report.direct_values)


@given(st.integers(min_value=1, max_value=5), st.floats(min_value=0.01, max_value=0.99))
def test_direct_vs_recursive_property(n, t):
    d = an_determinant(t, n)
    r = an_recursive(t, n)
    assert abs(d - r) <= 1e-9 * max(abs(d), abs(r))
    assert d != 0.0


# Gaussian elimination with partial pivoting in Fraction arithmetic, the
# determinant before integer Bareiss elimination, kept as the reference that
# an_determinant must reproduce exactly: a float is promoted to a Fraction
# and the exact value rounded once.
def _partial_pivot_determinant(m):
    det = m[0][0] ** 0
    size = len(m)
    for col in range(size):
        piv = max(range(col, size), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            return det * 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            m[r] = [m[r][j] - factor * m[col][j] for j in range(size)]
    return det


def _an_determinant_fractions(t, n):
    if isinstance(t, float):
        return float(_an_determinant_fractions(Fraction(t), n))
    return _partial_pivot_determinant([[t ** (i * j) for j in range(n + 1)] for i in range(n + 1)])


EXACT_DETERMINANT_POINTS = [0.0, 1.0, 0.5, -0.7, 1.3, 1e-300, 5e-324]


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_elimination_matches_the_fraction_elimination_bit_for_bit(n, rng):
    floats = (
        EXACT_DETERMINANT_POINTS
        + np.linspace(0.01, 0.99, 100).tolist()
        + rng.uniform(-1.5, 1.5, size=16).tolist()
    )
    for t in floats:
        value = an_determinant(t, n)
        assert type(value) is float
        assert value == _an_determinant_fractions(t, n), t
    for t in (Fraction(1, 2), Fraction(3, 10)):
        value = an_determinant(t, n)
        assert type(value) is Fraction
        assert value == _an_determinant_fractions(t, n)


def test_every_real_type_is_evaluated_exactly():
    # a float32 is promoted exactly and rounded once, not eliminated in float32
    t32 = np.float32(0.3)
    value = an_determinant(t32, 3)
    assert type(value) is float
    assert value == float(_an_determinant_fractions(Fraction(*t32.as_integer_ratio()), 3))
    assert abs(value - 0.0022385912526) <= 1e-13
    assert an_determinant(np.float64(0.3), 3) == _an_determinant_fractions(0.3, 3)
    # an integer gives the exact Fraction, not a float division
    for t in (2, np.int64(2)):
        value = an_determinant(t, 2)
        assert type(value) is Fraction
        assert value == _an_determinant_fractions(Fraction(2), 2) == an_recursive(Fraction(2), 2)


def test_bareiss_swaps_rows_at_a_zero_pivot():
    # the leading pivot is zero, then the second after one step of elimination
    for m in ([[0, 1], [1, 0]], [[0, 2, 1], [3, 1, 4], [1, 5, 9]], [[1, 2, 3], [2, 4, 7], [1, 3, 5]]):
        expected = _partial_pivot_determinant([[Fraction(x) for x in row] for row in m])
        assert _bareiss_determinant([list(row) for row in m]) == expected
    assert _bareiss_determinant([[1, 2, 3], [2, 4, 7], [1, 3, 5]]) == -1
    assert _bareiss_determinant([[0, 1], [0, 2]]) == 0  # no nonzero pivot below


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(-2, 2), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
)
def test_bareiss_matches_the_fraction_elimination_on_small_integer_matrices(m):
    expected = _partial_pivot_determinant([[Fraction(x) for x in row] for row in m])
    assert _bareiss_determinant([list(row) for row in m]) == expected


def test_coeffs_from_values_examples():
    assert coeffs_from_values([2.0, 1.5]).coefficients == (1.0, 1.0)
    p = coeffs_from_values([1.0, 0.25, 0.0625])
    assert np.allclose(p.coefficients, [0, 0, 1], atol=1e-12)


@given(st.integers(min_value=1, max_value=5), st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_coeffs_roundtrip(n, raw):
    coeffs = tuple(raw[: n + 1])
    poly = Polynomial(coeffs)
    nodes = 0.5 ** np.arange(n + 1)
    rebuilt = coeffs_from_values(poly(nodes))
    scale = max(1.0, max(abs(c) for c in coeffs))
    assert max(
        abs(a - b) for a, b in zip(rebuilt.coefficients, coeffs)
    ) <= 1e-9 * scale


def test_coefficient_bound_values():
    assert abs(coefficient_bound(1.0, 2) - 64 / 3) <= 1e-12
    assert abs(coefficient_bound(1.0, 1) - 2.0) <= 1e-12
    assert abs(derivative_coefficient_bound(1.0, 2) - 256 / 3) <= 1e-10
    assert abs(derivative_coefficient_bound(1.0, 1) - 2.0) <= 1e-12


def test_bounds_hold_on_random_polynomials(rng):
    grid = np.linspace(0, 1, 513)
    for n in (1, 2, 3):
        cb = coefficient_bound(1.0, n)
        db = derivative_coefficient_bound(1.0, n)
        for _ in range(60):
            coeffs = rng.normal(size=n + 1)
            peak = np.max(np.abs(Polynomial(tuple(coeffs))(grid)))
            if peak == 0:
                continue
            poly = Polynomial(tuple(coeffs / peak))
            assert all(abs(c) <= cb for c in poly.coefficients)
            assert np.max(np.abs(poly.derivative()(grid))) <= db


@pytest.mark.parametrize("n", range(12))
def test_polynomial_values_and_derivative_are_numpys_bit_for_bit(n):
    # one evaluator: `Polynomial.__call__` is the batched Horner of
    # `horner_rows`, which repeats the operations of numpy's polyval, and the
    # derivative's coefficients are polyder's j * a_j
    rng = np.random.default_rng(n)
    for g in (2, 33, 513, 4097):
        coeffs = rng.normal(size=n + 1) * 10.0 ** rng.uniform(-5, 5, size=n + 1)
        poly = Polynomial(tuple(coeffs))
        for t in (np.linspace(0.0, 1.0, g), rng.uniform(-1.0, 2.0, size=(3, 4)), float(rng.uniform())):
            got, want = poly(t), npoly.polyval(t, poly.coefficients)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        want = npoly.polyder(poly.coefficients) if n else np.zeros(1)
        assert np.array(poly.derivative().coefficients).tobytes() == want.tobytes()


def test_importing_the_package_leaves_numpy_polynomial_out():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, projderiv.cli; sys.exit('numpy.polynomial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_remez_squared_ramp():
    f = primal(C513, C513.grid**2)
    res = remez(f, 1)
    assert abs(res.error - 0.125) <= 1e-9
    assert np.allclose(res.polynomial.coefficients, [-0.125, 1.0], atol=1e-9)
    assert np.allclose(res.reference, [0.0, 0.5, 1.0], atol=1e-3)


def test_remez_polynomial_short_circuit():
    poly = Polynomial((0.3, -1.2, 0.7))
    f = poly.on_grid(C513)
    res = remez(f, 2)
    assert res.error <= 1e-12
    assert res.iterations == 0
    assert np.max(np.abs(res.polynomial(C513.grid) - poly(C513.grid))) <= 1e-11


def test_remez_best_constant_for_vee():
    f = primal(C513, np.abs(C513.grid - 0.5))
    res = remez(f, 0)
    assert abs(res.error - 0.25) <= 1e-12
    assert abs(res.polynomial.coefficients[0] - 0.25) <= 1e-12


def test_remez_shift_by_constant():
    f = primal(C513, C513.grid**2)
    base = remez(f, 1).polynomial(C513.grid)
    shifted = remez(primal(C513, f.values + 0.7), 1).polynomial(C513.grid)
    assert np.max(np.abs(shifted - (base + 0.7))) <= 1e-9


def _random_smooth(rng, scale=1.0, space=C513):
    grid = space.grid
    vals = rng.normal() * grid + rng.normal()
    for k in range(1, 6):
        vals = vals + rng.normal() * np.sin(np.pi * k * grid) / k
    peak = np.max(np.abs(vals))
    return primal(space, vals * (scale / peak))


def test_equioscillation_certificate(rng):
    for trial in range(6):
        n = (1, 2, 3)[trial % 3]
        f = _random_smooth(rng)
        res = remez(f, n)
        assert len(res.reference) == n + 2
        assert all(res.reference[i] < res.reference[i + 1] for i in range(n + 1))
        resid = np.array(res.reference_values) - res.polynomial(np.array(res.reference))
        tol = 1e-9 * (1 + res.error)
        assert np.all(np.abs(np.abs(resid) - res.error) <= tol)
        signs = np.sign(resid)
        assert all(signs[i] == -signs[i + 1] for i in range(n + 1))


def test_level_history_monotone(rng):
    for trial in range(4):
        f = _random_smooth(rng)
        res = remez(f, 2)
        levels = np.array(res.level_history)
        assert np.all(np.diff(levels) >= -1e-12)


def test_remez_matches_the_grid_lp_oracle(rng):
    for n in range(9):
        f = _random_smooth(rng)
        res = remez(f, n)
        assert abs(res.error - lp_error(C513, n, f.values)) <= 1e-3


def test_remez_nonconvergence_surfaces_trace(monkeypatch):
    f = primal(C513, np.sin(7 * C513.grid) + C513.grid**3)
    monkeypatch.setattr(chebyshev, "REMEZ_MAX_ITERATIONS", 1)
    with pytest.raises(RemezConvergenceError) as err:
        remez(f, 2)
    assert len(err.value.trace) == 1
    assert err.value.trace[0] > 0


TARGETS_WITH_FEW_SIGN_RUNS = {
    "runge": lambda t: 1.0 / (1.0 + 25.0 * (2.0 * t - 1.0) ** 2),
    "vee": lambda t: np.abs(t - 0.5),
}


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
@pytest.mark.parametrize("target", sorted(TARGETS_WITH_FEW_SIGN_RUNS))
def test_remez_matches_the_minimax_lp_when_the_residual_has_few_sign_runs(target, n):
    # early residuals of these targets can have fewer than n + 2 sign runs,
    # where the exchange has to fall back to the single exchange
    grid = C513.grid
    values = TARGETS_WITH_FEW_SIGN_RUNS[target](grid)
    res = remez(primal(C513, values), n)
    assert abs(res.error - lp_error(C513, n, values)) <= 1e-4


def test_sample_value_exact_at_nodes():
    f = primal(C513, np.sin(3 * C513.grid))
    for j in (0, 7, 256, 512):
        assert sample_value(f, float(C513.grid[j])) == f.values[j]


@pytest.mark.parametrize("grid_size", [2, 3, 5, 513])
def test_sample_value_is_exact_at_every_node(grid_size):
    space = c01_space(grid_size)
    values = np.sin(3 * space.grid) + 0.25
    f = PrimalVector(space, values)
    for j, t in enumerate(space.grid):
        assert sample_value(f, float(t)) == values[j]


def test_a_constant_on_two_nodes_reports_its_own_values():
    res = remez(primal(c01_space(2), [0.7, 0.7]), 0)
    assert res.iterations == 0
    assert res.reference == (0.0, 1.0)
    assert res.reference_values == (0.7, 0.7)
    assert res.residual_signs == (1, -1)
    assert res.polynomial.coefficients[0] == pytest.approx(0.7, abs=1e-15)


def test_continuity_zero_direction():
    f = primal(C513, C513.grid**2)
    report = continuity_experiment(f, 1, perturbations=6, g=PrimalVector.zero(C513))
    assert all(d == 0.0 for d in report.deviations)
    assert report.tail_ok and report.final_ok


def test_continuity_polynomial_shift_bound():
    f = primal(C513, 0.3 + 0.5 * C513.grid)
    g = primal(C513, 0.02 - 0.01 * C513.grid)
    report = continuity_experiment(f, 1, perturbations=8, g=g)
    for m, d in enumerate(report.deviations, start=1):
        assert d <= 2 * norm(g) / m + 1e-12


def test_continuity_random(rng):
    f = _random_smooth(rng)
    report = continuity_experiment(f, 2, perturbations=32, seed=5)
    assert report.tail_ok
    assert report.final_ok


def test_chebyshev_points_endpoints():
    pts = chebyshev_points(4)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)


# Loop versions of the exchange helpers, kept as the reference that the
# vectorized run split and the heap-based trim must reproduce exactly.
def _alternating_extrema_loop(residual):
    signs = np.sign(residual)
    last = 1.0
    carried = np.empty_like(signs)
    for i, s in enumerate(signs):
        if s != 0.0:
            last = s
        carried[i] = last
    candidates = []
    start = 0
    for i in range(1, carried.size + 1):
        if i == carried.size or carried[i] != carried[start]:
            run = np.arange(start, i)
            candidates.append(int(run[np.argmax(np.abs(residual[run]))]))
            start = i
    return candidates


def _trim_reference_loop(candidates, residual, target):
    picked = list(candidates)
    while len(picked) > target:
        if len(picked) - target == 1:
            if abs(residual[picked[0]]) <= abs(residual[picked[-1]]):
                picked.pop(0)
            else:
                picked.pop()
            continue
        mags = [abs(residual[j]) for j in picked]
        k = int(np.argmin(mags))
        if 0 < k < len(picked) - 1:
            left, right = picked[k - 1], picked[k + 1]
            keep = left if abs(residual[left]) >= abs(residual[right]) else right
            picked[k - 1 : k + 2] = [keep]
        else:
            picked.pop(k)
    return picked


# a few magnitudes make ties common; both signed zeros appear
tie_prone = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.one_of(tie_prone, st.floats(-3, 3)), min_size=2, max_size=40),
)
@example(0, [0.0] * 9)  # all zero
@example(0, [0.5, 2.0, 0.0, 2.0, 1.0])  # one sign, tied peaks
@example(0, [-1.0, 1.0])  # length 2
@example(0, [2.0, -2.0])
@example(4, [-1.0, 1.0, -0.0, 1.0, -1.0])  # leading zero run
def test_run_split_and_trim_match_the_loop_versions(leading_zeros, values):
    residual = np.array([0.0] * leading_zeros + values)
    candidates = _alternating_extrema(residual)
    assert candidates == _alternating_extrema_loop(residual)
    for target in range(1, len(candidates) + 1):
        assert _trim_reference(candidates, residual, target) == _trim_reference_loop(
            candidates, residual, target
        )


# The levelled system as built before its columns were kept per degree and
# its rows stacked: the reference that each row of _leveled_solves must
# reproduce exactly at any degree.
def _leveled_solve_rebuilt(points, values, n):
    count = points.size
    system = np.zeros((count, count))
    system[:, : n + 1] = points[:, None] ** np.arange(n + 1)[None, :]
    system[:, n + 1] = (-1.0) ** np.arange(count)
    sol = np.linalg.solve(system, values)
    return Polynomial(tuple(sol[: n + 1])), float(sol[n + 1])


@pytest.mark.parametrize("n", [0, 1, 5, 40, 70])
def test_leveled_solve_matches_the_rebuilt_system_bit_for_bit(n, rng):
    nodes = chebyshev_points(n + 2)
    spread = np.sort(rng.uniform(0.0, 1.0, size=n + 2))
    for stack in ([nodes], [spread, nodes], [nodes, spread, nodes]):
        points = np.array(stack)
        values = np.sin(3.0 * points) + points**2
        coefs, levels, errors = _leveled_solves(points, values, n)
        assert coefs.shape == (len(stack), n + 1) and levels.shape == (len(stack),) and not errors
        for row, (coef, level) in enumerate(zip(coefs, levels)):
            ref_poly, ref_level = _leveled_solve_rebuilt(points[row], values[row], n)
            assert coef.tobytes() == np.array(ref_poly.coefficients).tobytes()
            assert np.float64(level).tobytes() == np.float64(ref_level).tobytes()


def test_a_singular_system_fails_only_its_own_row():
    # the first and last equation of the middle system are the same
    points = np.array([[0.0, 0.5, 1.0], [0.5, 0.5, 0.5], [0.1, 0.4, 0.9]])
    values = points**2
    coefs, levels, errors = _leveled_solves(points, values, 1)
    assert list(errors) == [1] and isinstance(errors[1], np.linalg.LinAlgError)
    assert np.isnan(coefs[1]).all() and np.isnan(levels[1])
    for row in (0, 2):
        ref_poly, ref_level = _leveled_solve_rebuilt(points[row], values[row], 1)
        assert coefs[row].tobytes() == np.array(ref_poly.coefficients).tobytes()
        assert levels[row] == ref_level


def test_remez_certificate_with_hundreds_of_sign_runs():
    space = c01_space(4097)
    rng = np.random.default_rng(7)
    f = primal(space, np.sin(3 * space.grid) + 0.5 * rng.standard_normal(space.grid.size))
    for n in (1, 3, 5):
        res = remez(f, n)
        assert len(_alternating_extrema(f.values - res.polynomial(space.grid))) >= 200
        assert len(res.reference) == n + 2
        assert all(res.reference[i] < res.reference[i + 1] for i in range(n + 1))
        resid = np.array(res.reference_values) - res.polynomial(np.array(res.reference))
        assert np.all(np.abs(np.abs(resid) - res.error) <= 1e-9 * (1 + res.error))
        signs = np.sign(resid)
        assert all(signs[i] == -signs[i + 1] for i in range(n + 1))


@pytest.mark.parametrize("grid_size", [513, 4097])
@pytest.mark.parametrize(
    "target, degrees",
    [("squared_ramp", (0, 1)), ("random_smooth", (1, 2, 3))],
    ids=["squared_ramp", "random_smooth"],
)
def test_remez_solves_each_reference_once(target, degrees, grid_size, monkeypatch):
    # each stacked system is keyed by its points and values; the values tell
    # the rows of a batch apart, so a repeated key is a row that solved one
    # reference twice
    space = c01_space(grid_size)
    rng = np.random.default_rng(grid_size)
    leveled_solves = chebyshev._leveled_solves
    solved = []

    def counted(points, values, n):
        solved.extend((p.tobytes(), v.tobytes()) for p, v in zip(points, values))
        return leveled_solves(points, values, n)

    monkeypatch.setattr(chebyshev, "_leveled_solves", counted)
    for n in degrees:
        if target == "squared_ramp":
            rows = [space.grid**2, space.grid**2 + 0.5 * space.grid**3]
        else:
            rows = [_random_smooth(rng, space=space).values for _ in range(3)]
        solved.clear()
        fits = remez_rows(space, np.array(rows), n)
        assert solved, "the exchange made no levelled solve"
        assert len(set(solved)) == len(solved), "a reference was solved twice"
        assert all(fit.iterations == len(fit.level_history) for fit in fits)


def test_grid_is_built_once_and_read_only():
    space = c01_space(1025)
    grid = space.grid
    assert space.grid is grid
    assert not grid.flags.writeable
    assert grid.tobytes() == np.linspace(0.0, 1.0, 1025).tobytes()
    with pytest.raises(ValueError):
        grid[0] = 1.0


def test_equal_specs_stay_equal_after_one_builds_its_grid():
    built, fresh = c01_space(257), c01_space(257)
    built.grid
    assert built == fresh
    assert hash(built) == hash(fresh)
    assert len({built, fresh}) == 1


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_power_matrix_is_the_grid_power_expression_built_once(n):
    space = c01_space(513)
    vander = chebyshev._grid_powers(space, n)[0]
    assert vander is chebyshev._grid_powers(c01_space(513), n)[0]
    assert not vander.flags.writeable
    expected = space.grid[:, None] ** np.arange(n + 1)[None, :]
    assert vander.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_power_basis_is_an_orthonormal_basis_of_the_power_matrix_built_once(n):
    space = c01_space(513)
    vander, basis = chebyshev._grid_powers(space, n)
    assert basis is chebyshev._grid_powers(c01_space(513), n)[1]
    assert not basis.flags.writeable
    assert np.max(np.abs(basis.T @ basis - np.eye(n + 1))) <= 1e-12
    assert np.max(np.abs(vander - basis @ (basis.T @ vander))) <= 1e-12


def test_remez_runs_lstsq_only_for_inputs_near_the_class(rng, monkeypatch):
    lstsq = np.linalg.lstsq
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    for n in (0, 2, 4):
        remez(_random_smooth(rng), n)
    assert calls == []
    res = remez(Polynomial((0.3, -1.2, 0.7)).on_grid(C513), 2)
    assert res.iterations == 0 and calls == [(513, 3)]


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_remez_exposes_its_discrete_grid_solution(n, rng):
    f = _random_smooth(rng)
    res = remez(f, n)
    idx = np.array(res.discrete_reference)
    assert idx.size == n + 2 and np.all(np.diff(idx) > 0)
    assert res.discrete_polynomial.degree == n
    # the discrete polynomial levels the residual on its reference, with
    # alternating signs, at the grid sup of the residual
    resid = f.values[idx] - res.discrete_polynomial(C513.grid[idx])
    level = np.max(np.abs(f.values - res.discrete_polynomial(C513.grid)))
    assert np.all(np.abs(np.abs(resid) - level) <= 1e-9 * (1 + level))
    assert np.all(np.sign(resid[1:]) == -np.sign(resid[:-1]))
    assert res.error >= level - chebyshev.REMEZ_TOL * max(1.0, level)
