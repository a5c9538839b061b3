from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projderiv import chebyshev
from projderiv.chebyshev import (
    Polynomial,
    RemezConvergenceError,
    _alternating_extrema,
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
    sample_value,
)
from projderiv.coderivatives import poly_projection_map
from projderiv.projections import _minimax_lp, brute_force_project
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
        oracle = brute_force_project(f, poly_projection_map(C513, n))
        oracle_err = float(np.max(np.abs(f.values - oracle.values)))
        assert abs(res.error - oracle_err) <= 1e-3


def test_remez_nonconvergence_surfaces_trace():
    f = primal(C513, np.sin(7 * C513.grid) + C513.grid**3)
    with pytest.raises(RemezConvergenceError) as err:
        remez(f, 2, max_iterations=1)
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
    vander = grid[:, None] ** np.arange(n + 1)[None, :]
    lp_error = float(np.max(np.abs(values - vander @ _minimax_lp(vander, values))))
    assert abs(res.error - lp_error) <= 1e-4


def test_sample_value_exact_at_nodes():
    f = primal(C513, np.sin(3 * C513.grid))
    for j in (0, 7, 256, 512):
        assert sample_value(f, float(C513.grid[j])) == f.values[j]


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
    space = c01_space(grid_size)
    rng = np.random.default_rng(grid_size)
    leveled_solve = chebyshev._leveled_solve
    solved = []

    def counted(points, values, n):
        solved.append(tuple(points))
        return leveled_solve(points, values, n)

    monkeypatch.setattr(chebyshev, "_leveled_solve", counted)
    for n in degrees:
        f = primal(space, space.grid**2) if target == "squared_ramp" else _random_smooth(rng, space=space)
        solved.clear()
        res = remez(f, n)
        assert solved, "the exchange made no levelled solve"
        assert len(set(solved)) == len(solved), "a reference was solved twice"
        assert res.iterations == len(res.level_history)


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
    vander = space.power_matrix(n)
    assert vander is c01_space(513).power_matrix(n)
    assert not vander.flags.writeable
    expected = space.grid[:, None] ** np.arange(n + 1)[None, :]
    assert vander.tobytes() == expected.tobytes()
