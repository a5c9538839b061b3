"""`remez_rows` against the one-row exchange it replaced, bit for bit."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from projderiv import chebyshev
from projderiv.chebyshev import (
    KIND_C01,
    Polynomial,
    RemezConvergenceError,
    RemezResult,
    _alternating_extrema,
    _grid_powers,
    _polish_point,
    _single_exchange,
    _trim_reference,
    chebyshev_points,
    remez,
    remez_rows,
)
from projderiv.coderivatives import poly_projection_map
from projderiv.spaces import c01_space, primal


# The one-row exchange as it was before the rows were stacked, kept as the
# reference that remez_rows must reproduce in every field. It shares the
# per-row helpers (run split, trim, single exchange, polish point), which
# have loop references of their own in test_chebyshev.py, and it evaluates
# its polynomials by numpy's polyval.
def _leveled_solve_one(points, values, n):
    system = np.empty((n + 2, n + 2))
    system[:, : n + 1] = points[:, None] ** np.arange(n + 1)
    system[:, n + 1] = (-1.0) ** np.arange(n + 2)
    sol = np.linalg.solve(system, values)
    return Polynomial(tuple(sol[: n + 1])), float(sol[n + 1])


def _sample_value_three_nodes(f, t):
    grid = f.space.grid
    g = grid.size
    h = 1.0 / (g - 1)
    j = int(round(float(t) * (g - 1)))
    j = min(max(j, 1), g - 2)
    t0, t1, t2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = f.values[j - 1], f.values[j], f.values[j + 1]
    d = float(t)
    l0 = (d - t1) * (d - t2) / (2 * h * h)
    l1 = -(d - t0) * (d - t2) / (h * h)
    l2 = (d - t0) * (d - t1) / (2 * h * h)
    return float(f0 * l0 + f1 * l1 + f2 * l2)


def _remez_one_row(f, n, max_iterations=chebyshev.REMEZ_MAX_ITERATIONS):
    assert f.space.kind == KIND_C01
    grid = f.space.grid
    g = grid.size
    fv = f.values
    scale = 1.0 + float(np.max(np.abs(fv)))
    ref_idx = sorted({int(round(t * (g - 1))) for t in chebyshev_points(n + 2)})
    k = 0
    while len(ref_idx) < n + 2:
        if k not in ref_idx:
            ref_idx.append(k)
            ref_idx.sort()
        k += 1
    vander, basis = _grid_powers(f.space, n)
    if np.max(np.abs(fv - basis @ (basis.T @ fv))) <= 1e-9 * scale:
        ls_coef, *_ = np.linalg.lstsq(vander, fv, rcond=None)
        ls_resid = fv - vander @ ls_coef
        if np.max(np.abs(ls_resid)) <= 1e-12 * scale:
            ref = chebyshev_points(n + 2)
            poly = Polynomial(tuple(ls_coef))
            return RemezResult(
                polynomial=poly,
                error=float(np.max(np.abs(ls_resid))),
                reference=tuple(float(t) for t in ref),
                reference_values=tuple(_sample_value_three_nodes(f, t) for t in ref),
                residual_signs=tuple(int(s) for s in (-1.0) ** np.arange(n + 2)),
                iterations=0,
                level_history=(),
                discrete_reference=tuple(ref_idx),
                discrete_polynomial=poly,
            )
    history = []
    poly = None
    level = 0.0
    solved = None
    for _ in range(1, max_iterations + 1):
        poly, level = solved or _leveled_solve_one(grid[ref_idx], fv[ref_idx], n)
        solved = None
        history.append(abs(level))
        residual = fv - npoly.polyval(grid, poly.coefficients)
        max_resid = float(np.max(np.abs(residual)))
        if max_resid - abs(level) <= chebyshev.REMEZ_TOL * max(1.0, abs(level)):
            break
        candidates = _alternating_extrema(residual)
        if len(candidates) < n + 2:
            ref_idx = _single_exchange(ref_idx, residual)
            continue
        new_idx = _trim_reference(candidates, residual, n + 2)
        if new_idx == ref_idx:
            break
        trial = _leveled_solve_one(grid[new_idx], fv[new_idx], n)
        if abs(trial[1]) >= abs(level) - 1e-14 * scale:
            ref_idx, solved = new_idx, trial
        else:
            ref_idx = _single_exchange(ref_idx, residual)
    else:
        raise RemezConvergenceError(f"no convergence in {max_iterations} iterations", tuple(history))
    discrete_reference, discrete_polynomial = tuple(ref_idx), poly
    ref_pts = [float(grid[j]) for j in ref_idx]
    ref_vals = [float(fv[j]) for j in ref_idx]
    residual = fv - npoly.polyval(grid, poly.coefficients)
    polished_pts, polished_vals = [], []
    for j in ref_idx:
        t_star = _polish_point(grid, residual, j)
        if t_star is None:
            polished_pts.append(float(grid[j]))
            polished_vals.append(float(fv[j]))
        else:
            polished_pts.append(t_star)
            polished_vals.append(_sample_value_three_nodes(f, t_star))
    order = np.argsort(polished_pts)
    polished_pts = [polished_pts[i] for i in order]
    polished_vals = [polished_vals[i] for i in order]
    if len(set(polished_pts)) == n + 2:
        polished = np.array([polished_pts, polished_vals])
        if polished.tobytes() == np.array([ref_pts, ref_vals]).tobytes():
            poly2, level2 = poly, level
        else:
            poly2, level2 = _leveled_solve_one(polished[0], polished[1], n)
        if abs(level2) >= abs(level) - chebyshev.REMEZ_TOL * max(1.0, abs(level)):
            poly, level = poly2, abs(level2)
            ref_pts, ref_vals = polished_pts, polished_vals
            history.append(abs(level2))
    level = abs(level)
    resid_at_ref = np.array(ref_vals) - npoly.polyval(np.array(ref_pts), poly.coefficients)
    return RemezResult(
        polynomial=poly,
        error=float(level),
        reference=tuple(ref_pts),
        reference_values=tuple(ref_vals),
        residual_signs=tuple(int(s) if s != 0 else 1 for s in np.sign(resid_at_ref)),
        iterations=len(history),
        level_history=tuple(history),
        discrete_reference=discrete_reference,
        discrete_polynomial=discrete_polynomial,
    )


def _bits(x):
    return np.array(x, dtype=float).tobytes()


def assert_same_result(got, want):
    for name in ("polynomial", "discrete_polynomial"):
        assert _bits(getattr(got, name).coefficients) == _bits(getattr(want, name).coefficients), name
    for name in ("error", "reference", "reference_values", "level_history"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert type(got.error) is float
    assert all(type(x) is float for x in got.reference + got.reference_values + got.level_history)
    for name in ("residual_signs", "iterations", "discrete_reference"):
        assert getattr(got, name) == getattr(want, name), name


def _smooth_rows(space, rng, count):
    grid = space.grid
    rows = []
    for _ in range(count):
        vals = rng.normal() * grid + rng.normal()
        for k in range(1, 6):
            vals = vals + rng.normal() * np.sin(np.pi * k * grid) / k
        rows.append(vals / np.max(np.abs(vals)))
    return rows


def _mixed_batch(space, n, rng):
    """Smooth rows, a row already in the class between them, the Runge and
    |t - 0.5| targets (few sign runs: single exchanges), and a noisy target
    with hundreds of sign runs."""
    grid = space.grid
    smooth = _smooth_rows(space, rng, 4)
    in_class = Polynomial(tuple(rng.normal(size=n + 1)))(grid)
    runge = 1.0 / (1.0 + 25.0 * (2.0 * grid - 1.0) ** 2)
    noisy = np.sin(3 * grid) + 0.5 * rng.standard_normal(grid.size)
    return np.array(smooth[:2] + [in_class] + smooth[2:] + [runge, np.abs(grid - 0.5), noisy])


@pytest.mark.parametrize("grid_size", [33, 513, 4097])
def test_remez_rows_matches_the_one_row_exchange_bit_for_bit(grid_size, monkeypatch):
    space = c01_space(grid_size)
    rng = np.random.default_rng(grid_size)
    single = []
    exchange = chebyshev._single_exchange
    monkeypatch.setattr(chebyshev, "_single_exchange", lambda *a: single.append(1) or exchange(*a))
    iterations = set()
    for n in range(9):
        rows = _mixed_batch(space, n, rng)
        got = remez_rows(space, rows, n)
        assert len(got) == len(rows)
        for row, fit in zip(rows, got):
            assert_same_result(fit, _remez_one_row(primal(space, row), n))
            iterations.add(fit.iterations)
    # the batches hold rows already in the class, rows that converge at
    # different iterations, and rows that take the single exchange
    assert 0 in iterations and len(iterations) >= 4
    assert single


def test_remez_rows_of_an_empty_batch_is_empty():
    space = c01_space(33)
    assert remez_rows(space, np.empty((0, 33)), 2) == []


def test_remez_is_remez_rows_over_one_row(rng):
    space = c01_space(513)
    f = primal(space, _smooth_rows(space, rng, 1)[0])
    assert_same_result(remez(f, 3), remez_rows(space, f.values[None, :], 3)[0])


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)], ids=["sine_first", "cosine_first"])
def test_remez_rows_raises_with_the_first_failing_rows_trace(order, monkeypatch):
    space = c01_space(513)
    grid = space.grid
    # an in-class row that takes no iteration, then two rows that do not
    # converge in one iteration, each with a trace of its own
    rows = np.array([0.3 - 1.2 * grid, np.sin(7 * grid) + grid**3, np.cos(5 * grid) + 2.0 * grid**4])[list(order)]
    traces = []
    for row in rows[1:]:
        with pytest.raises(RemezConvergenceError) as err:
            _remez_one_row(primal(space, row), 2, max_iterations=1)
        traces.append(err.value.trace)
    assert traces[0] != traces[1]
    monkeypatch.setattr(chebyshev, "REMEZ_MAX_ITERATIONS", 1)
    with pytest.raises(RemezConvergenceError) as got:
        remez_rows(space, rows, 2)
    assert str(got.value) == "no convergence in 1 iterations"
    assert got.value.trace == traces[0]


@pytest.mark.parametrize("grid_size", [33, 4097])
def test_the_polynomial_maps_values_are_the_one_row_fits_on_the_grid(grid_size):
    space = c01_space(grid_size)
    rows = _mixed_batch(space, 2, np.random.default_rng(5))
    values = poly_projection_map(space, 2).value_batch(rows)
    assert values.shape == rows.shape
    for row, value in zip(rows, values):
        want = npoly.polyval(space.grid, _remez_one_row(primal(space, row), 2).polynomial.coefficients)
        assert value.tobytes() == want.tobytes()
    assert poly_projection_map(space, 2).value_batch(np.empty((0, grid_size))).shape == (0, grid_size)


@pytest.mark.parametrize("first", ["non_finite", "no_convergence"])
def test_a_non_finite_row_fails_in_row_order(first, monkeypatch):
    space = c01_space(513)
    grid = space.grid
    bad = np.where(grid < 0.5, grid, np.nan)
    slow = np.sin(7 * grid) + grid**3
    rows = np.array([grid**2, bad, slow] if first == "non_finite" else [grid**2, slow, bad])
    expected = ValueError if first == "non_finite" else RemezConvergenceError
    monkeypatch.setattr(chebyshev, "REMEZ_MAX_ITERATIONS", 1)
    with pytest.raises(expected):
        remez_rows(space, rows, 2)
