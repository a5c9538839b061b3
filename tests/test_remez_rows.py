"""`remez_rows`, its trims and its sampler against `reference_exchange.py`, bit for bit."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from projderiv import chebyshev
from projderiv.chebyshev import (
    Polynomial,
    RemezConvergenceError,
    _sample_values,
    remez,
    remez_rows,
)
from projderiv.coderivatives import poly_projection_map
from projderiv.experiments import resolve_config, run_experiment
from projderiv.spaces import QUOTIENT_BLOCK, c01_space, primal
from reference_exchange import remez_one_row, sample_value, trim_reference


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
    # a chunk of the grid passes holds QUOTIENT_BLOCK // G rows, 3 at
    # G = 4097: there each batch spans three chunks, and its certificate step
    # takes rows of all three
    for n in range(9):
        rows = _mixed_batch(space, n, rng)
        got = remez_rows(space, rows, n)
        assert len(got) == len(rows)
        for row, fit in zip(rows, got):
            assert_same_result(fit, remez_one_row(primal(space, row), n))
            iterations.add(fit.iterations)
    # the batches hold rows already in the class, rows that converge at
    # different iterations, and rows that take the single exchange
    assert 0 in iterations and len(iterations) >= 4
    assert single


def test_remez_rows_matches_the_one_row_exchange_on_plateaus():
    # steps and small-integer rows leave the residual flat around some
    # reference points: there the polish meets a parabola with no curvature,
    # or a vertex more than one node away, and leaves the point on its node
    for grid_size in (5, 9, 17, 33, 65):
        space = c01_space(grid_size)
        rng = np.random.default_rng(grid_size)
        for n in range(min(grid_size - 1, 7)):
            steps = np.sign(np.sin(rng.uniform(2, 20, (6, 1)) * space.grid + rng.uniform(0, 3, (6, 1))))
            levels = rng.integers(0, 3, size=(6, grid_size)).astype(float)
            rows = np.concatenate([steps, levels])
            for row, fit in zip(rows, remez_rows(space, rows, n)):
                assert_same_result(fit, remez_one_row(primal(space, row), n))


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
            remez_one_row(primal(space, row), 2, max_iterations=1)
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
        want = npoly.polyval(space.grid, remez_one_row(primal(space, row), 2).polynomial.coefficients)
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


@pytest.mark.parametrize("grid_size", [3, 5, 33, 513, 4097])
def test_the_sampler_is_the_scalar_three_node_parabola_and_exact_at_nodes(grid_size):
    space = c01_space(grid_size)
    rng = np.random.default_rng(grid_size)
    values = np.array(_smooth_rows(space, rng, 4))
    t = rng.uniform(0.0, 1.0, size=(4, 16))
    got = _sample_values(space.grid, values, t)
    for row, points, sampled in zip(values, t, got):
        want = [sample_value(primal(space, row), point) for point in points]
        assert sampled.tobytes() == np.array(want).tobytes()
    # a row of values with its own points
    assert _sample_values(space.grid, values[0], t[0]).tobytes() == got[0].tobytes()
    # chosen rows of the values, read in place
    rows = np.array([2, 0, 3])
    assert _sample_values(space.grid, values, t[rows], rows).tobytes() == got[rows].tobytes()
    nodes = np.broadcast_to(space.grid, values.shape)
    assert _sample_values(space.grid, values, nodes).tobytes() == values.tobytes()


def test_a_call_over_several_chunks_raises_the_first_chunks_polish_error(monkeypatch):
    space = c01_space(4097)
    n, budget = 3, 5
    rows = _mixed_batch(space, n, np.random.default_rng(1))
    # three chunks of at most 3 rows: the first row's polish moves its
    # reference, and the noisy last row does not converge within the budget
    assert len(rows) > 2 * (QUOTIENT_BLOCK // space.grid.size)
    first = remez_one_row(primal(space, rows[0]), n, max_iterations=budget)
    assert first.reference != tuple(space.grid[list(first.discrete_reference)])
    with pytest.raises(RemezConvergenceError) as last:
        remez_one_row(primal(space, rows[-1]), n, max_iterations=budget)
    monkeypatch.setattr(chebyshev, "REMEZ_MAX_ITERATIONS", budget)
    with pytest.raises(RemezConvergenceError) as got:
        remez_rows(space, rows, n)
    assert got.value.trace == last.value.trace

    # the polish re-solve, the one solve at off-grid points, fails its first
    # row, which is the call's first row
    singular = np.linalg.LinAlgError("Singular matrix")
    polish_calls = []
    solves = chebyshev._leveled_solves

    def failing_polish(points, values, n):
        coef, level, failed = solves(points, values, n)
        if not np.isin(points, space.grid).all():
            polish_calls.append(points.shape[0])
            failed[0] = singular
        return coef, level, failed

    monkeypatch.setattr(chebyshev, "_leveled_solves", failing_polish)
    with pytest.raises(np.linalg.LinAlgError) as got:
        remez_rows(space, rows, n)
    assert got.value is singular
    # one re-solve for the whole call, over rows of more than one chunk
    assert len(polish_calls) == 1 and polish_calls[0] > QUOTIENT_BLOCK // space.grid.size


def test_the_grid_passes_stay_in_chunks_and_a_rejected_trial_recomputes_its_residual(monkeypatch):
    space = c01_space(4097)
    grid, n = space.grid, 18
    bound = max(QUOTIENT_BLOCK, grid.size)
    rng = np.random.default_rng(n)
    # noisy rows at a degree where a trial solve can lower the level, so
    # some trials are rejected; 14 rows are five chunks of 3 at G = 4097
    rows = np.array([np.sin((k + 1) * grid) + 0.05 * rng.standard_normal(grid.size) for k in range(14)])
    assert len(rows) > 3 * (QUOTIENT_BLOCK // grid.size)
    events = []
    horner, split, solves, single = (
        chebyshev.horner_rows, chebyshev._alternating_extrema, chebyshev._leveled_solves, chebyshev._single_exchange
    )

    def record_horner(coefficients, t):
        out = horner(coefficients, t)
        assert out.size <= bound
        if t.ndim == 1:
            events.append(("horner", coefficients.copy()))
        return out

    def record_split(residual, mags):
        assert residual.size <= bound
        events.append(("split", None))
        return split(residual, mags)

    monkeypatch.setattr(chebyshev, "horner_rows", record_horner)
    monkeypatch.setattr(chebyshev, "_alternating_extrema", record_split)
    monkeypatch.setattr(chebyshev, "_leveled_solves", lambda *a: events.append(("solve", None)) or solves(*a))
    monkeypatch.setattr(chebyshev, "_single_exchange", lambda *a: events.append(("single", None)) or single(*a))
    fits = remez_rows(space, rows, n)
    for row, fit in zip(rows, fits):
        assert_same_result(fit, remez_one_row(primal(space, row), n))

    # An iteration's chunk residuals come between two solves, each chunk's
    # Horner followed by its split. A rejected trial's fallback follows the
    # trial solve: a one-row Horner of the row's coefficients, then the single
    # exchange. The row's chunk is the one whose Horner took those
    # coefficients.
    rejected_in, chunks, iteration = [], [], []
    for (name, data), following in zip(events, [name for name, _ in events[1:]] + [None]):
        if name == "solve" and chunks:
            iteration, chunks = chunks, []
        elif name == "horner" and following == "single":
            rejected_in += [c for c, coefficients in enumerate(iteration) if (coefficients == data).all(axis=1).any()]
        elif name == "horner":
            chunks.append(data)
    assert max(rejected_in, default=0) > 0


@pytest.mark.parametrize("grid_size", [513, 4097])
def test_the_structural_experiments_trims_match_the_heap(grid_size, monkeypatch):
    trims = []
    trim = chebyshev._trim_reference

    def record(candidates, mags, target):
        kept = trim(candidates, mags, target)
        trims.append((candidates, mags, target, kept))
        return kept

    monkeypatch.setattr(chebyshev, "_trim_reference", record)
    run_experiment(resolve_config("structural_prop_3_2", overrides={"G": str(grid_size)}))
    # the sampled rows are noisy: most trims drop hundreds of candidates
    assert len(trims) > 100 and max(len(candidates) for candidates, *_ in trims) > grid_size // 8
    for candidates, mags, target, kept in trims:
        # the heap reads only the magnitudes of the residual it is given
        assert kept == trim_reference(candidates.tolist(), mags, target)
