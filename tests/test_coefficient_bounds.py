"""The coefficient-bound experiment's batched draws and counts against the
per-polynomial loop they replaced (`frozen_bounds.py`), bit for bit."""

import numpy as np
import pytest

from frozen_bounds import coefficient_bounds_loop
from projderiv import experiments
from projderiv.chebyshev import coefficient_bound, derivative_coefficient_bound, horner_rows
from projderiv.experiments import _bound_violations, _unit_polynomials, resolve_config

GRID = np.linspace(0.0, 1.0, 513)
COUNT = 200


def _bounds(n, tight=False):
    """The experiment's bounds at degree n, or bounds of 1 on the
    coefficients and on the derivative, which some draws cross."""
    return (1.0, 1.0) if tight else (coefficient_bound(1.0, n), derivative_coefficient_bound(1.0, n))


def _assert_same_draws(batch_rng, loop_rng, n, tight):
    coef_bound, deriv_bound = _bounds(n, tight)
    coeffs, peaks = _unit_polynomials(batch_rng, n, GRID, COUNT)
    counts = _bound_violations(coeffs, GRID, coef_bound, deriv_bound)
    scaled, loop_peaks, *loop_counts = coefficient_bounds_loop(loop_rng, n, GRID, COUNT, coef_bound, deriv_bound)
    assert coeffs.shape == (len(scaled), n + 1)
    assert coeffs.tobytes() == np.array(scaled).reshape(coeffs.shape).tobytes()
    assert peaks.tobytes() == np.array(loop_peaks).tobytes()
    assert counts == tuple(loop_counts)
    # the same draws in the same order: both generators end in one state
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
    return coeffs, counts


@pytest.mark.parametrize("seed", [1, 3, 7, 11, 1901])
def test_the_batched_draws_are_the_loops_bit_for_bit(seed):
    # the experiment's generator, carried across the degrees as in the
    # experiment; at the real bounds every count is 0, so the counts are also
    # compared at bounds tight enough to be crossed
    for tight in (False, True):
        batch_rng = experiments._rng(resolve_config("coefficient_bounds_prop_4_6", overrides={"seed": seed}), 80)
        loop_rng = np.random.default_rng([seed, 80])
        for n in (1, 2, 3):
            _, counts = _assert_same_draws(batch_rng, loop_rng, n, tight)
            if tight:
                assert 0 < min(counts) and max(counts) < COUNT


@pytest.mark.parametrize("seed", [1, 3, 7, 11, 1901])
def test_the_experiments_counts_are_the_loops(seed):
    config = resolve_config("coefficient_bounds_prop_4_6", overrides={"seed": seed})
    observed = [check.observed for check in experiments._exp_coefficient_bounds(config)]
    loop_rng = np.random.default_rng([seed, 80])
    expected = []
    for n in (1, 2, 3):
        *_, coef_viol, deriv_viol = coefficient_bounds_loop(loop_rng, n, GRID, COUNT, *_bounds(n))
        expected += [str(coef_viol), str(deriv_viol)]
    assert observed == expected


@pytest.mark.parametrize("seed", [1, 3, 7, 11, 1901])
def test_every_checked_polynomial_is_within_the_norm_bound(seed):
    # Prop. 4.6 is checked at b = 1, so every row's grid peak is at most 1 up
    # to rounding; the rows the uniform factors raised above 1 read 1
    rng = experiments._rng(resolve_config("coefficient_bounds_prop_4_6", overrides={"seed": seed}), 80)
    eps = np.finfo(float).eps
    for n in (1, 2, 3):
        coeffs, _ = _unit_polynomials(rng, n, GRID, COUNT)
        peaks = np.max(np.abs(horner_rows(coeffs, GRID)), axis=1)
        assert peaks.max() <= 1.0 + 8 * eps
        assert np.count_nonzero(peaks >= 1.0 - 8 * eps) >= 5


class _ScriptedNormals:
    """A generator whose normal draws at the given positions are the first
    `size` entries of the given rows; every other draw is its own
    generator's."""

    def __init__(self, seed, rows):
        self._rng = np.random.default_rng(seed)
        self._rows = dict(rows)
        self._draws = 0

    def normal(self, size):
        draw = self._rng.normal(size=size)
        self._draws += 1
        return np.array(self._rows.get(self._draws - 1, draw)[:size], dtype=float)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)

    @property
    def bit_generator(self):
        return self._rng.bit_generator


# draws whose constant term is 0: two all-zero rows (peak 0, skipped before
# any uniform is drawn, one with a -0.0) and rows whose peak lies elsewhere
SCRIPTED = {
    0: [0.0, 0.0, 0.0, 0.0],
    5: [0.0, 1.5, -0.75, 0.5],
    6: [-0.0, 0.0, 0.0, 0.0],
    7: [0.0, 0.0, 2.0, -1.0],
    COUNT - 1: [0.0, -1e-300, 0.0, 0.0],
}


def test_a_draw_with_a_zero_constant_term_is_kept_or_skipped_as_in_the_loop():
    coeffs, _ = _assert_same_draws(_ScriptedNormals(5, SCRIPTED), _ScriptedNormals(5, SCRIPTED), 2, True)
    assert coeffs.shape == (COUNT - 2, 3)
    assert coeffs[4, 0] == 0.0 and coeffs[-1, 0] == 0.0


def test_the_experiment_skips_a_zero_draw_as_the_loop_did(monkeypatch):
    monkeypatch.setattr(experiments, "_rng", lambda config, tag: _ScriptedNormals([config.seed, tag], SCRIPTED))
    config = resolve_config("coefficient_bounds_prop_4_6")
    observed = [check.observed for check in experiments._exp_coefficient_bounds(config)]
    loop_rng = _ScriptedNormals([config.seed, 80], SCRIPTED)
    expected = []
    for n in (1, 2, 3):
        *_, coef_viol, deriv_viol = coefficient_bounds_loop(loop_rng, n, GRID, COUNT, *_bounds(n))
        expected += [str(coef_viol), str(deriv_viol)]
    assert observed == expected
