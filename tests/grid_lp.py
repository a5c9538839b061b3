"""The grid minimax problem as a linear program, for the tests only.

    min eps  subject to  |values - vander @ c| <= eps  on every grid node

with `vander` the grid's power matrix (`chebyshev._grid_powers`), solved by
scipy's HiGHS. Apart from that matrix it shares no code with
`chebyshev.remez` or `projections.poly_bracket`, so it cross-checks both,
but only at its own accuracy: its solution can sit up to about 1.4e-5 above
the grid optimum at degrees 3 to 8, so the tests compare it at 1e-3 and
degree <= 8.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from projderiv.chebyshev import _grid_powers
from projderiv.spaces import SpaceSpec


def minimax_lp(space: SpaceSpec, n: int, values: np.ndarray) -> np.ndarray:
    """Coefficients c of degree <= n minimizing max |values - vander @ c| on
    the grid of `space`; raises RuntimeError with the solver's message when
    it reports failure."""
    vander = _grid_powers(space, n)[0]
    m, k = vander.shape
    # variables (c_0..c_{k-1}, eps)
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    ones = np.ones((m, 1))
    a_ub = np.block([[vander, -ones], [-vander, -ones]])
    b_ub = np.concatenate([values, -values])
    result = scipy.optimize.linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * k + [(0, None)],
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"grid minimax linear program failed: {result.message}")
    return result.x[:-1]


def lp_error(space: SpaceSpec, n: int, values: np.ndarray) -> float:
    """Grid sup error of the linear program's polynomial."""
    vander = _grid_powers(space, n)[0]
    return float(np.max(np.abs(values - vander @ minimax_lp(space, n, values))))
