"""The grid minimax problem as a linear program, for the tests only.

    min eps  subject to  |values - vander @ c| <= eps  on every grid node

solved by scipy's HiGHS. It shares no code with `chebyshev.remez` or
`projections.poly_bracket`, so it cross-checks both, but only at its own
accuracy: its solution can sit up to about 1.4e-5 above the grid optimum at
degrees 3 to 8, so the tests compare it at 1e-3 and degree <= 8.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize


def minimax_lp(vander: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Coefficients c minimizing max |values - vander @ c|; raises
    RuntimeError with the solver's message when it reports failure."""
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


def lp_error(vander: np.ndarray, values: np.ndarray) -> float:
    """Grid sup error of the linear program's polynomial."""
    return float(np.max(np.abs(values - vander @ minimax_lp(vander, values))))
