"""Independent check of the projection onto a polynomial class in C[0, 1].

`poly_bracket` certifies a candidate best approximation with the de la
Vallee Poussin lower bound from an annihilating measure on n + 2 grid nodes
and the candidate's sup error on the grid as the upper bound. The ball, cone
and l_1 ball projections are certified by `coderivatives.projection_gap`.
"""

from __future__ import annotations

import numpy as np

from . import chebyshev
from .coderivatives import POLY_PROJ, MapDescriptor
from .spaces import PrimalVector

__all__ = ["poly_bracket"]


def poly_bracket(
    f: PrimalVector, mapd: MapDescriptor, nodes, polynomial: chebyshev.Polynomial
) -> tuple[float, float]:
    """Bracket (lb, ub) on the grid best error E = min_q max_grid |f - q|
    over the polynomials q of degree <= n that `mapd` projects onto.

    ub = max_grid |f - p| for the given polynomial p, so ub >= E. Let w be
    the measure of total variation 1 on the n + 2 grid `nodes` (increasing
    indices) that annihilates degree <= n. Then |<w, f>| = |<w, f - q>| <=
    max_grid |f - q| for every such q (de la Vallee Poussin), so
    lb = |<w, f>| - residual * ||c||_1 - rounding <= E, where the
    annihilation residual of the computed w is charged against the
    coefficients c of p, standing in for those of the best q, and the
    rounding term bounds the floating-point error of the pairing.
    Alternating nodes and the best p close the bracket. Reads only grid
    values, the degree and the weights, never the map's value formulas or an
    error reported by whatever produced the nodes.
    """
    if mapd.kind != POLY_PROJ:
        raise ValueError("a bracket needs the projection onto a polynomial class")
    if f.space != mapd.space:
        raise ValueError("function and class live in different spaces")
    n = mapd.degree
    idx = np.asarray(nodes, dtype=int)
    if idx.shape != (n + 2,) or idx[0] < 0 or idx[-1] >= f.space.grid_size or np.any(np.diff(idx) <= 0):
        raise ValueError(f"need {n + 2} increasing grid node indices")
    if polynomial.degree > n:
        raise ValueError(f"the polynomial has degree above {n}")
    grid = f.space.grid
    ub = float(np.max(np.abs(f.values - polynomial(grid))))
    weights, residual = chebyshev.annihilator(grid[idx], n)
    values = f.values[idx]
    # (n + 2) eps of sum |w_i f_i| covers the rounding of the pairing and of
    # the total variation; without it lb can exceed E by an ulp
    slack = residual * float(np.sum(np.abs(polynomial.coefficients)))
    slack += (n + 2) * np.finfo(float).eps * float(np.abs(weights) @ np.abs(values))
    return abs(float(weights @ values)) - slack, ub

