"""Independent checks of the projection maps onto closed convex sets:
p-norm balls, positive cones, l_1 balls, and polynomial classes in C[0, 1].

`brute_force_project` takes the `MapDescriptor` of the projection it checks
and reads only the set it names (kind, space, radius). It never calls the
map's value formulas or any closed form: grid-seeded multi-start descent
finds the nearest point of a ball or cone. A polynomial class is not
searched: `poly_bracket` certifies a candidate instead, with the de la
Vallee Poussin lower bound from an annihilating measure on n + 2 grid nodes
and the candidate's sup error on the grid as the upper bound.
"""

from __future__ import annotations

import numpy as np

from . import chebyshev
from .coderivatives import AFFINE, CONE_PROJ, POLY_PROJ, MapDescriptor
from .spaces import PrimalVector, norm_rows

__all__ = ["brute_force_project", "poly_bracket", "INSIDE_SLACK"]

# Points with norm within this relative slack of the radius count as inside
# the ball; the oracle's own feasibility slack, kept apart from the maps'
# sphere band.
INSIDE_SLACK = 1e-12

PATTERN_ITERS = 600  # rounds of the 2 * dim axis steps plus the random steps
PATTERN_RANDOM_DIRS = 10  # random unit steps per round
PATTERN_PATIENCE = 2  # rounds without improvement before the step halves


def _inside(mapd: MapDescriptor, rows: np.ndarray):
    """Membership of each row of a (..., size) array in the ball or cone that
    `mapd` projects onto."""
    if mapd.kind == CONE_PROJ:
        return np.all(rows >= 0.0, axis=-1)
    return norm_rows(mapd.space, rows) <= mapd.radius * (1.0 + INSIDE_SLACK)


def _pattern_search(objective, feasible, start, step, rng):
    """First-improvement descent over axis directions plus random directions,
    with gentle step decay. Plain axis steps stall on curved ball boundaries
    and in the thin descent wedges of max-type objectives, so the random
    directions are required for convergence there."""
    y = np.array(start, dtype=float)
    best = objective(y)
    dim = y.size
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    stalled = 0
    for _ in range(PATTERN_ITERS):
        improved = False
        randoms = rng.standard_normal((PATTERN_RANDOM_DIRS, dim))
        norms = np.linalg.norm(randoms, axis=1, keepdims=True)
        randoms = randoms / np.where(norms == 0, 1.0, norms)
        for d in np.vstack([axes, randoms]):
            cand = y + step * d
            if not feasible(cand):
                continue
            val = objective(cand)
            if val < best - 1e-15:
                y, best = cand, val
                improved = True
        if improved:
            stalled = 0
        else:
            stalled += 1
            if stalled >= PATTERN_PATIENCE:
                step *= 0.5
                stalled = 0
            if step < 1e-8:
                break
    return y, best


def _brute_force_sequence(x: PrimalVector, mapd: MapDescriptor, resolution: int, seed: int):
    space = x.space
    dim = space.size
    if dim > 4:
        raise ValueError("grid search supports dim <= 4")
    per_axis = min(resolution, 12 if dim >= 4 else resolution) + 1
    r = mapd.radius

    if mapd.kind == CONE_PROJ:
        lo = np.zeros(dim)
        hi = np.maximum(x.values, 0.0) + 0.5
    else:
        lo = np.full(dim, -r)
        hi = np.full(dim, r)

    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    mesh = mesh[_inside(mapd, mesh)]
    objective_rows = norm_rows(space, mesh - x.values)
    order = np.argsort(objective_rows)
    seeds = mesh[order[:8]]

    rng = np.random.default_rng([seed, 101])
    cell = float(np.max((hi - lo) / max(per_axis - 1, 1)))
    best_y, best_val = None, np.inf

    if mapd.kind != CONE_PROJ:
        # x is outside (the inside case returned early), so the nearest point
        # lies on the sphere; search its radial parametrization z -> r z/||z||
        # unconstrained, which sidesteps the feasible-cone stall entirely

        def to_sphere(z):
            nz = norm_rows(space, z[None, :])[0]
            return z * (r / nz) if nz > 0 else z

        def objective(z):
            return float(norm_rows(space, to_sphere(z)[None, :] - x.values)[0])

        def feasible(z):
            return bool(np.any(z != 0.0))

        for s in seeds:
            if not np.any(s != 0.0):
                continue
            z, val = _pattern_search(objective, feasible, s, cell, rng)
            if val < best_val:
                best_y, best_val = to_sphere(z), val
    else:

        def objective(y):
            return float(norm_rows(space, y[None, :] - x.values)[0])

        def feasible(y):
            return bool(_inside(mapd, y))

        for s in seeds:
            y, val = _pattern_search(objective, feasible, s, cell, rng)
            if val < best_val:
                best_y, best_val = y, val
    return PrimalVector(space, best_y)


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


def brute_force_project(
    x: PrimalVector, mapd: MapDescriptor, resolution: int = 40, seed: int = 0
) -> PrimalVector:
    """Independent nearest-point oracle for the ball, cone or l_1 ball that
    `mapd` projects onto: feasible grid seeding refined by multi-start
    descent. A point of the set is returned as is. `resolution` and `seed`
    shape the grid and the descent.

    Reads only the map's kind, space and radius, never its value formulas;
    feasibility and objective use only norms. Affine maps have no set behind
    them and raise ValueError; so do polynomial classes, which `poly_bracket`
    certifies instead.
    """
    if x.space != mapd.space:
        raise ValueError("point and set live in different spaces")
    if mapd.kind == AFFINE:
        raise ValueError("an affine map is not the projection onto a set")
    if mapd.kind == POLY_PROJ:
        raise ValueError("a polynomial class is certified by poly_bracket, not searched")
    if _inside(mapd, x.values):
        return x
    return _brute_force_sequence(x, mapd, resolution, seed)
