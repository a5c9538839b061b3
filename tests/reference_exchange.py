"""The reference exchange of the tests: Remez's exchange of one row alone,
which `chebyshev.remez_rows` must reproduce in every field, and its parts:
the sign-run split of one row, the heap trim, the polish of one point, one
levelled solve and the scalar three-node sampler. It shares only the single
exchange with the package, and evaluates polynomials by numpy's polyval."""

import heapq

import numpy as np
from numpy.polynomial import polynomial as npoly

from projderiv import chebyshev
from projderiv.chebyshev import (
    KIND_C01,
    Polynomial,
    RemezConvergenceError,
    RemezResult,
    _grid_powers,
    _single_exchange,
    chebyshev_points,
)


def alternating_extrema(residual):
    """Indices of the per-sign-run argmax of |residual|; one candidate per
    run. Exact zeros carry the previous nonzero sign (+1 before the first
    one), and a tie within a run goes to its first index."""
    signs = np.sign(residual)
    if not signs.all():
        last = np.maximum.accumulate(np.where(signs != 0.0, np.arange(signs.size), -1))
        signs = np.where(last >= 0, signs[np.maximum(last, 0)], 1.0)
    edges = np.concatenate(([0], np.flatnonzero(signs[1:] != signs[:-1]) + 1, [signs.size]))
    starts = edges[:-1]
    mags = np.abs(residual)
    peaks = np.repeat(np.maximum.reduceat(mags, starts), edges[1:] - starts)
    hits = np.flatnonzero(~(mags < peaks))
    return hits[np.searchsorted(hits, starts)].tolist()


def trim_reference(candidates, residual, target):
    """Reduce an alternating candidate list to `target` points by repeatedly
    removing the smallest-magnitude candidate (the first one on a tie);
    removing an interior one joins two same-sign neighbours, of which the
    larger is kept (the left one on a tie). A heap keyed by (magnitude,
    position) with lazy deletion finds each minimum, and a doubly linked list
    finds its neighbours."""
    size = len(candidates)
    mags = np.abs(residual[candidates]).tolist()
    # position `size` is a sentinel that closes the list at both ends
    nxt = list(range(1, size + 1)) + [0]
    prev = [size] + list(range(size))
    alive = [True] * size

    def unlink(i):
        alive[i] = False
        nxt[prev[i]] = nxt[i]
        prev[nxt[i]] = prev[i]

    heap = [(m, i) for i, m in enumerate(mags)]
    heapq.heapify(heap)
    count = size
    while count - target > 1:
        _, k = heapq.heappop(heap)
        if not alive[k]:
            continue
        left, right = prev[k], nxt[k]
        if left != size and right != size:
            unlink(right if mags[left] >= mags[right] else left)
            count -= 1
        unlink(k)
        count -= 1
    if count - target == 1:
        head, tail = nxt[size], prev[size]
        unlink(head if mags[head] <= mags[tail] else tail)
    return [c for c, keep in zip(candidates, alive) if keep]


def polish_point(grid, residual, j):
    """Vertex of the parabola through three neighbouring residual samples;
    returns None at the boundary or when the fit is not a proper extremum."""
    if j <= 0 or j >= grid.size - 1:
        return None
    r0, r1, r2 = residual[j - 1], residual[j], residual[j + 1]
    denom = r0 - 2.0 * r1 + r2
    if abs(denom) < 1e-300:
        return None
    h = grid[1] - grid[0]
    shift = 0.5 * h * (r0 - r2) / denom
    if abs(shift) >= h:
        return None
    return float(grid[j] + shift)


def leveled_solve(points, values, n):
    """The levelled system of one reference, built whole and solved alone."""
    system = np.empty((n + 2, n + 2))
    system[:, : n + 1] = points[:, None] ** np.arange(n + 1)
    system[:, n + 1] = (-1.0) ** np.arange(n + 2)
    sol = np.linalg.solve(system, values)
    return Polynomial(tuple(sol[: n + 1])), float(sol[n + 1])


def sample_value(f, t):
    """The value of a grid function at t: the node's value on a node, else
    the parabola through the three nodes around its nearest interior node."""
    grid, g = f.space.grid, f.space.grid.size
    h = 1.0 / (g - 1)
    nearest = int(round(float(t) * (g - 1)))
    if 0 <= nearest < g and grid[nearest] == t:
        return float(f.values[nearest])
    j = min(max(nearest, 1), g - 2)
    t0, t1, t2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = f.values[j - 1], f.values[j], f.values[j + 1]
    d = float(t)
    l0 = (d - t1) * (d - t2) / (2 * h * h)
    l1 = -(d - t0) * (d - t2) / (h * h)
    l2 = (d - t0) * (d - t1) / (2 * h * h)
    return float(f0 * l0 + f1 * l1 + f2 * l2)


def remez_one_row(f, n, max_iterations=chebyshev.REMEZ_MAX_ITERATIONS):
    """`chebyshev.remez` of one grid function, exchanged alone."""
    assert f.space.kind == KIND_C01
    grid, fv = f.space.grid, f.values
    scale = 1.0 + float(np.max(np.abs(fv)))
    # the nodes nearest to the Chebyshev points, and the smallest free ones
    # where two points share a node
    ref_idx = sorted({int(round(t * (grid.size - 1))) for t in chebyshev_points(n + 2)})
    free = (k for k in range(grid.size) if k not in ref_idx)
    ref_idx = sorted(ref_idx + [next(free) for _ in range(n + 2 - len(ref_idx))])
    vander, basis = _grid_powers(f.space, n)
    if np.max(np.abs(fv - basis @ (basis.T @ fv))) <= 1e-9 * scale:
        ls_coef, *_ = np.linalg.lstsq(vander, fv, rcond=None)
        ls_error = np.max(np.abs(fv - vander @ ls_coef))
        if ls_error <= 1e-12 * scale:
            poly, ref = Polynomial(tuple(ls_coef)), chebyshev_points(n + 2)
            signs = tuple(int(s) for s in (-1.0) ** np.arange(n + 2))
            values = tuple(sample_value(f, t) for t in ref)
            ref = tuple(float(t) for t in ref)
            return RemezResult(poly, float(ls_error), ref, values, signs, 0, (), tuple(ref_idx), poly)
    history, solved = [], None
    for _ in range(max_iterations):
        poly, level = solved or leveled_solve(grid[ref_idx], fv[ref_idx], n)
        solved = None
        history.append(abs(level))
        residual = fv - npoly.polyval(grid, poly.coefficients)
        if float(np.max(np.abs(residual))) - abs(level) <= chebyshev.REMEZ_TOL * max(1.0, abs(level)):
            break
        candidates = alternating_extrema(residual)
        if len(candidates) < n + 2:
            ref_idx = _single_exchange(ref_idx, residual)
            continue
        new_idx = trim_reference(candidates, residual, n + 2)
        if new_idx == ref_idx:
            break
        trial = leveled_solve(grid[new_idx], fv[new_idx], n)
        if abs(trial[1]) >= abs(level) - 1e-14 * scale:
            ref_idx, solved = new_idx, trial
        else:
            ref_idx = _single_exchange(ref_idx, residual)
    else:
        raise RemezConvergenceError(f"no convergence in {max_iterations} iterations", tuple(history))
    discrete_reference, discrete_polynomial = tuple(ref_idx), poly
    ref_pts, ref_vals = [float(grid[j]) for j in ref_idx], [float(fv[j]) for j in ref_idx]
    # the polish; solved again at points it leaves on their nodes, the
    # discrete solve comes back bit for bit
    polished = []
    for j in ref_idx:
        t_star = polish_point(grid, residual, j)
        polished.append((float(grid[j]), float(fv[j])) if t_star is None else (t_star, sample_value(f, t_star)))
    polished_pts, polished_vals = (list(column) for column in zip(*sorted(polished)))
    if len(set(polished_pts)) == n + 2:
        poly2, level2 = leveled_solve(np.array(polished_pts), np.array(polished_vals), n)
        if abs(level2) >= abs(level) - chebyshev.REMEZ_TOL * max(1.0, abs(level)):
            poly, level = poly2, abs(level2)
            ref_pts, ref_vals = polished_pts, polished_vals
            history.append(abs(level2))
    resid_at_ref = np.array(ref_vals) - npoly.polyval(np.array(ref_pts), poly.coefficients)
    signs = tuple(int(s) if s != 0 else 1 for s in np.sign(resid_at_ref))
    return RemezResult(
        poly, float(abs(level)), tuple(ref_pts), tuple(ref_vals), signs, len(history), tuple(history),
        discrete_reference, discrete_polynomial,
    )
