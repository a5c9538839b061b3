"""The exchange's per-row sign-run split, heap trim and polish point as they
were before the split took a block of rows, the trim took its closed form
and the polish took every finished row of a call at once: the frozen
references that `chebyshev._alternating_extrema`, `chebyshev._trim_reference`
and the certificate step of `chebyshev.remez_rows` must reproduce exactly."""

import heapq

import numpy as np


def alternating_extrema_row(residual):
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


def trim_reference_heap(candidates, residual, target):
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
