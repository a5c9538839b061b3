"""Best uniform polynomial approximation on [0, 1].

The projection of a grid function onto polynomials of degree <= n is computed
by a Remez exchange: the discrete minimax problem over the grid is solved by
multi-point exchange, then a single off-grid polish (three-point parabolic
refinement of the residual extrema) sharpens the equioscillation certificate
at coarse grids.

The exchange runs over the rows of an array (`remez_rows`; `remez` is a
batch of one), as one exchange loop per call. Per iteration, the rows still
exchanging share one stacked levelled solve and one stacked trial solve; the
passes over the grid run in chunks of `spaces.QUOTIENT_BLOCK` grid values (3
rows at G = 4097): one batched Horner for the chunk's residuals
(`horner_rows`), one convergence comparison and one sign-run split
(`_alternating_extrema`). Between chunks a row keeps only O(n) values. The
trim to the next reference (`_trim_reference`) is the closed form of
dropping the smallest candidate one at a time, and reads only the largest
candidates. The trial acceptance and the single exchange stay per row, so
each row keeps the bits of an exchange of that row alone. The certificate
step (the polish, its re-solve and the result) runs once per call, as arrays
over every row the loop finished; `_sample_values` is its one off-grid
sampler.

The monomial basis lives here only: every system and fit takes its powers
from `_powers`, and `horner_rows` is the one polynomial evaluator.

The module also provides the power-matrix determinants A_n(t) = det[t^(i*j)]
(nonzero on (0, 1)), computed exactly by one integer Bareiss elimination over
a batch of points and rounded once, their product factorization, and the
coefficient bounds they imply for norm-bounded polynomials.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spaces import KIND_C01, QUOTIENT_BLOCK, PrimalVector, SpaceSpec, norm

__all__ = [
    "Polynomial",
    "RemezResult",
    "RemezConvergenceError",
    "DeterminantReport",
    "ContinuityReport",
    "an_determinant",
    "an_determinants",
    "an_recursive",
    "compare_determinants",
    "coeffs_from_values",
    "coefficient_bound",
    "derivative_coefficient_bound",
    "chebyshev_points",
    "chebyshev_nodes",
    "annihilator",
    "remez",
    "remez_rows",
    "horner_rows",
    "fits_on_grid",
    "continuity_experiment",
]

MAX_DETERMINANT_DEGREE = 8  # the power matrix at t=1/2 is ill conditioned beyond this
# entries per stacked elimination of `an_determinants`. An entry is a Python
# int of up to n^2 times the bits of t's numerator, so a batch is eliminated
# in blocks of at most this many entries: its peak memory is one block's,
# however many points it has, and each step still serves a block at once
DETERMINANT_BLOCK = 2**10


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial a_0 + a_1 t + ... + a_n t^n, evaluated on [0, 1]."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t):
        """Values at t, of any shape, by `horner_rows`."""
        t = np.asarray(t, dtype=float)
        return horner_rows(np.array([self.coefficients]), t.ravel())[0].reshape(t.shape)[()]

    def derivative(self) -> "Polynomial":
        """The coefficients j a_j, j = 1..n (a constant has derivative 0)."""
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(np.arange(1, self.degree + 1) * np.array(self.coefficients[1:])))

    def on_grid(self, space: SpaceSpec) -> PrimalVector:
        return PrimalVector(space, self(space.grid))


class RemezConvergenceError(RuntimeError):
    """Exchange failed to level within the iteration budget; carries the
    per-iteration levelled-error trace."""

    def __init__(self, message: str, trace: tuple[float, ...]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class RemezResult:
    """Best approximation plus its equioscillation certificate.

    ``reference`` holds n+2 strictly increasing points where the residual
    attains +-``error`` with alternating signs; ``reference_values`` are the
    sampled function values used at those points (exact grid samples, or the
    three-point parabolic interpolant for polished off-grid points).

    ``discrete_reference`` holds the n+2 increasing grid indices of the
    reference that ends the discrete exchange, and ``discrete_polynomial`` is
    the levelled solve there: the grid solution before the off-grid polish.
    For a function already in the class they are the nodes nearest to n+2
    Chebyshev points and the least-squares fit.
    """

    polynomial: Polynomial
    error: float
    reference: tuple[float, ...]
    reference_values: tuple[float, ...]
    residual_signs: tuple[int, ...]
    iterations: int
    level_history: tuple[float, ...]
    discrete_reference: tuple[int, ...]
    discrete_polynomial: Polynomial


@dataclass(frozen=True)
class DeterminantReport:
    n: int
    grid: tuple[float, ...]
    direct_values: tuple[float, ...]
    recursive_values: tuple[float, ...]
    max_rel_diff: float


@dataclass(frozen=True)
class ContinuityReport:
    """Deviation sequence ||P(f + g/m) - P(f)|| for m = 1..M with a C/m tail
    fit: C is fitted on the first three quarters and checked on the last."""

    deviations: tuple[float, ...]
    perturbation_norm: float
    fitted_constant: float
    tail_ok: bool
    final_ok: bool
    final_bound: float


# ---------------------------------------------------------------------------
# determinants of the power matrix [t^(i*j)]
# ---------------------------------------------------------------------------

def an_determinant(t, n: int):
    """Determinant of the (n+1)x(n+1) matrix with entries t^(i*j), i, j = 0..n:
    `an_determinants` of one point."""
    return an_determinants([t], n)[0]


def an_determinants(points, n: int) -> list:
    """A_n(t) at every t of a sequence of points, exact for every real t:
    their integer matrices are eliminated as stacks, each of at most
    `DETERMINANT_BLOCK` entries.

    Each t is taken as the exact ratio a/b of its ``as_integer_ratio()`` (a
    binary float is a rational). Scaling row i by b^r_i and column j by b^c_j,
    with r_i = ceil(i^2/2) and c_j = floor(j^2/2), turns the matrix into the
    integers a^(ij) b^(r_i + c_j - ij). Every exponent is >= 0: r_i + c_j is
    at least (i^2 + j^2 - 1)/2, below (i^2 + j^2)/2 >= ij only where i and j
    differ in parity, and there (i - j)^2 >= 1. The integer determinant over
    b^(sum r_i + sum c_j) = b^(n(n+1)(2n+1)/6) is A_n(t) exactly. A float of
    any type (numpy's included) gets that rational rounded once to the
    nearest float, so the value keeps full relative accuracy even where the
    matrix is nearly singular; an int or a Fraction gets the exact Fraction.
    """
    if not 1 <= n <= MAX_DETERMINANT_DEGREE:
        raise ValueError(f"direct evaluation supports 1 <= n <= {MAX_DETERMINANT_DEGREE}")
    exact = [not isinstance(t, (float, np.floating)) for t in points]
    a, b = np.array(
        [[int(k) for k in (Fraction(t) if e else t).as_integer_ratio()] for t, e in zip(points, exact)],
        dtype=object,
    ).reshape(-1, 2).T
    i = np.arange(n + 1)
    ij = i[:, None] * i
    b_exp = ((i * i + 1) // 2)[:, None] + (i * i) // 2 - ij
    step = DETERMINANT_BLOCK // (n + 1) ** 2
    dets = []
    for start in range(0, a.size, step):
        block = slice(start, start + step)
        dets += _bareiss_determinant(a[block, None, None] ** ij * b[block, None, None] ** b_exp)
    scale = b ** (n * (n + 1) * (2 * n + 1) // 6)
    # int / int rounds once
    return [Fraction(d, s) if e else d / s for d, s, e in zip(dets, scale, exact)]


def _bareiss_determinant(stack: np.ndarray) -> list[int]:
    """Determinants of a (k, s, s) object array of Python ints, which it
    overwrites, by fraction-free (Bareiss) elimination of all k at once: each
    step updates the trailing block of every matrix and divides it exactly by
    that matrix's previous pivot, so every entry stays an integer. A zero
    pivot swaps rows in its own matrix only; a matrix with no nonzero pivot
    left reads 0 and leaves the stack."""
    k, size = stack.shape[0], stack.shape[-1]
    dets = [0] * k
    live = np.arange(k)
    sign = np.ones(k, dtype=object)
    prev = np.ones(k, dtype=object)
    for col in range(size - 1):
        keep = np.ones(live.size, dtype=bool)
        for m in np.flatnonzero(stack[:, col, col] == 0):
            below = np.flatnonzero(stack[m, col + 1 :, col] != 0)
            if below.size == 0:
                keep[m] = False
                continue
            swap = col + 1 + below[0]
            stack[m, [col, swap]] = stack[m, [swap, col]]
            sign[m] = -sign[m]
        if not keep.all():
            stack, live, sign, prev = stack[keep], live[keep], sign[keep], prev[keep]
        pivot = stack[:, col, col]
        block = stack[:, col + 1 :, col + 1 :]
        block *= pivot[:, None, None]
        block -= stack[:, col + 1 :, col, None] * stack[:, col, None, col + 1 :]
        block //= prev[:, None, None]
        prev = pivot
    for index, det in zip(live, sign * stack[:, -1, -1]):
        dets[index] = det
    return dets


def an_recursive(t, n: int):
    """Product form of the same determinant:

        A_m(t) = (t - 1)(t^2 - 1) ... (t^m - 1) * t * t^2 ... t^(m-1) * A_{m-1}(t)

    with A_0 = 1, giving A_1(t) = t - 1. Nonzero on (0, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = t ** 0
    for m in range(1, n + 1):
        factor = t ** 0
        for k in range(1, m + 1):
            factor = factor * (t ** k - 1)
        for k in range(1, m):
            factor = factor * t ** k
        value = factor * value
    return value


def compare_determinants(n: int, points) -> DeterminantReport:
    pts = tuple(float(t) for t in points)
    direct = tuple(an_determinants(pts, n))
    rec = tuple(float(an_recursive(t, n)) for t in pts)
    rel = max(
        abs(d - r) / max(abs(d), abs(r), 1e-300) for d, r in zip(direct, rec)
    )
    return DeterminantReport(n, pts, direct, rec, float(rel))


def coeffs_from_values(values) -> Polynomial:
    """Recover a_0..a_n from the values of the polynomial at the nodes
    1, 1/2, 1/4, ..., 2^-n. The system matrix is the power matrix at t = 1/2,
    which is nonsingular, so the solution is unique."""
    b = np.asarray(values, dtype=float)
    n = b.size - 1
    if not 0 <= n <= MAX_DETERMINANT_DEGREE:
        raise ValueError(f"supported for degree <= {MAX_DETERMINANT_DEGREE}")
    coeffs = np.linalg.solve(_powers(0.5 ** np.arange(n + 1), n), b)
    return Polynomial(tuple(coeffs))


def coefficient_bound(b: float, n: int) -> float:
    """Bound n! * b / |A_n(1/2)| on every coefficient of a polynomial of
    degree <= n with sup norm <= b on [0, 1] (via Cramer's rule on the
    power-matrix system at the nodes 2^-k)."""
    if b <= 0:
        raise ValueError("the norm bound must be positive")
    return math.factorial(n) * b / abs(an_determinant(0.5, n))


def derivative_coefficient_bound(b: float, n: int) -> float:
    """Bound n! * n^2 * b / |A_n(1/2)| on the sup norm of the derivative of a
    polynomial of degree <= n with sup norm <= b on [0, 1]."""
    return coefficient_bound(b, n) * n * n


# ---------------------------------------------------------------------------
# Remez exchange
# ---------------------------------------------------------------------------

def _powers(t: np.ndarray, n: int) -> np.ndarray:
    """The powers t^0..t^n of each entry of t, along a new last axis: the
    monomial basis of every system and fit of this module."""
    return t[..., None] ** np.arange(n + 1)


@functools.lru_cache(maxsize=16)
def _grid_powers(space: SpaceSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only G x (n+1) matrix of the powers t^0..t^n of the grid
    nodes (C01 only), the basis of the polynomials of degree <= n on the
    grid, and an orthonormal basis of its column space (its thin QR factor).
    Built once per (space, n); equal specs share them."""
    vander = _powers(space.grid, n)
    basis = np.linalg.qr(vander)[0]
    vander.flags.writeable = basis.flags.writeable = False
    return vander, basis


def chebyshev_points(count: int) -> np.ndarray:
    """Chebyshev points of the second kind mapped to [0, 1], increasing."""
    if count < 2:
        raise ValueError("need at least two points")
    j = np.arange(count)
    return (1.0 - np.cos(np.pi * j / (count - 1))) / 2.0


def _sample_values(grid: np.ndarray, values: np.ndarray, t: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Values of grid functions at points of [0, 1]: `values` (..., G) and
    `t` (..., p) with the same leading shape, or, with `rows`, `values`
    (R, G) and `t` (len(rows), p), the points of the grid functions
    values[rows], whose nodes are read from `values` without copying its
    rows. A point is read by the parabola through the three nodes centred
    at its nearest interior node; a node is read exactly, which is all a
    two-node grid can be asked."""
    g = grid.size
    h = 1.0 / (g - 1)
    nearest = np.clip(np.rint(t * (g - 1)).astype(np.intp), 0, g - 1)
    j = np.clip(nearest, 1, g - 2)

    def nodes(k):
        return np.take_along_axis(values, k, axis=-1) if rows is None else values[rows[:, None], k]

    t0, t1, t2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = nodes(j - 1), nodes(j), nodes(j + 1)
    # Lagrange on three equispaced nodes
    l0 = (t - t1) * (t - t2) / (2 * h * h)
    l1 = -(t - t0) * (t - t2) / (h * h)
    l2 = (t - t0) * (t - t1) / (2 * h * h)
    return np.where(grid[nearest] == t, nodes(nearest), f0 * l0 + f1 * l1 + f2 * l2)


def annihilator(points: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Weights w on n + 2 points that annihilate every polynomial of degree
    <= n: the null vector of the moment matrix [t_i^k], scaled to total
    variation 1 with a positive first weight. Also returns the annihilation
    residual max_k |sum_i w_i t_i^k|, which is zero in exact arithmetic."""
    moments = np.ascontiguousarray(_powers(points, n).T)
    _, _, vt = np.linalg.svd(moments)
    weights = vt[-1]
    if weights[0] < 0:
        weights = -weights
    weights = weights / np.sum(np.abs(weights))
    return weights, float(np.max(np.abs(moments @ weights)))


def _leveled_solves(points: np.ndarray, values: np.ndarray, n: int):
    """Solve  p(t_i) + (-1)^i h = f(t_i)  at the n + 2 points of each row of
    two (k, n + 2) arrays, as one stacked solve: the coefficients (k, n + 1)
    of each p, the levels h (k,), and the LinAlgError of each row whose
    system is singular, by row. A singular system fails the whole stack, so
    the rows are then solved one at a time, and a failing row reads NaN."""
    systems = np.empty((points.shape[0], n + 2, n + 2))
    systems[:, :, : n + 1] = _powers(points, n)
    systems[:, :, n + 1] = (-1.0) ** np.arange(n + 2)
    errors: dict[int, np.linalg.LinAlgError] = {}
    try:
        sol = np.linalg.solve(systems, values[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.full(values.shape, np.nan)
        for i, (system, rhs) in enumerate(zip(systems, values)):
            try:
                sol[i] = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError as err:
                errors[i] = err
    return sol[:, : n + 1], sol[:, n + 1], errors


def horner_rows(coefficients: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values at t, (size,) or (k, size), of the k polynomials whose
    coefficients a_0..a_n are the rows of a (k, n + 1) array: one batched
    Horner, elementwise the operations of numpy's `polyval` in its order:
    the one polynomial evaluator (`Polynomial.__call__` is a row of one). It
    works in place on its output, so a batch of fine-grid rows needs no
    second array."""
    values = coefficients[:, -1:] + t * 0
    for i in range(2, coefficients.shape[1] + 1):
        values *= t
        values += coefficients[:, -i, None]
    return values


def _alternating_extrema(residual: np.ndarray, mags: np.ndarray) -> list[np.ndarray]:
    """The candidates of each row of a (k, G) chunk of residuals, given their
    magnitudes |residual|: the indices of the per-sign-run argmax of
    |residual|, one per run, so a row's candidates alternate in sign by
    construction. Exact zeros carry the previous nonzero sign (+1 before the
    first one), and a tie within a run goes to its first index.

    The chunk is split as one flat array: a run starts where `residual > 0`
    changes and at the start of every row."""
    rows, g = residual.shape
    positive = residual > 0
    if not residual.all():
        zeros = np.flatnonzero(~residual.all(axis=1))
        # index of the last nonzero at or before each point, -1 before any
        last = np.maximum.accumulate(np.where(residual[zeros] != 0, np.arange(g), -1), axis=1)
        carried = np.take_along_axis(positive[zeros], np.maximum(last, 0), axis=1)
        positive[zeros] = carried | (last < 0)
    flat = positive.ravel()
    # run boundaries: each row's start, each point where the sign changes,
    # and the end
    edge = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
    edge[:-1:g] = True
    edge[-1] = True
    edges = np.flatnonzero(edge)
    starts = edges[:-1]
    m = mags.ravel()
    # every run has a point not below its peak (a run with a NaN included),
    # so the first such point at or after each start is that run's argmax
    peaks = np.maximum.reduceat(m, starts).repeat(edges[1:] - starts)
    hits = np.flatnonzero(~(m < peaks))
    candidates = hits[hits.searchsorted(starts)]
    bounds = candidates.searchsorted(np.arange(0, rows * g + 1, g)).tolist()
    return [candidates[lo:hi] - row * g for row, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


# the trim sorts this many of the largest candidates first; noisy rows stop
# within them
TRIM_HEAD = 128


def _descending_keys(cand: np.ndarray):
    """The positions of `cand` in decreasing (magnitude, position) order: the
    `TRIM_HEAD` largest (with every tie of the smallest of them) sorted
    first, the rest only when asked for."""
    kth = max(cand.size - TRIM_HEAD, 0)
    head = cand >= np.partition(cand, kth)[kth]
    for part in (np.flatnonzero(head), np.flatnonzero(~head)):
        yield from part[np.lexsort((part, cand[part]))[::-1]].tolist()


def _run_prefix(cand: np.ndarray, limit: int) -> list[int]:
    """The positions, increasing, of the longest prefix of the candidates in
    decreasing (magnitude, position) order that forms at most `limit` runs,
    a run being consecutive positions that differ by even counts."""
    kept: list[int] = []
    runs = 0
    for p in _descending_keys(cand):
        at = bisect.bisect(kept, p)
        if not kept:
            opened = 1
        elif at == 0:
            opened = (kept[0] - p) & 1
        elif at == len(kept):
            opened = (p - kept[-1]) & 1
        else:
            opened = 2 * ((p - kept[at - 1]) & (kept[at] - p) & 1)
        if runs + opened > limit:
            break
        kept.insert(at, p)
        runs += opened
    return kept


def _trim_reference(candidates: np.ndarray, mags: np.ndarray, target: int) -> list[int]:
    """Reduce an alternating candidate list to `target` points, given the
    row's magnitudes |residual|. The rule: while more than `target + 1`
    are left, remove the smallest candidate (the first one on a tie), and
    if it is interior, join its two same-sign neighbours by keeping the
    larger (the left one on a tie); of `target + 1` left, the smaller end
    goes (the first one on a tie). The global maximum always survives.

    Its closed form. The removals go in increasing order of the key
    (magnitude, position), magnitudes never change, and a join keeps the
    leftmost maximum of the two runs it merges. So after each removal the
    survivors are the leftmost maximum of each same-sign run of a prefix of
    the candidates in decreasing key order; as candidates alternate, two of
    them share a sign exactly when their positions differ by an even count.
    A longer prefix never forms fewer runs, so the removals stop at the
    longest prefix that forms at most `target + 1` runs. The prefix is built
    by inserting positions in key order and counting runs locally; the keys
    are sorted `TRIM_HEAD` largest first, then the rest if the prefix
    reaches past them.
    """
    cand = mags[candidates]
    if cand.size <= target + 1:
        kept = list(range(cand.size))  # nothing is joined
    else:
        kept = _run_prefix(cand, target + 1)
    mag = cand.tolist()
    survivors: list[int] = []
    for p in kept:
        if survivors and not (p - survivors[-1]) & 1:
            if mag[p] > mag[survivors[-1]]:
                survivors[-1] = p
        else:
            survivors.append(p)
    if len(survivors) == target + 1:
        survivors.pop(0 if mag[survivors[0]] <= mag[survivors[-1]] else -1)
    return candidates[survivors].tolist()


def _single_exchange(ref_idx: list[int], residual: np.ndarray) -> list[int]:
    """Classical one-point exchange: swap the global argmax of |residual|
    into the reference, preserving sign alternation. The levelled error is
    then strictly nondecreasing, which rules out exchange cycles."""
    g = int(np.argmax(np.abs(residual)))
    if g in ref_idx:
        return list(ref_idx)
    sgn = 1.0 if residual[g] >= 0 else -1.0
    ref = list(ref_idx)
    pos = int(np.searchsorted(ref, g))
    if pos == 0:
        if np.sign(residual[ref[0]]) == sgn:
            ref[0] = g
        else:
            ref = [g] + ref[:-1]
    elif pos == len(ref):
        if np.sign(residual[ref[-1]]) == sgn:
            ref[-1] = g
        else:
            ref = ref[1:] + [g]
    else:
        if np.sign(residual[ref[pos - 1]]) == sgn:
            ref[pos - 1] = g
        else:
            ref[pos] = g
    return sorted(ref)


# the exchange stops, and the polish may lower the level, within REMEZ_TOL * max(1, level)
REMEZ_TOL = 1e-10

# The exchange of a row that has not converged after REMEZ_MAX_ITERATIONS
# iterations fails with a RemezConvergenceError.
REMEZ_MAX_ITERATIONS = 100


def remez(f: PrimalVector, n: int) -> RemezResult:
    """Best uniform approximation of a grid function by a polynomial of
    degree <= n: `remez_rows` over a batch of one row."""
    return remez_rows(f.space, f.values[None, :], n)[0]


def remez_rows(space: SpaceSpec, values, n: int) -> list[RemezResult]:
    """Best uniform approximation by a polynomial of degree <= n of each row
    of an (m, G) array of grid values, by discrete multi-point exchange plus
    one off-grid polish; one `RemezResult` per row, bit for bit the result
    of exchanging that row alone.

    The rows are exchanged together, in one loop per call. Each iteration
    solves the levelled systems of the rows that need one, then the trial
    systems, as one stacked solve each over every row of the call. The
    passes over the grid run in chunks of at most `spaces.QUOTIENT_BLOCK`
    grid values (rows x G, so 3 rows at G = 4097), the oracle's memory
    budget, as do the finiteness test, the scale and the in-class prefilter
    before the loop: per chunk, one batched Horner (`horner_rows`) for the
    residuals, one array comparison for convergence, and one flat split of
    the sign runs; each row's trim is the closed form of the one-at-a-time
    rule (see `_trim_reference`). A row leaves the loop as it converges, and
    between chunks it keeps only O(n) values: its reference, coefficients,
    level, level history and, once finished, its residual stencil. What is
    decided from one row's trimmed reference stays per row: the trial
    acceptance and the single-exchange fallback, whose residual is
    recomputed from the row's coefficients. A multi-point exchange is taken
    only when its trial levelled solve does not lower the level, and an
    accepted trial's solve is reused as the next iteration's.

    The certificate step runs once per call, as arrays over every row the
    loop finished: the parabolic polish of each reference point (from the
    residual at the point and its two neighbours, all the loop keeps of a
    finished row), one stacked levelled re-solve of the rows it moved, the
    test that the polish may only sharpen the level, and the residual signs.
    A row whose polish moves no point keeps its last discrete solve.

    A function already in the polynomial class short-circuits to error 0
    with a canonical Chebyshev-point reference, avoiding a degenerate
    levelling step.

    A row that fails (a non-finite value, a singular system, or no
    convergence within REMEZ_MAX_ITERATIONS) fails the call with the error of
    the first failing row, as exchanging the rows one by one would: the rows
    after the smallest failing row leave the loop as it fails, the rows
    before it are certified, and its error is raised.
    """
    if space.kind != KIND_C01:
        raise ValueError("remez operates on C01 grid functions")
    grid = space.grid
    g = grid.size
    if n + 2 > g:
        raise ValueError("need n + 2 <= grid_size")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != g:
        raise ValueError(f"expected rows of {g} grid values, got shape {values.shape}")
    m = values.shape[0]
    coef, level, scale = np.empty((m, n + 1)), np.empty(m), np.empty(m)
    ref, around = np.empty((m, n + 2), dtype=np.intp), np.empty((m, 3, n + 2))
    history: list[list[float]] = [[] for _ in range(m)]
    results: list[RemezResult | None] = [None] * m
    # the error of each failing row; rows after the first one no longer matter
    errors: dict[int, Exception] = {}
    ref0 = chebyshev_nodes(g, n)
    basis = _grid_powers(space, n)[1]
    step = max(1, QUOTIENT_BLOCK // g)
    for lo in range(0, m, step):
        rows = values[lo : lo + step]
        scale[lo : lo + step] = 1.0 + np.max(np.abs(rows), axis=1)
        finite = np.isfinite(rows).all(axis=1)
        for i in np.flatnonzero(~finite).tolist():
            errors[lo + i] = ValueError("vector entries must be finite")
        # the projection onto the orthonormal basis is only a cheap
        # prefilter: lstsq and its 1e-12 test decide, for rows that pass it
        live = lo + np.flatnonzero(finite)
        rows = values[live]
        near = np.max(np.abs(rows - (rows @ basis) @ basis.T), axis=1) <= 1e-9 * scale[live]
        for i in live[near].tolist():
            try:
                results[i] = _in_class_fit(space, values[i], n, scale[i], ref0)
            except np.linalg.LinAlgError as err:
                errors[i] = err

    active = [i for i in range(m) if results[i] is None and i not in errors]
    refs = {i: list(ref0) for i in active}
    kept = np.zeros(m, dtype=bool)  # the levelled solve of refs[i] is kept from an accepted trial
    finished: list[int] = []
    for _ in range(REMEZ_MAX_ITERATIONS):
        fresh = [i for i in active if not kept[i]]
        if fresh:
            idx = np.array([refs[i] for i in fresh])
            coef[fresh], level[fresh], failed = _leveled_solves(grid[idx], values[np.array(fresh)[:, None], idx], n)
            errors.update((fresh[pos], err) for pos, err in failed.items())
        active = [i for i in active if i < min(errors, default=m)]
        if not active:
            break
        kept[active] = False
        levels = np.abs(level[active])
        for i, lv in zip(active, levels.tolist()):
            history[i].append(lv)
        going, trials = [], []
        for lo in range(0, len(active), step):
            chunk, chunk_levels = active[lo : lo + step], levels[lo : lo + step]
            residual = values[chunk] - horner_rows(coef[chunk], grid)
            mags = np.abs(residual)
            done = np.max(mags, axis=1) - chunk_levels <= REMEZ_TOL * np.maximum(1.0, chunk_levels)
            stopped = []
            # the converged rows are split with the others, since selecting
            # the rest would copy the chunk; a chunk with no row left is not
            # split
            split = _alternating_extrema(residual, mags) if not done.all() else [None] * len(chunk)
            for pos, (i, r, mag, candidates, converged) in enumerate(zip(chunk, residual, mags, split, done.tolist())):
                if converged:
                    stopped.append(pos)
                    continue
                if len(candidates) < n + 2:
                    # too few sign runs for a multi-point exchange; the single
                    # exchange needs only the global peak
                    refs[i] = _single_exchange(refs[i], r)
                    going.append(i)
                    continue
                new_idx = _trim_reference(candidates, mag, n + 2)
                if new_idx == refs[i]:
                    stopped.append(pos)
                    continue
                trials.append((i, new_idx))
            if stopped:
                rows_stopped = [chunk[pos] for pos in stopped]
                idx = np.array([refs[i] for i in rows_stopped])
                ref[rows_stopped] = idx
                stencil = np.clip(idx[:, None, :] + np.array([[-1], [0], [1]]), 0, g - 1)
                around[rows_stopped] = residual[np.array(stopped)[:, None, None], stencil]
                finished += rows_stopped
        if trials:
            idx = np.array([new_idx for _, new_idx in trials])
            rows_t = np.array([i for i, _ in trials])
            trial_coef, trial_level, failed = _leveled_solves(grid[idx], values[rows_t[:, None], idx], n)
            for pos, (i, new_idx) in enumerate(trials):
                if pos in failed:
                    errors[i] = failed[pos]
                    continue
                # take the multi-point exchange only when it does not lower
                # the level; otherwise fall back to the monotone single
                # exchange, on the row's residual recomputed from its
                # coefficients: elementwise, so the chunk's row bit for bit
                if abs(trial_level[pos]) >= abs(level[i]) - 1e-14 * scale[i]:
                    refs[i] = new_idx
                    coef[i], level[i], kept[i] = trial_coef[pos], trial_level[pos], True
                else:
                    refs[i] = _single_exchange(refs[i], values[i] - horner_rows(coef[i : i + 1], grid)[0])
                going.append(i)
        active = sorted(going)
    for i in active:
        message = f"no convergence in {REMEZ_MAX_ITERATIONS} iterations"
        errors.setdefault(i, RemezConvergenceError(message, tuple(history[i])))
    rows = np.array(sorted(i for i in finished if i < min(errors, default=m)), dtype=np.intp)

    # the polish: each reference point moves to the vertex of the parabola
    # through the residual there and at its two neighbours, unless it is an
    # end node or the vertex is not a proper extremum within one node
    idx, lv = ref[rows], np.abs(level[rows])
    grid_pts, grid_vals = grid[idx], values[rows[:, None], idx]
    r0, r1, r2 = around[rows].transpose(1, 0, 2)
    denom = r0 - 2.0 * r1 + r2
    h = grid[1] - grid[0]
    vertex = (idx > 0) & (idx < g - 1) & ~(np.abs(denom) < 1e-300)
    shift = np.divide(0.5 * h * (r0 - r2), denom, out=np.zeros_like(denom), where=vertex)
    vertex &= ~(np.abs(shift) >= h)
    points = np.sort(np.where(vertex, grid_pts + shift, grid_pts), axis=1)
    samples = _sample_values(grid, values, points, rows)
    distinct = (np.diff(points, axis=1) != 0).all(axis=1)
    # a point left on its node samples there exactly, so a row whose points
    # all stayed has the last discrete solve
    moved = np.flatnonzero(distinct & (points != grid_pts).any(axis=1))
    discrete_coef = coef[rows]
    polished_coef, polished_level = discrete_coef.copy(), level[rows]
    if moved.size:
        polished_coef[moved], polished_level[moved], failed = _leveled_solves(points[moved], samples[moved], n)
        errors.update((int(rows[moved[pos]]), err) for pos, err in failed.items())
    if errors:
        raise errors[min(errors)]
    # the polish may only sharpen the certificate, never degrade it
    sharper = distinct & (np.abs(polished_level) >= lv - REMEZ_TOL * np.maximum(1.0, lv))
    error = np.where(sharper, np.abs(polished_level), lv)
    final_coef = np.where(sharper[:, None], polished_coef, discrete_coef)
    ref_pts = np.where(sharper[:, None], points, grid_pts)
    ref_vals = np.where(sharper[:, None], samples, grid_vals)
    # the residual at every row's reference, as one batched Horner
    signs = np.where(ref_vals - horner_rows(final_coef, ref_pts) < 0, -1, 1)
    for i, poly, lv_i, points_i, samples_i, signs_i, sharpened, discrete_ref, discrete in zip(
        rows.tolist(), final_coef.tolist(), error.tolist(), ref_pts.tolist(), ref_vals.tolist(),
        signs.tolist(), sharper.tolist(), idx.tolist(), discrete_coef.tolist(),
    ):
        if sharpened:
            history[i].append(lv_i)
        results[i] = RemezResult(
            polynomial=Polynomial(tuple(poly)),
            error=lv_i,
            reference=tuple(points_i),
            reference_values=tuple(samples_i),
            residual_signs=tuple(signs_i),
            iterations=len(history[i]),
            level_history=tuple(history[i]),
            discrete_reference=tuple(discrete_ref),
            discrete_polynomial=Polynomial(tuple(discrete)),
        )
    return results


def fits_on_grid(space: SpaceSpec, fits: list[RemezResult]) -> np.ndarray:
    """The best approximations of `remez_rows` on the grid, one row per fit,
    by one batched Horner; row i is bit for bit `fits[i].polynomial(grid)`."""
    if not fits:
        return np.empty((0, space.grid.size))
    return horner_rows(np.array([fit.polynomial.coefficients for fit in fits]), space.grid)


@functools.lru_cache(maxsize=64)
def chebyshev_nodes(g: int, n: int) -> tuple[int, ...]:
    """The n + 2 increasing indices of the nodes of a G-node grid nearest to
    the n + 2 Chebyshev points; where two points share a node, the smallest
    free indices make up the count. The first reference of the exchange,
    the discrete reference of a function already in the class, and the
    atoms of `fixed_points.poly_annihilator`. Built once per (G, n), as a
    tuple, so no caller can change it."""
    ref_idx = sorted({int(round(t * (g - 1))) for t in chebyshev_points(n + 2)})
    k = 0
    while len(ref_idx) < n + 2:  # collisions only at tiny grids
        if k not in ref_idx:
            ref_idx.append(k)
            ref_idx.sort()
        k += 1
    return tuple(ref_idx)


def _in_class_fit(space: SpaceSpec, fv: np.ndarray, n: int, scale: float, ref_idx: tuple[int, ...]):
    """The short-circuit result of a row that lstsq fits within 1e-12 *
    scale, or None."""
    vander = _grid_powers(space, n)[0]
    ls_coef, *_ = np.linalg.lstsq(vander, fv, rcond=None)
    ls_resid = fv - vander @ ls_coef
    if np.max(np.abs(ls_resid)) <= 1e-12 * scale:
        poly = Polynomial(tuple(ls_coef))
        ref = chebyshev_points(n + 2)
        return RemezResult(
            polynomial=poly,
            error=float(np.max(np.abs(ls_resid))),
            reference=tuple(float(t) for t in ref),
            reference_values=tuple(_sample_values(space.grid, fv, ref).tolist()),
            residual_signs=tuple(int(s) for s in (-1.0) ** np.arange(n + 2)),
            iterations=0,
            level_history=(),
            discrete_reference=ref_idx,
            discrete_polynomial=poly,
        )
    return None


PERTURBATION_SCALE = 5e-3  # sup norm of the random direction of `continuity_experiment`


def continuity_experiment(
    f: PrimalVector,
    n: int,
    perturbations: int = 32,
    g: PrimalVector | None = None,
    seed: int = 0,
) -> ContinuityReport:
    """Deviations ||P(f + g/m) - P(f)|| for m = 1..perturbations.

    When no direction g is supplied, a random bounded smooth grid function of
    sup norm PERTURBATION_SCALE is drawn. The report fits C on the first
    three quarters of the sequence and checks d_m <= C/m on the last quarter,
    plus the absolute bound on the final deviation.
    """
    if f.space.kind != KIND_C01:
        raise ValueError("continuity experiment needs a C01 grid function")
    if g is None:
        rng = np.random.default_rng(seed)
        grid = f.space.grid
        vals = np.zeros(grid.size)
        for k in range(1, 7):
            vals += rng.normal() * np.sin(np.pi * k * grid) / k
        vals += rng.normal() * grid
        peak = np.max(np.abs(vals))
        if peak > 0:
            vals *= PERTURBATION_SCALE / peak
        g = PrimalVector(f.space, vals)
    # the base and its perturbations f + g / m, m = 1..perturbations, as one
    # batch, built and compared in place: at fine grids these are the largest
    # arrays of the experiment
    rows = np.empty((perturbations + 1, f.values.size))
    rows[0] = f.values
    np.multiply((1.0 / np.arange(1, perturbations + 1))[:, None], g.values, out=rows[1:])
    rows[1:] += f.values
    fits = fits_on_grid(f.space, remez_rows(f.space, rows, n))
    fits[1:] -= fits[0]
    deviations = np.max(np.abs(fits[1:], out=fits[1:]), axis=1).tolist()
    gnorm = norm(g)
    split = max(1, (3 * perturbations) // 4)
    # 10% headroom: m * d_m climbs toward its limit from below, so the bare
    # head maximum would reject genuine C/m decay
    constant = 1.1 * max((m + 1) * d for m, d in enumerate(deviations[:split]))
    tail_ok = all(
        d <= constant / (m + 1) + 1e-12
        for m, d in list(enumerate(deviations))[split:]
    )
    final_bound = 1e-3 * (1.0 + gnorm)
    return ContinuityReport(
        deviations=tuple(deviations),
        perturbation_norm=gnorm,
        fitted_constant=float(constant),
        tail_ok=bool(tail_ok),
        final_ok=bool(deviations[-1] <= final_bound),
        final_bound=float(final_bound),
    )
