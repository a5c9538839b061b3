"""Best uniform polynomial approximation on [0, 1].

The projection of a grid function onto polynomials of degree <= n is computed
by a Remez exchange: the discrete minimax problem over the grid is solved by
multi-point exchange, then a single off-grid polish (three-point parabolic
refinement of the residual extrema) sharpens the equioscillation certificate
at coarse grids.

The exchange runs over the rows of an array (`remez_rows`; `remez` is a
batch of one). Per iteration, the rows still exchanging share one stacked
levelled solve, one stacked trial solve, one batched Horner for their
residuals (`horner_rows`) and one convergence comparison. The steps decided
from one row's residual (the sign-run split, the trim, the trial acceptance,
the single exchange and the polish) stay per row, so each row keeps the bits
of an exchange of that row alone.

The monomial basis lives here only: every system and fit takes its powers
from `_powers`, and `horner_rows` is the one polynomial evaluator.

The module also provides the power-matrix determinants A_n(t) = det[t^(i*j)]
(nonzero on (0, 1)), computed exactly by integer Bareiss elimination and
rounded once, their product factorization, and the coefficient bounds they
imply for norm-bounded polynomials.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spaces import KIND_C01, PrimalVector, SpaceSpec, norm

__all__ = [
    "Polynomial",
    "RemezResult",
    "RemezConvergenceError",
    "DeterminantReport",
    "ContinuityReport",
    "an_determinant",
    "an_recursive",
    "compare_determinants",
    "coeffs_from_values",
    "coefficient_bound",
    "derivative_coefficient_bound",
    "chebyshev_points",
    "chebyshev_nodes",
    "sample_value",
    "annihilator",
    "remez",
    "remez_rows",
    "horner_rows",
    "fits_on_grid",
    "continuity_experiment",
]

MAX_DETERMINANT_DEGREE = 8  # the power matrix at t=1/2 is ill conditioned beyond this


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
    """Determinant of the (n+1)x(n+1) matrix with entries t^(i*j), i, j = 0..n.

    Exact for every real t: t is taken as the exact ratio a/b of its
    ``as_integer_ratio()`` (a binary float is a rational), and scaling row i
    by b^(i*n) turns the matrix into the integers a^(ij) b^(i(n-j)). Integer
    Bareiss elimination gives their determinant, which over
    b^(n^2 (n+1)/2) is A_n(t). A float of any type (numpy's included) gets
    that rational rounded once to the nearest float, so the value keeps full
    relative accuracy even where the matrix is nearly singular; an int or a
    Fraction gets the exact Fraction.
    """
    if not 1 <= n <= MAX_DETERMINANT_DEGREE:
        raise ValueError(f"direct evaluation supports 1 <= n <= {MAX_DETERMINANT_DEGREE}")
    exact = not isinstance(t, (float, np.floating))
    a, b = (int(k) for k in (Fraction(t) if exact else t).as_integer_ratio())
    det = _bareiss_determinant(
        [[a ** (i * j) * b ** (i * (n - j)) for j in range(n + 1)] for i in range(n + 1)]
    )
    scale = b ** (n * n * (n + 1) // 2)
    return Fraction(det, scale) if exact else det / scale  # int / int rounds once


def _bareiss_determinant(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, in place: each step divides exactly by the previous pivot,
    so every entry stays an integer, and rows are swapped only at a zero
    pivot."""
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        tail = row_k[k + 1 :]
        for row in m[k + 1 :]:
            lead = row[k]
            row[k + 1 :] = [(x * pivot - lead * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pivot
    return sign * m[-1][-1]


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
    direct = tuple(float(an_determinant(t, n)) for t in pts)
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
    import math

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


def sample_value(f: PrimalVector, t: float) -> float:
    """Value of a grid function at an arbitrary point in [0, 1], by the
    parabola through the three nodes centered at the nearest one (the line
    through both nodes of a two-node grid). Exact at grid nodes."""
    return _sample_value(f.space.grid, f.values, t)


def _sample_value(grid: np.ndarray, values: np.ndarray, t: float) -> float:
    g = grid.size
    d = float(t)
    j = int(round(d * (g - 1)))
    if 0 <= j < g and grid[j] == d:
        return float(values[j])
    if g == 2:
        return float(values[0] * (1.0 - d) + values[1] * d)
    h = 1.0 / (g - 1)
    j = min(max(j, 1), g - 2)
    t0, t1, t2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = values[j - 1], values[j], values[j + 1]
    # Lagrange on three equispaced nodes
    l0 = (d - t1) * (d - t2) / (2 * h * h)
    l1 = -(d - t0) * (d - t2) / (h * h)
    l2 = (d - t0) * (d - t1) / (2 * h * h)
    return float(f0 * l0 + f1 * l1 + f2 * l2)


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


def _alternating_extrema(residual: np.ndarray) -> list[int]:
    """Indices of the per-sign-run argmax of |residual|; one candidate per
    run, so candidates alternate in sign by construction. Exact zeros carry
    the previous nonzero sign (+1 before the first one), and a tie within a
    run goes to its first index, as with np.argmax."""
    signs = np.sign(residual)
    if not signs.all():
        # index of the last nonzero sign at or before each point, -1 before any
        last = np.maximum.accumulate(np.where(signs != 0.0, np.arange(signs.size), -1))
        signs = np.where(last >= 0, signs[np.maximum(last, 0)], 1.0)
    # run boundaries: 0, each index where the sign changes, and the end
    edges = np.concatenate(([0], np.flatnonzero(signs[1:] != signs[:-1]) + 1, [signs.size]))
    starts = edges[:-1]
    mags = np.abs(residual)
    # every run has a point not below its peak (a NaN is a run of its own),
    # so the first such point at or after each start is that run's argmax
    peaks = np.repeat(np.maximum.reduceat(mags, starts), edges[1:] - starts)
    hits = np.flatnonzero(~(mags < peaks))
    return hits[np.searchsorted(hits, starts)].tolist()


def _trim_reference(candidates: list[int], residual: np.ndarray, target: int) -> list[int]:
    """Reduce an alternating candidate list to `target` points by repeatedly
    removing the smallest-magnitude candidate (the first one on a tie);
    removing an interior one joins two same-sign neighbours, of which the
    larger is kept (the left one on a tie). The global maximum always
    survives.

    Magnitudes never change and positions only drop out, so a heap keyed by
    (magnitude, position) with lazy deletion finds each minimum, and a
    doubly linked list over the positions finds its neighbours: O(k log k).
    """
    size = len(candidates)
    mags = np.abs(residual[candidates]).tolist()
    # position `size` is a sentinel that closes the list at both ends
    nxt = list(range(1, size + 1)) + [0]
    prev = [size] + list(range(size))
    alive = [True] * size

    def unlink(i: int) -> None:
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


def _polish_point(grid: np.ndarray, residual: np.ndarray, j: int):
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


# the exchange stops, and the polish may lower the level, within REMEZ_TOL * max(1, level)
REMEZ_TOL = 1e-10

# The exchange of a row that has not converged after REMEZ_MAX_ITERATIONS
# iterations fails with a RemezConvergenceError.
REMEZ_MAX_ITERATIONS = 100

# Largest stack of grid values (rows x G) that `remez_rows` exchanges at
# once, the budget of limsup_oracle.QUOTIENT_BLOCK: a larger stack of
# fine-grid rows would raise the peak memory.
REMEZ_BLOCK = 2**14


def remez(f: PrimalVector, n: int) -> RemezResult:
    """Best uniform approximation of a grid function by a polynomial of
    degree <= n: `remez_rows` over a batch of one row."""
    return remez_rows(f.space, f.values[None, :], n)[0]


def remez_rows(space: SpaceSpec, values, n: int) -> list[RemezResult]:
    """Best uniform approximation by a polynomial of degree <= n of each row
    of an (m, G) array of grid values, by discrete multi-point exchange plus
    one off-grid polish; one `RemezResult` per row, bit for bit the result
    of exchanging that row alone.

    The rows are exchanged together, in blocks of at most REMEZ_BLOCK grid
    values. Each iteration solves the levelled systems of the rows that need
    one, then the trial systems, as one stacked solve each; it evaluates
    every row's residual by one batched Horner (`horner_rows`) and tests
    convergence as one array comparison, and a row leaves the block as it
    converges. The polish solves are one stacked solve too. What is decided
    from one row's residual stays per row: the sign-run split and the trim
    (one flat pass over the block's residuals falls out of cache at fine
    grids), the trial acceptance, the single-exchange fallback and the
    polish.

    A multi-point exchange is taken only when its trial levelled solve does
    not lower the level; an accepted trial's solve is reused as the next
    iteration's, and a polish that moves no point reuses the last discrete
    solve, so neither reference is solved again.

    A function already in the polynomial class short-circuits to error 0
    with a canonical Chebyshev-point reference, avoiding a degenerate
    levelling step.

    A row that fails (a non-finite value, a singular system, or no
    convergence within REMEZ_MAX_ITERATIONS) fails the call with the error of
    the first failing row, as exchanging the rows one by one would.
    """
    if space.kind != KIND_C01:
        raise ValueError("remez operates on C01 grid functions")
    g = space.grid.size
    if n + 2 > g:
        raise ValueError("need n + 2 <= grid_size")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != g:
        raise ValueError(f"expected rows of {g} grid values, got shape {values.shape}")
    step = max(1, REMEZ_BLOCK // g)
    results: list[RemezResult] = []
    for lo in range(0, values.shape[0], step):
        results += _remez_block(space, values[lo : lo + step], n)
    return results


def fits_on_grid(space: SpaceSpec, fits: list[RemezResult]) -> np.ndarray:
    """The best approximations of `remez_rows` on the grid, one row per fit,
    by one batched Horner; row i is bit for bit `fits[i].polynomial(grid)`."""
    if not fits:
        return np.empty((0, space.grid.size))
    return horner_rows(np.array([fit.polynomial.coefficients for fit in fits]), space.grid)


def chebyshev_nodes(g: int, n: int) -> list[int]:
    """The n + 2 increasing indices of the nodes of a G-node grid nearest to
    the n + 2 Chebyshev points; where two points share a node, the smallest
    free indices make up the count. The first reference of the exchange,
    the discrete reference of a function already in the class, and the
    atoms of `fixed_points.poly_annihilator`."""
    ref_idx = sorted({int(round(t * (g - 1))) for t in chebyshev_points(n + 2)})
    k = 0
    while len(ref_idx) < n + 2:  # collisions only at tiny grids
        if k not in ref_idx:
            ref_idx.append(k)
            ref_idx.sort()
        k += 1
    return ref_idx


def _in_class_fit(space: SpaceSpec, fv: np.ndarray, n: int, scale: float, ref_idx: list[int]):
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
            reference_values=tuple(_sample_value(space.grid, fv, t) for t in ref),
            residual_signs=tuple(int(s) for s in (-1.0) ** np.arange(n + 2)),
            iterations=0,
            level_history=(),
            discrete_reference=tuple(ref_idx),
            discrete_polynomial=poly,
        )
    return None


def _polished_reference(grid: np.ndarray, fv: np.ndarray, ref_idx: list[int], residual: np.ndarray):
    """The reference moved to the residual's nearby off-grid extrema, in
    increasing order, with the sampled values there."""
    points, samples = [], []
    for j in ref_idx:
        t_star = _polish_point(grid, residual, j)
        if t_star is None:
            points.append(float(grid[j]))
            samples.append(float(fv[j]))
        else:
            points.append(t_star)
            samples.append(_sample_value(grid, fv, t_star))
    order = np.argsort(points)
    return [points[i] for i in order], [samples[i] for i in order]


def _remez_block(space: SpaceSpec, fv: np.ndarray, n: int) -> list[RemezResult]:
    """`remez_rows` over the rows of one block."""
    grid = space.grid
    count = fv.shape[0]
    results: list[RemezResult | None] = [None] * count
    # the error of each failing row; rows after the first one no longer matter
    errors: dict[int, Exception] = {}
    finite = np.isfinite(fv).all(axis=1)
    for i in np.flatnonzero(~finite).tolist():
        errors[i] = ValueError("vector entries must be finite")
    live = np.flatnonzero(finite)
    scale = 1.0 + np.max(np.abs(fv), axis=1)
    ref0 = chebyshev_nodes(grid.size, n)

    # the projection onto the orthonormal basis is only a cheap prefilter:
    # lstsq and its 1e-12 test decide, for rows that pass it
    basis = _grid_powers(space, n)[1]
    rows = fv[live]
    near = np.max(np.abs(rows - (rows @ basis) @ basis.T), axis=1) <= 1e-9 * scale[live]
    for i in live[near].tolist():
        try:
            results[i] = _in_class_fit(space, fv[i], n, scale[i], ref0)
        except np.linalg.LinAlgError as err:
            errors[i] = err

    # phase 1: discrete exchange on the grid
    active = [i for i in live.tolist() if results[i] is None and i not in errors]
    refs = {i: list(ref0) for i in active}
    history: dict[int, list[float]] = {i: [] for i in active}
    coef = np.empty((count, n + 1))
    level = np.empty(count)
    kept = np.zeros(count, dtype=bool)  # the levelled solve of refs[i] is kept from an accepted trial
    final_residual: dict[int, np.ndarray] = {}
    for _ in range(REMEZ_MAX_ITERATIONS):
        fresh = [i for i in active if not kept[i]]
        if fresh:
            idx = np.array([refs[i] for i in fresh])
            coef[fresh], level[fresh], failed = _leveled_solves(grid[idx], fv[np.array(fresh)[:, None], idx], n)
            errors.update((fresh[pos], err) for pos, err in failed.items())
        active = [i for i in active if i < min(errors, default=count)]
        if not active:
            break
        kept[active] = False
        levels = np.abs(level[active])
        for i, lv in zip(active, levels.tolist()):
            history[i].append(lv)
        residual = fv[active] - horner_rows(coef[active], grid)
        done = np.max(np.abs(residual), axis=1) - levels <= REMEZ_TOL * np.maximum(1.0, levels)
        going, trials = [], []
        for i, r, converged in zip(active, residual, done.tolist()):
            if converged:
                final_residual[i] = r.copy()
                continue
            candidates = _alternating_extrema(r)
            if len(candidates) < n + 2:
                # too few sign runs for a multi-point exchange; the single
                # exchange needs only the global peak
                refs[i] = _single_exchange(refs[i], r)
                going.append(i)
                continue
            new_idx = _trim_reference(candidates, r, n + 2)
            if new_idx == refs[i]:
                final_residual[i] = r.copy()
                continue
            trials.append((i, new_idx, r))
        if trials:
            idx = np.array([new_idx for _, new_idx, _ in trials])
            rows_t = np.array([i for i, _, _ in trials])
            trial_coef, trial_level, failed = _leveled_solves(grid[idx], fv[rows_t[:, None], idx], n)
            for pos, (i, new_idx, r) in enumerate(trials):
                if pos in failed:
                    errors[i] = failed[pos]
                    continue
                # take the multi-point exchange only when it does not lower
                # the level; otherwise fall back to the monotone single exchange
                if abs(trial_level[pos]) >= abs(level[i]) - 1e-14 * scale[i]:
                    refs[i] = new_idx
                    coef[i], level[i], kept[i] = trial_coef[pos], trial_level[pos], True
                else:
                    refs[i] = _single_exchange(refs[i], r)
                going.append(i)
        active = sorted(going)
    for i in active:
        message = f"no convergence in {REMEZ_MAX_ITERATIONS} iterations"
        errors.setdefault(i, RemezConvergenceError(message, tuple(history[i])))

    # phase 2: move each reference point to its nearby off-grid extremum
    finished = sorted(i for i in final_residual if i < min(errors, default=count))
    polished = {}
    for i in finished:
        points, samples = _polished_reference(grid, fv[i], refs[i], final_residual[i])
        if len(set(points)) == n + 2:
            polished[i] = (points, samples)
    # a polish that moved nothing, bit for bit, has the last discrete solve
    moved = [
        i for i, pair in polished.items()
        if np.array(pair).tobytes() != np.array([grid[refs[i]], fv[i, refs[i]]]).tobytes()
    ]
    if moved:
        stack = np.array([polished[i] for i in moved])
        moved_coef, moved_level, failed = _leveled_solves(stack[:, 0], stack[:, 1], n)
        errors.update((moved[pos], err) for pos, err in failed.items())
    if errors:
        raise errors[min(errors)]

    polys, final_levels, references = [], [], []
    for i in finished:
        discrete = Polynomial(tuple(coef[i]))
        poly, lv = discrete, abs(float(level[i]))
        reference = (grid[refs[i]].tolist(), fv[i, refs[i]].tolist())
        if i in polished:
            if i in moved:
                pos = moved.index(i)
                poly2, level2 = Polynomial(tuple(moved_coef[pos])), float(moved_level[pos])
            else:
                poly2, level2 = poly, lv
            # the polish may only sharpen the certificate, never degrade it
            if abs(level2) >= lv - REMEZ_TOL * max(1.0, lv):
                poly, lv, reference = poly2, abs(level2), polished[i]
                history[i].append(lv)
        polys.append((discrete, poly))
        final_levels.append(lv)
        references.append(reference)
    if not finished:
        return results
    # the residual at every row's reference, as one batched Horner
    ref_pts, ref_vals = (np.array(side) for side in zip(*references))
    resid_at_ref = ref_vals - horner_rows(np.array([poly.coefficients for _, poly in polys]), ref_pts)
    for i, (discrete, poly), lv, (points, samples), resid in zip(
        finished, polys, final_levels, references, resid_at_ref
    ):
        results[i] = RemezResult(
            polynomial=poly,
            error=lv,
            reference=tuple(points),
            reference_values=tuple(samples),
            residual_signs=tuple(int(s) if s != 0 else 1 for s in np.sign(resid)),
            iterations=len(history[i]),
            level_history=tuple(history[i]),
            discrete_reference=tuple(refs[i]),
            discrete_polynomial=discrete,
        )
    return results


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
    fitted = fits_on_grid(f.space, remez_rows(f.space, rows, n))
    fitted[1:] -= fitted[0]
    deviations = np.max(np.abs(fitted[1:], out=fitted[1:]), axis=1).tolist()
    gnorm = norm(g)
    split = max(1, (3 * perturbations) // 4)
    # 10% headroom: m * d_m climbs toward its limit from below, so the bare
    # head maximum would reject genuine C/m decay
    fitted = 1.1 * max((m + 1) * d for m, d in enumerate(deviations[:split]))
    tail_ok = all(
        d <= fitted / (m + 1) + 1e-12
        for m, d in list(enumerate(deviations))[split:]
    )
    final_bound = 1e-3 * (1.0 + gnorm)
    return ContinuityReport(
        deviations=tuple(deviations),
        perturbation_norm=gnorm,
        fitted_constant=float(fitted),
        tail_ok=bool(tail_ok),
        final_ok=bool(deviations[-1] <= final_bound),
        final_bound=float(final_bound),
    )
