"""Best uniform polynomial approximation on [0, 1].

The projection of a grid function onto polynomials of degree <= n is computed
by a Remez exchange: the discrete minimax problem over the grid is solved by
multi-point exchange, then a single off-grid polish (three-point parabolic
refinement of the residual extrema) sharpens the equioscillation certificate
at coarse grids.

The module also provides the power-matrix determinants A_n(t) = det[t^(i*j)]
(nonzero on (0, 1)), their product factorization, and the coefficient bounds
they imply for norm-bounded polynomials.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

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
    "sample_value",
    "annihilator",
    "remez",
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
        return npoly.polyval(t, self.coefficients)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(npoly.polyder(self.coefficients)))

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

    Gaussian elimination with partial pivoting in exact rational arithmetic:
    a float argument (itself an exact binary rational) is promoted to a
    Fraction and the result rounded once at the end, so the value keeps full
    relative accuracy even where the matrix is nearly singular. A Fraction
    argument returns the exact Fraction.
    """
    if not 1 <= n <= MAX_DETERMINANT_DEGREE:
        raise ValueError(f"direct evaluation supports 1 <= n <= {MAX_DETERMINANT_DEGREE}")
    if isinstance(t, float):
        from fractions import Fraction

        return float(an_determinant(Fraction(t), n))
    m = [[t ** (i * j) for j in range(n + 1)] for i in range(n + 1)]
    det = t ** 0  # multiplicative identity of t's numeric type
    size = n + 1
    for col in range(size):
        piv = max(range(col, size), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            return det * 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            m[r] = [m[r][j] - factor * m[col][j] for j in range(size)]
    return det


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
    nodes = 0.5 ** np.arange(n + 1)
    system = nodes[:, None] ** np.arange(n + 1)[None, :]
    coeffs = np.linalg.solve(system, b)
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

def chebyshev_points(count: int) -> np.ndarray:
    """Chebyshev points of the second kind mapped to [0, 1], increasing."""
    if count < 2:
        raise ValueError("need at least two points")
    j = np.arange(count)
    return (1.0 - np.cos(np.pi * j / (count - 1))) / 2.0


def sample_value(f: PrimalVector, t: float) -> float:
    """Value of a grid function at an arbitrary point in [0, 1], by the
    parabola through the three nodes centered at the nearest one. Exact at
    grid nodes."""
    grid = f.space.grid
    g = grid.size
    h = 1.0 / (g - 1)
    j = int(round(float(t) * (g - 1)))
    j = min(max(j, 1), g - 2)
    t0, t1, t2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = f.values[j - 1], f.values[j], f.values[j + 1]
    # Lagrange on three equispaced nodes
    d = float(t)
    l0 = (d - t1) * (d - t2) / (2 * h * h)
    l1 = -(d - t0) * (d - t2) / (h * h)
    l2 = (d - t0) * (d - t1) / (2 * h * h)
    return float(f0 * l0 + f1 * l1 + f2 * l2)


def annihilator(points: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Weights w on n + 2 points that annihilate every polynomial of degree
    <= n: the null vector of the moment matrix [t_i^k], scaled to total
    variation 1 with a positive first weight. Also returns the annihilation
    residual max_k |sum_i w_i t_i^k|, which is zero in exact arithmetic."""
    moments = points[None, :] ** np.arange(n + 1)[:, None]
    _, _, vt = np.linalg.svd(moments)
    weights = vt[-1]
    if weights[0] < 0:
        weights = -weights
    weights = weights / np.sum(np.abs(weights))
    return weights, float(np.max(np.abs(moments @ weights)))


def _leveled_solve(points: np.ndarray, values: np.ndarray, n: int):
    """Solve  p(t_i) + (-1)^i h = f(t_i)  for the coefficients of p and the
    level h."""
    count = points.size
    system = np.zeros((count, count))
    system[:, : n + 1] = points[:, None] ** np.arange(n + 1)[None, :]
    system[:, n + 1] = (-1.0) ** np.arange(count)
    sol = np.linalg.solve(system, values)
    return Polynomial(tuple(sol[: n + 1])), float(sol[n + 1])


def _alternating_extrema(residual: np.ndarray) -> list[int]:
    """Indices of the per-sign-run argmax of |residual|; one candidate per
    run, so candidates alternate in sign by construction. Exact zeros carry
    the previous nonzero sign (+1 before the first one), and a tie within a
    run goes to its first index, as with np.argmax."""
    signs = np.sign(residual)
    # index of the last nonzero sign at or before each point, -1 before any
    last = np.maximum.accumulate(np.where(signs != 0.0, np.arange(signs.size), -1))
    carried = np.where(last >= 0, signs[np.maximum(last, 0)], 1.0)
    starts = np.flatnonzero(np.diff(carried, prepend=0.0))  # carried is +-1
    run = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, signs.size]))
    mags = np.abs(residual)
    hits = np.flatnonzero(mags == np.maximum.reduceat(mags, starts)[run])
    return hits[np.diff(run[hits], prepend=-1) != 0].tolist()  # first hit per run


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


def remez(f: PrimalVector, n: int, max_iterations: int = 100) -> RemezResult:
    """Best uniform approximation of a grid function by a polynomial of
    degree <= n, by discrete multi-point exchange plus one off-grid polish.

    A multi-point exchange is taken only when its trial levelled solve does
    not lower the level; an accepted trial's solve is reused as the next
    iteration's, and a polish that moves no point reuses the last discrete
    solve, so neither reference is solved again.

    A function already in the polynomial class short-circuits to error 0
    with a canonical Chebyshev-point reference, avoiding a degenerate
    levelling step.
    """
    if f.space.kind != KIND_C01:
        raise ValueError("remez operates on C01 grid functions")
    grid = f.space.grid
    g = grid.size
    if n + 2 > g:
        raise ValueError("need n + 2 <= grid_size")
    fv = f.values
    scale = 1.0 + float(np.max(np.abs(fv)))

    # the nodes nearest to the Chebyshev points: phase 1's first reference,
    # and the discrete reference of a function already in the class
    ref_idx = sorted(
        {int(round(t * (g - 1))) for t in chebyshev_points(n + 2)}
    )
    k = 0
    while len(ref_idx) < n + 2:  # collisions only at tiny grids
        if k not in ref_idx:
            ref_idx.append(k)
            ref_idx.sort()
        k += 1

    # the projection onto the orthonormal basis is only a cheap prefilter:
    # lstsq and its 1e-12 test decide, for inputs that pass it
    basis = f.space.power_basis(n)
    if np.max(np.abs(fv - basis @ (basis.T @ fv))) <= 1e-9 * scale:
        vander = f.space.power_matrix(n)
        ls_coef, *_ = np.linalg.lstsq(vander, fv, rcond=None)
        ls_resid = fv - vander @ ls_coef
        if np.max(np.abs(ls_resid)) <= 1e-12 * scale:
            ref = chebyshev_points(n + 2)
            poly = Polynomial(tuple(ls_coef))
            signs = tuple(int(s) for s in (-1.0) ** np.arange(n + 2))
            ref_vals = tuple(sample_value(f, t) for t in ref)
            return RemezResult(
                polynomial=poly,
                error=float(np.max(np.abs(ls_resid))),
                reference=tuple(float(t) for t in ref),
                reference_values=ref_vals,
                residual_signs=signs,
                iterations=0,
                level_history=(),
                discrete_reference=tuple(ref_idx),
                discrete_polynomial=poly,
            )

    # phase 1: discrete exchange on the grid
    history: list[float] = []
    poly = None
    level = 0.0
    solved = None  # the levelled solve of ref_idx, kept from an accepted trial
    for iteration in range(1, max_iterations + 1):
        poly, level = solved or _leveled_solve(grid[ref_idx], fv[ref_idx], n)
        solved = None
        history.append(abs(level))
        residual = fv - poly(grid)
        max_resid = float(np.max(np.abs(residual)))
        if max_resid - abs(level) <= REMEZ_TOL * max(1.0, abs(level)):
            break
        candidates = _alternating_extrema(residual)
        if len(candidates) < n + 2:
            # too few sign runs for a multi-point exchange; the single
            # exchange needs only the global peak
            ref_idx = _single_exchange(ref_idx, residual)
            continue
        new_idx = _trim_reference(candidates, residual, n + 2)
        if new_idx == ref_idx:
            break
        # take the multi-point exchange only when it does not lower the
        # level; otherwise fall back to the monotone single exchange
        trial = _leveled_solve(grid[new_idx], fv[new_idx], n)
        if abs(trial[1]) >= abs(level) - 1e-14 * scale:
            ref_idx, solved = new_idx, trial
        else:
            ref_idx = _single_exchange(ref_idx, residual)
    else:
        raise RemezConvergenceError(
            f"no convergence in {max_iterations} iterations", tuple(history)
        )

    discrete_reference, discrete_polynomial = tuple(ref_idx), poly
    ref_pts = [float(grid[j]) for j in ref_idx]
    ref_vals = [float(fv[j]) for j in ref_idx]

    # phase 2: move each reference point to its nearby off-grid extremum
    residual = fv - poly(grid)
    polished_pts = []
    polished_vals = []
    for j in ref_idx:
        t_star = _polish_point(grid, residual, j)
        if t_star is None:
            polished_pts.append(float(grid[j]))
            polished_vals.append(float(fv[j]))
        else:
            polished_pts.append(t_star)
            polished_vals.append(sample_value(f, t_star))
    order = np.argsort(polished_pts)
    polished_pts = [polished_pts[i] for i in order]
    polished_vals = [polished_vals[i] for i in order]
    if len(set(polished_pts)) == n + 2:
        polished = np.array([polished_pts, polished_vals])
        if polished.tobytes() == np.array([ref_pts, ref_vals]).tobytes():
            # nothing moved, bit for bit: the last discrete solve is this solve
            poly2, level2 = poly, level
        else:
            poly2, level2 = _leveled_solve(polished[0], polished[1], n)
        # the polish may only sharpen the certificate, never degrade it
        if abs(level2) >= abs(level) - REMEZ_TOL * max(1.0, abs(level)):
            poly, level = poly2, abs(level2)
            ref_pts, ref_vals = polished_pts, polished_vals
            history.append(abs(level2))

    level = abs(level)
    resid_at_ref = np.array(ref_vals) - poly(np.array(ref_pts))
    signs = tuple(int(s) if s != 0 else 1 for s in np.sign(resid_at_ref))
    return RemezResult(
        polynomial=poly,
        error=float(level),
        reference=tuple(ref_pts),
        reference_values=tuple(ref_vals),
        residual_signs=signs,
        iterations=len(history),
        level_history=tuple(history),
        discrete_reference=discrete_reference,
        discrete_polynomial=discrete_polynomial,
    )


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
    base = remez(f, n).polynomial
    base_grid = base(f.space.grid)
    deviations = []
    for m in range(1, perturbations + 1):
        shifted = f + (1.0 / m) * g
        pm = remez(shifted, n).polynomial
        deviations.append(float(np.max(np.abs(pm(f.space.grid) - base_grid))))
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
