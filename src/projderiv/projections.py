"""The four families of closed convex sets the derivative operators project
onto: p-norm balls, positive cones, l_1 balls, and polynomial classes in
C[0, 1], with membership in the set-valued l_1 ball projection.

The closed-form projections live in `MapDescriptor.value_batch`. A
grid-seeded multi-start descent (`brute_force_project`) serves as an
independent oracle for them; it shares none of their code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chebyshev
from .spaces import (
    KIND_C01,
    KIND_L1,
    KIND_LP,
    PrimalVector,
    SpaceSpec,
    norm,
    norm_rows,
)

__all__ = [
    "ConvexSet",
    "ball",
    "positive_cone",
    "l1_ball",
    "poly_subspace",
    "l1_projection_set_contains",
    "brute_force_project",
    "INSIDE_SLACK",
]

BALL = "ball"
POSITIVE_CONE = "positive_cone"
L1_BALL = "l1_ball"
POLY_SUBSPACE = "poly_subspace"

# Points with norm within this relative slack of the radius count as inside
# the ball; the oracle's own feasibility slack, kept apart from the maps'
# sphere band.
INSIDE_SLACK = 1e-12

# Coefficient-mesh rows evaluated against the grid at once by the polynomial
# box search; bounds its temporaries to MESH_CHUNK x grid size floats.
MESH_CHUNK = 128


@dataclass(frozen=True)
class ConvexSet:
    """Descriptor of a closed convex target set."""

    kind: str
    space: SpaceSpec
    radius: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.kind == BALL:
            if self.space.kind != KIND_LP:
                raise ValueError("norm balls with single-valued projection need an Lp space")
            if self.radius is None or self.radius <= 0:
                raise ValueError("ball radius must be positive")
        elif self.kind == L1_BALL:
            if self.space.kind != KIND_L1:
                raise ValueError("l1 balls live in L1 spaces")
            if self.radius is None or self.radius <= 0:
                raise ValueError("ball radius must be positive")
        elif self.kind == POSITIVE_CONE:
            if self.space.kind not in (KIND_LP, KIND_L1):
                raise ValueError("the positive cone is used in Lp and L1 spaces")
        elif self.kind == POLY_SUBSPACE:
            if self.space.kind != KIND_C01:
                raise ValueError("polynomial classes live in C01")
            if self.degree is None or self.degree < 0:
                raise ValueError("polynomial degree must be nonnegative")
        else:
            raise ValueError(f"unknown convex set kind {self.kind!r}")

    def contains(self, v: PrimalVector, tol: float = 0.0) -> bool:
        if v.space != self.space:
            return False
        if self.kind in (BALL, L1_BALL):
            return norm(v) <= self.radius * (1.0 + INSIDE_SLACK) + tol
        if self.kind == POSITIVE_CONE:
            return bool(np.all(v.values >= -tol))
        grid = self.space.grid
        vander = grid[:, None] ** np.arange(self.degree + 1)[None, :]
        coef, *_ = np.linalg.lstsq(vander, v.values, rcond=None)
        return bool(np.max(np.abs(v.values - vander @ coef)) <= max(tol, 1e-9))


def ball(space: SpaceSpec, radius: float) -> ConvexSet:
    return ConvexSet(BALL, space, radius=float(radius))


def positive_cone(space: SpaceSpec) -> ConvexSet:
    return ConvexSet(POSITIVE_CONE, space)


def l1_ball(space: SpaceSpec, radius: float) -> ConvexSet:
    return ConvexSet(L1_BALL, space, radius=float(radius))


def poly_subspace(space: SpaceSpec, degree: int) -> ConvexSet:
    return ConvexSet(POLY_SUBSPACE, space, degree=int(degree))


# ---------------------------------------------------------------------------
# set-valued l_1 projection
# ---------------------------------------------------------------------------

def l1_projection_set_contains(
    x: PrimalVector, r: float, y: PrimalVector, tol: float = 1e-12
) -> bool:
    """Membership in the full (set-valued) l_1 ball projection: y is feasible
    and attains the distance max(||x||_1 - r, 0)."""
    scale = 1.0 + norm(x) + abs(r)
    if norm(y) > r + tol * scale:
        return False
    dist = max(norm(x) - r, 0.0)
    return abs(norm(x - y) - dist) <= tol * scale


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

PATTERN_ITERS = 600  # rounds of the 2 * dim axis steps plus the random steps
PATTERN_RANDOM_DIRS = 10  # random unit steps per round
PATTERN_PATIENCE = 2  # rounds without improvement before the step halves


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


def _brute_force_sequence(x: PrimalVector, cset: ConvexSet, resolution: int, seed: int):
    space = x.space
    dim = space.size
    if dim > 4:
        raise ValueError("grid search supports dim <= 4")
    per_axis = min(resolution, 12 if dim >= 4 else resolution) + 1

    if cset.kind in (BALL, L1_BALL):
        lo = np.full(dim, -cset.radius)
        hi = np.full(dim, cset.radius)
    else:
        lo = np.zeros(dim)
        hi = np.maximum(x.values, 0.0) + 0.5

    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    if cset.kind in (BALL, L1_BALL):
        mesh = mesh[norm_rows(space, mesh) <= cset.radius * (1 + INSIDE_SLACK)]
    objective_rows = norm_rows(space, mesh - x.values)
    order = np.argsort(objective_rows)
    seeds = mesh[order[:8]]

    rng = np.random.default_rng([seed, 101])
    cell = float(np.max((hi - lo) / max(per_axis - 1, 1)))
    best_y, best_val = None, np.inf

    if cset.kind in (BALL, L1_BALL):
        # x is outside (the inside case returned early), so the nearest point
        # lies on the sphere; search its radial parametrization z -> r z/||z||
        # unconstrained, which sidesteps the feasible-cone stall entirely
        r = cset.radius

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
            return cset.contains(PrimalVector(space, y))

        for s in seeds:
            y, val = _pattern_search(objective, feasible, s, cell, rng)
            if val < best_val:
                best_y, best_val = y, val
    return PrimalVector(space, best_y)


def _brute_force_poly(x: PrimalVector, cset: ConvexSet, resolution: int):
    n = cset.degree
    if n > 2:
        raise ValueError("coefficient box search supports degree <= 2")
    grid = x.space.grid
    vander = grid[:, None] ** np.arange(n + 1)[None, :]
    center, *_ = np.linalg.lstsq(vander, x.values, rcond=None)
    resid = float(np.max(np.abs(x.values - vander @ center)))
    # any minimax optimum q satisfies ||q - LS fit|| <= 2 * resid, which the
    # coefficient bound converts to a box in coefficient space (a constant is
    # its own coefficient, so degree 0 needs no determinant)
    if n == 0:
        half = max(2.0 * resid, 1e-12)
    else:
        half = chebyshev.coefficient_bound(max(2.0 * resid, 1e-12), n)
    per_axis = min(max(resolution, 5), 13)
    best = center
    for _ in range(6):
        axes = [np.linspace(c - half, c + half, per_axis) for c in best]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n + 1)
        best = mesh[int(np.argmin(_mesh_errors(mesh, vander, x.values)))]
        half /= 2.0
        if half < 1e-4:
            break

    # direction-based descent stalls in the flat valleys of the max residual,
    # so the refinement solves the grid problem exactly as the linear program
    # min eps subject to |f - V c| <= eps (independent of any exchange logic)
    refined = _minimax_lp(vander, x.values, best)
    if refined is not None:
        best = refined
    return PrimalVector(x.space, vander @ best)


def _mesh_errors(mesh: np.ndarray, vander: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sup-norm error on the grid of each coefficient row of the mesh,
    MESH_CHUNK rows at a time."""
    return np.concatenate([
        np.max(np.abs(mesh[start : start + MESH_CHUNK] @ vander.T - values[None, :]), axis=1)
        for start in range(0, len(mesh), MESH_CHUNK)
    ])


def _minimax_lp(vander: np.ndarray, values: np.ndarray, fallback: np.ndarray):
    from scipy.optimize import linprog

    m, k = vander.shape
    # variables (c_0..c_{k-1}, eps)
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    ones = np.ones((m, 1))
    a_ub = np.block([[vander, -ones], [-vander, -ones]])
    b_ub = np.concatenate([values, -values])
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * k + [(0, None)],
        method="highs",
    )
    if not result.success:
        return None
    return result.x[:-1]


def brute_force_project(
    x: PrimalVector, cset: ConvexSet, resolution: int = 40, seed: int = 0
) -> PrimalVector:
    """Independent nearest-point oracle: feasible grid seeding refined by
    multi-start descent (coefficient box search for polynomial classes).

    Never evaluates the closed-form projections; feasibility and objective
    use only norms.
    """
    if x.space != cset.space:
        raise ValueError("point and set live in different spaces")
    if cset.contains(x):
        return x
    if cset.kind == POLY_SUBSPACE:
        return _brute_force_poly(x, cset, resolution)
    return _brute_force_sequence(x, cset, resolution, seed)
