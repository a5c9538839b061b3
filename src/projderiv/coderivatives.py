"""Closed-form generalized adjoint derivatives (coderivatives) of the affine
and projection families, returned as symbolic dual sets with exact
membership tests.

Cases the closed forms do not cover are surfaced explicitly: boundary base
points raise `BoundaryCaseError`, and combinations that only the sampling
oracle can resolve raise `OracleOnlyError` instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import chebyshev
from .spaces import (
    KIND_C01,
    KIND_L1,
    KIND_LP,
    DualVector,
    IndexSet,
    PrimalVector,
    SpaceSpec,
    dual_norm,
    duality_map,
    duality_map_l1_selection,
    norm,
    norm_rows,
    pairing,
)

__all__ = [
    "AFFINE",
    "BALL_PROJ",
    "CONE_PROJ",
    "L1_BALL_PROJ",
    "POLY_PROJ",
    "BoundaryCaseError",
    "OracleOnlyError",
    "MapDescriptor",
    "CoderivativeSet",
    "FixedPointCharacterization",
    "affine_map",
    "ball_projection_map",
    "cone_projection_map",
    "l1_ball_projection_map",
    "poly_projection_map",
    "projection_gap",
    "INSIDE_SLACK",
    "coderiv_affine",
    "coderiv_ball_lp",
    "coderiv_cone_l2",
    "coderiv_cone_lp_theta_membership",
    "coderiv_cone_lp_at_origin",
    "coderiv_l1ball",
    "zm_index_set",
    "ZM_POSITIVITY_THRESHOLD",
]

AFFINE = "affine"
BALL_PROJ = "ball_proj"
CONE_PROJ = "cone_proj"
L1_BALL_PROJ = "l1_ball_proj"
POLY_PROJ = "poly_proj"

# strict positivity threshold used when classifying base points of the cone
ZM_POSITIVITY_THRESHOLD = 1e-12

# Half-width, relative to max(1, r), of the band around the sphere ||x|| = r
# that the ball and l_1 ball maps treat as the sphere itself: its points take
# the inside branch of the value and have no closed-form derivative.
SPHERE_BAND = 1e-12


class BoundaryCaseError(ValueError):
    """The base point sits on the set boundary, which the closed forms do
    not cover."""


class OracleOnlyError(ValueError):
    """No closed form exists for this combination; only the sampling oracle
    can resolve it."""


@dataclass(frozen=True, eq=False)
class MapDescriptor:
    """A closed description of one of the mapping families, and the one home
    of everything that depends on which family it is.

    affine:       f(u) = shift + scale * u (single valued everywhere).
    ball_proj:    nearest point of the radius-r ball in an Lp space.
    cone_proj:    componentwise clamp onto the positive cone (Lp or L1).
    l1_ball_proj: canonical selection (r/||u||_1) u of the set-valued l_1
                  ball projection.
    poly_proj:    best uniform polynomial approximation of degree <= degree
                  in C[0, 1] (single valued).
    """

    kind: str
    space: SpaceSpec
    shift: PrimalVector | None = None
    scale: float = 1.0
    radius: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.kind == AFFINE:
            if self.shift is None or self.shift.space != self.space:
                raise ValueError("affine maps need a shift in the same space")
        elif self.kind == BALL_PROJ:
            if self.space.kind != KIND_LP or self.radius is None or self.radius <= 0:
                raise ValueError("ball projections need an Lp space and r > 0")
        elif self.kind == CONE_PROJ:
            if self.space.kind not in (KIND_LP, KIND_L1):
                raise ValueError("cone projections need a sequence space")
        elif self.kind == L1_BALL_PROJ:
            if self.space.kind != KIND_L1 or self.radius is None or self.radius <= 0:
                raise ValueError("l1 ball projections need an L1 space and r > 0")
        elif self.kind == POLY_PROJ:
            if self.space.kind != KIND_C01 or self.degree is None or self.degree < 0:
                raise ValueError("polynomial projections need a C01 space and degree >= 0")
        else:
            raise ValueError(f"unknown map kind {self.kind!r}")

    def value(self, u: PrimalVector) -> PrimalVector:
        """Single value, or the canonical selection for the l_1 ball."""
        return PrimalVector(self.space, self.value_batch(u.values[None, :])[0])

    def value_batch(self, rows: np.ndarray) -> np.ndarray:
        """`value` over the rows of a (m, size) array; the one value formula.
        Points on the sphere of either ball take the inside branch."""
        rows = np.asarray(rows, dtype=float)
        if self.kind == AFFINE:
            return self.shift.values[None, :] + self.scale * rows
        if self.kind == CONE_PROJ:
            return np.maximum(rows, 0.0)
        if self.kind in (BALL_PROJ, L1_BALL_PROJ):
            norms = norm_rows(self.space, rows)
            inside = _sphere_side(norms, self.radius) <= 0
            factors = np.where(inside, 1.0, self.radius / np.where(inside, 1.0, norms))
            return rows * factors[:, None]
        out = np.empty_like(rows)
        for i, row in enumerate(rows):
            fit = chebyshev.remez(PrimalVector(self.space, row), self.degree)
            out[i] = fit.polynomial(self.space.grid)
        return out

    def graph_contains(self, x: PrimalVector, y: PrimalVector, tol: float = 1e-9) -> bool:
        if x.space != self.space or y.space != self.space:
            return False
        scale = 1.0 + norm(x)
        if self.kind == L1_BALL_PROJ:
            return projection_gap(self, x, y) <= tol * scale
        return norm(y - self.value(x)) <= tol * scale

    def same_branch(self, x: PrimalVector, u: PrimalVector) -> bool:
        """Whether u lies in the same smooth piece of the map as x (used to
        keep directed rays away from branch crossings)."""
        if self.kind in (BALL_PROJ, L1_BALL_PROJ):
            return bool((self._side(x) <= 0) == (self._side(u) <= 0))
        if self.kind == CONE_PROJ:
            sx, su = np.sign(x.values), np.sign(u.values)
            active = sx != 0
            return bool(np.all(sx[active] == su[active]))
        return True

    def _side(self, x: PrimalVector):
        return _sphere_side(norm(x), self.radius)

    @cached_property
    def kink_rays(self) -> tuple[PrimalVector, ...]:
        """Signed basis rays, aligned with the coordinate kinks of the cone
        and l_1 maps; none for the other kinds."""
        if self.kind not in (CONE_PROJ, L1_BALL_PROJ):
            return ()
        return tuple(
            PrimalVector(self.space, ray) for row in np.eye(self.space.size) for ray in (row, -row)
        )

    def fixed_point_set(self, base) -> "FixedPointCharacterization":
        """Closed-form fixed-point set of the derivative operator at the graph
        point `base`.

        Translations and interior projection bases give the whole dual space;
        exterior ball and exterior canonical l_1 bases, and affine maps with a
        nonzero shift and scale != 1, pin the origin only; the Hilbert cone at
        a base positive exactly on M gives nonnegativity off M. Uncovered
        bases (on the sphere, off the l_1 selection, ...) are oracle-only.
        """
        kind, index_set = ORACLE_ONLY, None
        if self.kind == AFFINE:
            if self.scale == 1.0:
                kind = WHOLE_DUAL
            elif norm(self.shift) > 0.0:
                kind = ORIGIN_ONLY
        elif self.kind in (BALL_PROJ, L1_BALL_PROJ):
            side = self._side(base.x)
            on_selection = self.kind == BALL_PROJ or (
                norm(base.y - self.value(base.x)) <= 1e-12 * (1.0 + norm(base.x))
            )
            if side != 0 and on_selection:
                kind = WHOLE_DUAL if side < 0 else ORIGIN_ONLY
        elif self.kind == CONE_PROJ and self.space.kind == KIND_LP and self.space.p == 2.0:
            m_set = zm_index_set(base.x)
            if m_set is not None and m_set.members:
                kind, index_set = POSITIVE_CONE_DUAL, m_set.complement
        return FixedPointCharacterization(kind, self.space, index_set=index_set)

    def expected_image(self, base, ystar: DualVector) -> DualVector | None:
        """Closed-form image of y* under the derivative operator at `base`
        when it is a singleton, used to aim rejection rays; otherwise None."""
        if self.kind == AFFINE:
            return self.scale * ystar
        if self.kind == BALL_PROJ and self._side(base.x) != 0:
            return coderiv_ball_lp(base.x, self.radius, ystar).point
        if self.kind == L1_BALL_PROJ and self._side(base.x) < 0:
            return ystar
        return None

    def known_member(self, base, cand: DualVector) -> bool:
        """Partial fixed-point facts of the Lp cone beyond `fixed_point_set`:
        the duality image of a nonzero nonnegative base is a fixed point, and
        at the origin every nonnegative dual is one."""
        if self.kind != CONE_PROJ or self.space.kind != KIND_LP:
            return False
        f = base.x
        if np.all(f.values >= 0.0) and norm(f) > 0.0:
            jf = duality_map(f)
            if dual_norm(cand - jf) <= 1e-12 * (1.0 + dual_norm(jf)):
                return True
        return norm(f) == 0.0 and bool(np.all(cand.values >= 0.0))


def _sphere_side(norms, radius: float):
    """Side of the sphere ||x|| = radius for each norm: -1 inside, 0 on the
    sphere (within SPHERE_BAND * max(1, radius) of it), +1 outside. A float
    norm gives a float, an array of norms an array."""
    band = SPHERE_BAND * max(1.0, radius)
    if isinstance(norms, float):
        gap = norms - radius
        return 0.0 if abs(gap) <= band else math.copysign(1.0, gap)
    gap = np.asarray(norms) - radius
    return np.where(np.abs(gap) <= band, 0.0, np.sign(gap))


# Points with norm within this relative slack of the radius count as inside
# the ball; the certificate's own feasibility slack, kept apart from the maps'
# sphere band.
INSIDE_SLACK = 1e-12


def _inside(mapd: MapDescriptor, rows: np.ndarray):
    """Membership of each row of a (..., size) array in the ball or cone that
    `mapd` projects onto."""
    if mapd.kind == CONE_PROJ:
        return np.all(rows >= 0.0, axis=-1)
    return norm_rows(mapd.space, rows) <= mapd.radius * (1.0 + INSIDE_SLACK)


def _unit_functional(v: PrimalVector) -> DualVector:
    """A dual w with ||w||_* = 1 and <w, v> = ||v||; the dual origin at v = 0."""
    nv = norm(v)
    if nv == 0.0:
        return DualVector.zero(v.space)
    j = duality_map_l1_selection(v) if v.space.kind == KIND_L1 else duality_map(v)
    return j * (1.0 / nv)


def projection_gap(mapd: MapDescriptor, x: PrimalVector, y: PrimalVector) -> float:
    """Fenchel gap ||x - y|| - max(<w, x> - sigma_C(w), 0) of y as a nearest
    point of x in the ball, cone or l_1 ball C that `mapd` projects onto, and
    +inf when y is not in C.

    Every dual w with ||w||_* <= 1 gives dist(x, C) >= <w, x> - sigma_C(w),
    with sigma_C the support function of C (weak duality), so a gap <= eps
    certifies that ||x - y|| is within eps of dist(x, C), whatever produced
    y. For a ball w is the unit functional of x: sigma_C(w) = r, so the bound
    is ||x|| - r in every norm, evaluated as such. Taking w from x rather than
    x - y keeps every member of the set-valued l_1 ball projection at gap 0.
    For the cone w is the unit functional of x - y with its positive entries
    set to 0, so sigma_C(w) = 0. Reads only the map's kind, space and radius,
    never its value formulas. Affine maps have no set behind them and raise
    ValueError; so do polynomial classes, which `projections.poly_bracket`
    certifies.
    """
    if mapd.kind == AFFINE:
        raise ValueError("an affine map is not the projection onto a set")
    if mapd.kind == POLY_PROJ:
        raise ValueError("a polynomial class is certified by projections.poly_bracket")
    if x.space != mapd.space or y.space != mapd.space:
        raise ValueError("point and set live in different spaces")
    if not _inside(mapd, y.values):
        return np.inf
    if mapd.kind == CONE_PROJ:
        w = _unit_functional(x - y)
        bound = pairing(DualVector(mapd.space, np.minimum(w.values, 0.0)), x)
    else:
        bound = norm(x) - mapd.radius
    return norm(x - y) - max(bound, 0.0)


def affine_map(space: SpaceSpec, shift: PrimalVector, scale: float = 1.0) -> MapDescriptor:
    return MapDescriptor(AFFINE, space, shift=shift, scale=float(scale))


def ball_projection_map(space: SpaceSpec, radius: float) -> MapDescriptor:
    return MapDescriptor(BALL_PROJ, space, radius=float(radius))


def cone_projection_map(space: SpaceSpec) -> MapDescriptor:
    return MapDescriptor(CONE_PROJ, space)


def l1_ball_projection_map(space: SpaceSpec, radius: float) -> MapDescriptor:
    return MapDescriptor(L1_BALL_PROJ, space, radius=float(radius))


def poly_projection_map(space: SpaceSpec, degree: int) -> MapDescriptor:
    return MapDescriptor(POLY_PROJ, space, degree=int(degree))


# ---------------------------------------------------------------------------
# symbolic dual sets
# ---------------------------------------------------------------------------

# kinds of CoderivativeSet
EMPTY = "empty"
SINGLETON = "singleton"
ORDER_INTERVAL = "order_interval"
CONE_SLICE = "cone_slice"
# kinds of FixedPointCharacterization
WHOLE_DUAL = "whole_dual"
POSITIVE_CONE_DUAL = "positive_cone_dual"
ORIGIN_ONLY = "origin_only"
ORACLE_ONLY = "oracle_only"


@dataclass(frozen=True, eq=False)
class CoderivativeSet:
    """Symbolic value of a derivative operator with an exact membership
    test: empty, singleton {point}, order_interval [lower, upper], or
    cone_slice(M, anchor y), the z with z_i = y_i on M and 0 <= z_i <= y_i
    on the complement of M.
    """

    kind: str
    space: SpaceSpec
    point: DualVector | None = None
    lower: DualVector | None = None
    upper: DualVector | None = None
    index_set: IndexSet | None = None
    anchor: DualVector | None = None

    def __post_init__(self):
        if self.kind not in (EMPTY, SINGLETON, ORDER_INTERVAL, CONE_SLICE):
            raise ValueError(f"unknown derivative set kind {self.kind!r}")
        if self.kind == SINGLETON and self.point is None:
            raise ValueError("singleton needs its point")
        if self.kind == ORDER_INTERVAL:
            if self.lower is None or self.upper is None:
                raise ValueError("order interval needs both endpoints")
            if np.any(self.lower.values > self.upper.values):
                raise ValueError("order interval needs lower <= upper componentwise")
        if self.kind == CONE_SLICE and (self.index_set is None or self.anchor is None):
            raise ValueError("cone slice needs an index set and an anchor")

    def membership(self, w: DualVector, tol: float = 1e-9) -> bool:
        if w.space != self.space:
            return False
        if self.kind == EMPTY:
            return False
        if self.kind == SINGLETON:
            scale = 1.0 + dual_norm(self.point)
            return dual_norm(w - self.point) <= tol * scale
        if self.kind == ORDER_INTERVAL:
            return bool(
                np.all(w.values >= self.lower.values - tol)
                and np.all(w.values <= self.upper.values + tol)
            )
        on = self.index_set.mask
        off = ~on
        y = self.anchor.values
        z = w.values
        return bool(
            np.all(np.abs(z[on] - y[on]) <= tol)
            and np.all(z[off] >= -tol)
            and np.all(z[off] <= y[off] + tol)
        )


@dataclass(frozen=True, eq=False)
class FixedPointCharacterization:
    """Closed form of the fixed-point set, where one exists.

    positive_cone_dual(S): duals nonnegative on the index set S (free
    elsewhere). oracle_only: no characterization; membership is decided by
    sampling.
    """

    kind: str
    space: SpaceSpec
    index_set: IndexSet | None = None

    def membership(self, w: DualVector, tol: float = 1e-9) -> bool:
        if self.kind == WHOLE_DUAL:
            return True
        if self.kind == ORIGIN_ONLY:
            return dual_norm(w) <= tol
        if self.kind == POSITIVE_CONE_DUAL:
            return bool(np.all(w.values[self.index_set.mask] >= -tol))
        raise ValueError("no closed-form membership for oracle-only bases")


# ---------------------------------------------------------------------------
# closed-form operators
# ---------------------------------------------------------------------------

def coderiv_affine(mapd: MapDescriptor, x: PrimalVector, w: DualVector) -> CoderivativeSet:
    """Derivative operator of f(u) = shift + scale * u: the singleton
    {scale * w} at every base point (the adjoint of the derivative)."""
    if mapd.kind != AFFINE:
        raise ValueError("coderiv_affine needs an affine map")
    return CoderivativeSet(SINGLETON, mapd.space, point=mapd.scale * w)


def coderiv_ball_lp(x: PrimalVector, r: float, w: DualVector) -> CoderivativeSet:
    """Derivative operator of the Lp ball projection.

    Interior base: {w}. Exterior base:
    {(r/||x||) (w - (<w, x>/||x||^2) J(x))}, which collapses to {0} at
    w = J(x) and to {(r/||x||) w} when <w, x> = 0. Boundary base points are
    not covered and raise.
    """
    if x.space.kind != KIND_LP:
        raise ValueError("coderiv_ball_lp needs an Lp space")
    nx = norm(x)
    side = _sphere_side(nx, r)
    if side == 0:
        raise BoundaryCaseError("base point on the sphere ||x|| = r is uncovered")
    if side < 0:
        return CoderivativeSet(SINGLETON, x.space, point=w)
    jx = duality_map(x)
    coeff = pairing(w, x) / nx**2
    image = (r / nx) * (w - coeff * jx)
    return CoderivativeSet(SINGLETON, x.space, point=image)


def zm_index_set(xbar: PrimalVector, threshold: float = ZM_POSITIVITY_THRESHOLD) -> IndexSet | None:
    """Index set M with xbar strictly positive on M and zero off M, or None
    when xbar has a negative (or sub-threshold nonzero) coordinate."""
    members = set()
    for i, v in enumerate(xbar.values, start=1):
        if v > threshold:
            members.add(i)
        elif abs(v) > threshold:
            return None
    return IndexSet(frozenset(members), xbar.space.size)


def coderiv_cone_l2(xbar: PrimalVector, m_set: IndexSet, y: DualVector) -> CoderivativeSet:
    """Derivative operator of the positive-cone projection in the Hilbert
    case (p = 2) at a base point positive exactly on M.

    y = 0 gives {0}; y nonnegative and strictly positive off M gives the
    slice {z : z = y on M, 0 <= z <= y off M}; y nonnegative with a zero
    coordinate off M gives {y}. Anything else is oracle-only.
    """
    if xbar.space.kind != KIND_LP or xbar.space.p != 2.0:
        raise ValueError("this closed form is specific to p = 2")
    derived = zm_index_set(xbar)
    if derived is None or derived.members != m_set.members:
        raise ValueError("base point is not positive exactly on M")
    if not m_set.members:
        raise ValueError("M must be nonempty")
    off = m_set.complement.mask
    yv = y.values
    if dual_norm(y) == 0.0:
        return CoderivativeSet(SINGLETON, xbar.space, point=DualVector.zero(xbar.space))
    if np.all(yv[off] > 0.0):
        return CoderivativeSet(CONE_SLICE, xbar.space, index_set=m_set, anchor=y)
    if np.all(yv[off] >= 0.0):
        return CoderivativeSet(SINGLETON, xbar.space, point=y)
    raise OracleOnlyError(
        "y has a negative coordinate off M: y is not a fixed point there and "
        "the full set is resolved only by the sampling oracle"
    )


def coderiv_cone_lp_theta_membership(f: PrimalVector, phi: DualVector) -> bool:
    """Whether the dual origin belongs to the derivative operator of the
    positive-cone projection at f, applied to phi. With counting measure on
    the truncation this holds iff no index has (phi_i != 0 and f_i > 0) or
    (phi_i < 0 and f_i <= 0)."""
    if f.space.kind != KIND_LP:
        raise ValueError("this test needs an Lp space")
    fv, pv = f.values, phi.values
    bad = ((pv != 0.0) & (fv > 0.0)) | ((pv < 0.0) & (fv <= 0.0))
    return not bool(np.any(bad))


def coderiv_cone_lp_at_origin(psi: DualVector) -> CoderivativeSet:
    """Derivative operator of the positive-cone projection at the origin:
    the order interval [0, psi] for componentwise nonnegative psi."""
    if psi.space.kind != KIND_LP:
        raise ValueError("this closed form needs an Lp space")
    if np.any(psi.values < 0.0):
        raise ValueError("psi must be componentwise nonnegative")
    return CoderivativeSet(
        ORDER_INTERVAL, psi.space, lower=DualVector.zero(psi.space), upper=psi
    )


def coderiv_l1ball(x: PrimalVector, r: float, phi: DualVector) -> CoderivativeSet:
    """Derivative operator of the set-valued l_1 ball projection at the
    canonical selection.

    Interior base: {phi}. Exterior base with strictly positive x: {0} for
    phi = 0 and the empty set for phi = j(x). Other exterior duals are
    resolved only by fixed-point queries against the oracle.
    """
    if x.space.kind != KIND_L1:
        raise ValueError("coderiv_l1ball needs an L1 space")
    side = _sphere_side(norm(x), r)
    if side == 0:
        raise BoundaryCaseError("base point on the sphere ||x||_1 = r is uncovered")
    if side < 0:
        return CoderivativeSet(SINGLETON, x.space, point=phi)
    if not np.all(x.values > 0.0):
        raise OracleOnlyError("the exterior closed forms assume strictly positive x")
    if dual_norm(phi) == 0.0:
        return CoderivativeSet(SINGLETON, x.space, point=DualVector.zero(x.space))
    jx = duality_map_l1_selection(x)
    if dual_norm(phi - jx) <= 1e-12 * (1.0 + dual_norm(jx)):
        return CoderivativeSet(EMPTY, x.space)
    raise OracleOnlyError(
        "exterior l_1 dual without a closed form; resolve via fixed-point queries"
    )
