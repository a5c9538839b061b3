"""Model spaces: finite l_p truncations, the l_1 / l_inf pair, and grid
functions on [0, 1] paired with finite signed atomic measures.

Sequence spaces are truncated to a fixed dimension N; every construction used
downstream perturbs only finitely many coordinates, so truncation preserves
the implemented formulas exactly. Functions on [0, 1] are represented by
samples on a uniform grid, and an atomic measure by its weight at each grid
node (`atomic_measure` snaps atom locations to nodes), so pairings reduce to
exact finite sums over the atoms.

Primal and dual vectors alike are a space plus a frozen array of
``space.size`` entries.

All values are immutable after construction and every operation is pure,
which makes the module safe for unrestricted concurrent use. A vector's norm
and dual norm are each computed on first use and kept with the vector: its
values never change, so a kept norm cannot go stale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

KIND_LP = "Lp"
KIND_L1 = "L1"
KIND_C01 = "C01"

__all__ = [
    "KIND_LP",
    "KIND_L1",
    "KIND_C01",
    "SpaceMismatchError",
    "SpaceSpec",
    "PrimalVector",
    "DualVector",
    "IndexSet",
    "lp_space",
    "l1_space",
    "c01_space",
    "primal",
    "dual",
    "atomic_measure",
    "norm",
    "dual_norm",
    "pairing",
    "duality_map",
    "duality_map_l1_selection",
    "duality_map_inverse",
    "norming_direction",
    "norm_rows",
    "pairing_rows",
]


class SpaceMismatchError(ValueError):
    """Two values from different model spaces were combined."""


@dataclass(frozen=True)
class SpaceSpec:
    """Description of a model space.

    kind "Lp":  length-``dim`` sequences with the p-norm, 1 < p < inf; the
                dual carries the conjugate q-norm.
    kind "L1":  length-``dim`` sequences with the 1-norm; the dual carries
                the max norm.
    kind "C01": functions on [0, 1] sampled at ``grid_size`` uniform nodes
                with the max norm; dual elements are signed atomic
                measures on the nodes, stored as the weight at each node,
                with total-variation norm.
    """

    kind: str
    p: float | None = None
    dim: int | None = None
    grid_size: int | None = None

    def __post_init__(self):
        if self.kind == KIND_LP:
            if self.p is None or not (1.0 < float(self.p) < np.inf):
                raise ValueError("Lp spaces need a finite exponent p in (1, inf)")
            if self.dim is None or self.dim < 1:
                raise ValueError("Lp spaces need dim >= 1")
            if self.grid_size is not None:
                raise ValueError("grid_size is a C01 parameter")
        elif self.kind == KIND_L1:
            if self.dim is None or self.dim < 1:
                raise ValueError("L1 spaces need dim >= 1")
            if self.p is not None or self.grid_size is not None:
                raise ValueError("L1 spaces take only dim")
        elif self.kind == KIND_C01:
            if self.grid_size is None or self.grid_size < 2:
                raise ValueError("C01 spaces need grid_size >= 2")
            if self.p is not None or self.dim is not None:
                raise ValueError("C01 spaces take only grid_size")
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1 (Lp only)."""
        if self.kind != KIND_LP:
            raise ValueError("conjugate exponent is defined for Lp spaces only")
        return self.p / (self.p - 1.0)

    @property
    def size(self) -> int:
        return self.grid_size if self.kind == KIND_C01 else self.dim

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """Uniform nodes 0 = t_1 < ... < t_G = 1 (C01 only), built once per
        spec and read-only. The cache sits in the instance dict, outside the
        fields, so equality and hashing are unchanged."""
        if self.kind != KIND_C01:
            raise ValueError("only C01 spaces carry a grid")
        g = np.linspace(0.0, 1.0, self.grid_size)
        g.setflags(write=False)
        return g

    @functools.lru_cache(maxsize=16)
    def power_matrix(self, n: int) -> np.ndarray:
        """Read-only G x (n+1) matrix of the powers t^j, j = 0..n, of the
        grid nodes (C01 only): the basis of the polynomials of degree <= n
        on the grid. Built once per (spec, n); equal specs share it."""
        vander = self.grid[:, None] ** np.arange(n + 1)[None, :]
        vander.setflags(write=False)
        return vander

    @functools.lru_cache(maxsize=16)
    def power_basis(self, n: int) -> np.ndarray:
        """Read-only orthonormal G x (n+1) basis of the same column space as
        `power_matrix(n)` (its thin QR factor), built once per (spec, n)."""
        basis = np.linalg.qr(self.power_matrix(n))[0]
        basis.setflags(write=False)
        return basis


def lp_space(p: float, dim: int) -> SpaceSpec:
    return SpaceSpec(kind=KIND_LP, p=float(p), dim=int(dim))


def l1_space(dim: int) -> SpaceSpec:
    return SpaceSpec(kind=KIND_L1, dim=int(dim))


def c01_space(grid_size: int = 513) -> SpaceSpec:
    return SpaceSpec(kind=KIND_C01, grid_size=int(grid_size))


def _freeze(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("vector values must be one dimensional")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _Vector:
    """A space plus a frozen array of its ``space.size`` entries. Sums and
    differences need two vectors of the same class and space; primal and
    dual vectors never mix."""

    space: SpaceSpec
    values: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.values)
        if arr.size != self.space.size:
            raise ValueError(
                f"expected {self.space.size} entries, got {arr.size}"
            )
        object.__setattr__(self, "values", arr)

    @classmethod
    def zero(cls, space: SpaceSpec) -> _Vector:
        return cls(space, np.zeros(space.size))

    def _same_space(self, other: _Vector) -> None:
        if type(other) is not type(self):
            raise SpaceMismatchError(
                f"cannot combine a {type(self).__name__} with a {type(other).__name__}"
            )
        if self.space != other.space:
            raise SpaceMismatchError(f"{type(self).__name__}s live in different spaces")

    def __add__(self, other: _Vector) -> _Vector:
        self._same_space(other)
        return type(self)(self.space, self.values + other.values)

    def __sub__(self, other: _Vector) -> _Vector:
        self._same_space(other)
        return type(self)(self.space, self.values - other.values)

    def __mul__(self, scalar: float) -> _Vector:
        return type(self)(self.space, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> _Vector:
        return type(self)(self.space, -self.values)

    # `norm` and `dual_norm` read these; a cached_property writes the value
    # into the instance dict, outside the frozen fields, on first use
    @functools.cached_property
    def _norm(self) -> float:
        kind = self.space.kind
        if kind == KIND_LP:
            return _lp_scalar(self.values, self.space.p)
        if kind == KIND_L1:
            return float(np.sum(np.abs(self.values)))
        return float(np.max(np.abs(self.values)))

    @functools.cached_property
    def _dual_norm(self) -> float:
        kind = self.space.kind
        if kind == KIND_LP:
            return _lp_scalar(self.values, self.space.q)
        if kind == KIND_L1:
            return float(np.max(np.abs(self.values)))
        idx = np.flatnonzero(self.values)
        return float(np.sum(np.abs(self.values[idx])))


# Each subclass is a dataclass of its own, so each has its own __init__
# (perfbench's tracer counts the builds of each class separately).
@dataclass(frozen=True, eq=False)
class PrimalVector(_Vector):
    """An element of a model space: coordinates for Lp/L1, grid samples
    for C01."""


@dataclass(frozen=True, eq=False)
class DualVector(_Vector):
    """An element of the dual model: q-norm coordinates for an Lp primal,
    max-norm coordinates for L1, and for C01 the weight of a signed atomic
    measure at each grid node (its atoms are the nonzero entries)."""


def primal(space: SpaceSpec, values) -> PrimalVector:
    return PrimalVector(space, values)


def dual(space: SpaceSpec, values) -> DualVector:
    return DualVector(space, values)


def atomic_measure(space: SpaceSpec, atoms: Iterable[tuple[float, float]]) -> DualVector:
    """The measure sum_i w_i delta(t_i) on a C01 grid from (t_i, w_i) pairs.
    Each location snaps to its nearest grid node; two atoms on one node, or
    a location outside [0, 1], raise."""
    if space.kind != KIND_C01:
        raise ValueError("atomic measures live on C01 spaces")
    last = space.grid_size - 1
    weights = np.zeros(space.size)
    taken = set()
    for loc, weight in atoms:
        loc = float(loc)
        if not (0.0 <= loc <= 1.0):
            raise ValueError("atom locations must lie in [0, 1]")
        idx = int(round(loc * last))
        if idx in taken:
            raise ValueError("duplicate atom locations after snapping")
        taken.add(idx)
        weights[idx] = float(weight)
    return DualVector(space, weights)


@dataclass(frozen=True)
class IndexSet:
    """A finite subset M of {1, ..., N} inside the truncation, with its
    complement computed within the same truncation."""

    members: frozenset[int]
    universe: int

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if any(i < 1 or i > self.universe for i in self.members):
            raise ValueError("index set members must lie in 1..universe")

    @property
    def complement(self) -> "IndexSet":
        rest = frozenset(range(1, self.universe + 1)) - self.members
        return IndexSet(rest, self.universe)

    @property
    def mask(self) -> np.ndarray:
        """Boolean mask over 0-based coordinates."""
        m = np.zeros(self.universe, dtype=bool)
        for i in self.members:
            m[i - 1] = True
        m.setflags(write=False)
        return m


# ---------------------------------------------------------------------------
# norms and pairings
# ---------------------------------------------------------------------------

def _lp(mags: np.ndarray, p: float) -> np.ndarray:
    """sum(m^p)^(1/p) over the last axis of the magnitudes m = |v|. The
    array method skips `np.sum`'s dispatch (same reduction, same bits), which
    pays for the errstate its callers enter."""
    return (mags**p).sum(axis=-1) ** (1.0 / p)


def _lp_rescaled(mags: np.ndarray, p: float) -> np.ndarray:
    """`_lp` with each vector first divided by its largest magnitude. Used
    only where the plain power sum underflows to 0 or overflows on a nonzero
    vector (largest magnitude below about 1e-154 or above 1e154 at p = 2), so
    every other norm keeps the bits of the plain formula. Its callers silence
    numpy's overflow warning around the plain sum, whose inf they replace."""
    peaks = np.max(mags, axis=-1)
    peaks = np.where(peaks > 0.0, peaks, 1.0)
    return peaks * _lp(mags / peaks[..., None], p)


def _lp_scalar(values: np.ndarray, p: float) -> float:
    mags = np.abs(values)
    with np.errstate(over="ignore"):
        n = float(_lp(mags, p))
    if 0.0 < n < math.inf:
        return n
    if not mags.any():
        return 0.0
    return float(_lp_rescaled(mags, p))


def norm(v: PrimalVector) -> float:
    """Primal norm: p-norm (Lp), 1-norm (L1), grid max (C01). Computed once
    per vector."""
    return v._norm


def norm_rows(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """Primal norm of each row of a (..., size) array, reduced over the last
    axis."""
    rows = np.asarray(rows, dtype=float)
    if space.kind == KIND_LP:
        mags = np.abs(rows)
        with np.errstate(over="ignore"):
            norms = _lp(mags, space.p)
        if norms.all() and math.isfinite(norms.sum()):
            return norms
        return np.where((norms > 0.0) & (norms < np.inf), norms, _lp_rescaled(mags, space.p))
    if space.kind == KIND_L1:
        return np.sum(np.abs(rows), axis=-1)
    return np.max(np.abs(rows), axis=-1)


def dual_norm(w: DualVector) -> float:
    """Dual norm: q-norm (Lp primal), max norm (L1 primal), total variation
    (atomic measures). Computed once per vector, apart from its `norm`."""
    return w._dual_norm


def pairing(w: DualVector, v: PrimalVector) -> float:
    """Canonical pairing <w, v>: coordinate dot product, or for C01 the
    atomic sum  sum_i w(t_i) v(t_i)  over the atoms in node order."""
    if w.space != v.space:
        raise SpaceMismatchError("pairing needs matching spaces")
    if w.space.kind == KIND_C01:
        idx = np.flatnonzero(w.values)
        return float(np.dot(w.values[idx], v.values[idx]))
    return float(np.dot(w.values, v.values))


def pairing_rows(w: DualVector, rows: np.ndarray) -> np.ndarray:
    """Pairing of one dual vector against each row of a (..., size) array,
    reduced over the last axis."""
    rows = np.asarray(rows, dtype=float)
    if w.space.kind == KIND_C01:
        idx = np.flatnonzero(w.values)
        return rows[..., idx] @ w.values[idx]
    return rows @ w.values


# ---------------------------------------------------------------------------
# duality mappings
# ---------------------------------------------------------------------------

_NORMAL_MIN = np.finfo(float).tiny  # smallest normal float


def _duality_values(values: np.ndarray, nv: float, p: float) -> np.ndarray:
    """|v_i|^(p-1) sign(v_i) / ||v||^(p-2) for a vector of p-norm nv > 0.

    The plain formula's bits are kept wherever it is finite and ||v||^(p-2)
    is a normal float. Where its powers overflow or that scale leaves the
    normal range (p far from 2), the rescaled
    ||v|| sign(v_i) (|v_i| / ||v||)^(p-1) takes its place.
    """
    with np.errstate(over="ignore"):
        scale = np.float64(nv) ** (p - 2.0)
        if _NORMAL_MIN <= scale < math.inf:
            vals = np.abs(values) ** (p - 1.0) * np.sign(values) / scale
            if np.isfinite(vals).all():
                return vals
    return nv * np.sign(values) * (np.abs(values) / nv) ** (p - 1.0)


def duality_map(v: PrimalVector) -> DualVector:
    """Normalized duality mapping on an Lp truncation.

    J(v)_i = |v_i|^(p-1) sign(v_i) / ||v||^(p-2), so that <J(v), v> = ||v||^2
    and ||J(v)||_q = ||v||. The origin maps to the dual origin, and p = 2
    returns the vector itself.
    """
    if v.space.kind != KIND_LP:
        raise ValueError("duality_map is defined on Lp spaces")
    p = v.space.p
    if p == 2.0:
        return DualVector(v.space, v.values.copy())
    nv = norm(v)
    if nv == 0.0:
        return DualVector.zero(v.space)
    return DualVector(v.space, _duality_values(v.values, nv, p))


def duality_map_l1_selection(v: PrimalVector) -> DualVector:
    """Selection j(v)_i = ||v||_1 * sign(v_i) with sign(0) := 0.

    Satisfies <j(v), v> = ||v||_1^2 and ||j(v)||_inf = ||v||_1. sign(0) := 0
    is the symmetric choice among the admissible values in
    [-||v||_1, ||v||_1]; the zero vector maps to the dual origin.
    """
    if v.space.kind != KIND_L1:
        raise ValueError("the l_1 selection is defined on L1 spaces")
    return DualVector(v.space, norm(v) * np.sign(v.values))


def duality_map_inverse(w: DualVector) -> PrimalVector:
    """Duality mapping of the dual space (exponent q), landing back in the
    primal: <w, j*(w)> = ||w||_*^2 and ||j*(w)|| = ||w||_*."""
    if w.space.kind != KIND_LP:
        raise ValueError("duality_map_inverse is defined on Lp spaces")
    q = w.space.q
    if q == 2.0:
        return PrimalVector(w.space, w.values.copy())
    nw = dual_norm(w)
    if nw == 0.0:
        return PrimalVector.zero(w.space)
    return PrimalVector(w.space, _duality_values(w.values, nw, q))


def norming_direction(w: DualVector) -> PrimalVector:
    """A unit-norm primal direction g with <w, g> = ||w||_* (a norming
    vector for the functional). Returns the origin when w is the dual
    origin.

    Lp: the normalized inverse duality map. L1: a signed basis vector at the
    largest coordinate. C01: the piecewise-linear interpolant of the atom
    signs, extended flat beyond the support.
    """
    nw = dual_norm(w)
    if nw == 0.0:
        return PrimalVector.zero(w.space)
    kind = w.space.kind
    if kind == KIND_LP:
        j = duality_map_inverse(w)
        return PrimalVector(w.space, j.values / nw)
    if kind == KIND_L1:
        n = int(np.argmax(np.abs(w.values)))
        vals = np.zeros(w.space.size)
        vals[n] = np.sign(w.values[n])
        return PrimalVector(w.space, vals)
    idx = np.flatnonzero(w.values)
    vals = np.interp(w.space.grid, w.space.grid[idx], np.sign(w.values[idx]))
    return PrimalVector(w.space, vals)
