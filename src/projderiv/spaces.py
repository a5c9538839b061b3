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
    "dual_norm_rows",
    "norming_rows",
    "pairing_rows",
    "pairing_stack",
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
        return norm_rows(self.space, self.values[None, :]).item()

    @functools.cached_property
    def _dual_norm(self) -> float:
        return dual_norm_rows(self.space, self.values[None, :]).item()


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
    """sum(m^p)^(1/p) over the last axis of the magnitudes m = |v|. Raises
    `mags` to the power p in place (same power, same bits), so its callers
    pass a fresh array. The array method skips `np.sum`'s dispatch (same
    reduction, same bits), which pays for the errstate its callers enter."""
    mags **= p
    return mags.sum(axis=-1) ** (1.0 / p)


def _lp_rescaled(mags: np.ndarray, p: float) -> np.ndarray:
    """`_lp` with each vector first divided by its largest magnitude. Used
    only where the plain power sum underflows to 0 or overflows on a nonzero
    vector (largest magnitude below about 1e-154 or above 1e154 at p = 2), so
    every other norm keeps the bits of the plain formula. Its callers silence
    numpy's overflow warning around the plain sum, whose inf they replace."""
    peaks = np.max(mags, axis=-1)
    peaks = np.where(peaks > 0.0, peaks, 1.0)
    return peaks * _lp(mags / peaks[..., None], p)


def _lp_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """The p-norm of each row of a (..., size) array: the plain power sum,
    or `_lp_rescaled` for the nonzero rows where it underflows to 0 and the
    rows where it overflows. The one p-norm formula; a vector's norm is this
    on a row of one, and so is the norm of a one-dimensional (size,) input,
    so a point has the same norm as a vector and as a row of any array."""
    if rows.ndim == 1:
        # reduced alone it would end in a numpy scalar, whose `**` rounds
        # differently from the array `**` of every row of an array
        return _lp_norms(rows[None, :], p)[0]
    with np.errstate(over="ignore"):
        norms = _lp(np.abs(rows), p)
    # a vector's norm, often that of a zero vector, is checked without a reduction
    if norms.size == 1:
        if 0.0 < norms.item() < math.inf or not rows.any():
            return norms
        return _lp_rescaled(np.abs(rows), p)
    if norms.all() and math.isfinite(norms.sum()):
        return norms
    # an all-zero row's plain norm is exact, so it is not rescaled
    redo = (norms == math.inf) | ((norms == 0.0) & rows.any(axis=-1))
    if redo.any():
        norms[redo] = _lp_rescaled(np.abs(rows[redo]), p)
    return norms


def norm(v: PrimalVector) -> float:
    """Primal norm: p-norm (Lp), 1-norm (L1), grid max (C01). Computed once
    per vector, as `norm_rows` of a row of one."""
    return v._norm


def norm_rows(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """Primal norm of each row of a (..., size) array, reduced over the last
    axis."""
    rows = np.asarray(rows, dtype=float)
    if space.kind == KIND_LP:
        return _lp_norms(rows, space.p)
    if space.kind == KIND_L1:
        return np.sum(np.abs(rows), axis=-1)
    return np.max(np.abs(rows), axis=-1)


def dual_norm(w: DualVector) -> float:
    """Dual norm: q-norm (Lp primal), max norm (L1 primal), total variation
    (atomic measures). Computed once per vector, apart from its `norm`, as
    `dual_norm_rows` of a row of one."""
    return w._dual_norm


def dual_norm_rows(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """Dual norm of each row of an (m, size) array of dual values, bit for
    bit `dual_norm` of each row as a vector. A measure's total variation is
    summed over its own atoms, one row at a time: summing its zero weights
    too would change the pairwise sum's bits."""
    rows = np.asarray(rows, dtype=float)
    if space.kind == KIND_LP:
        return _lp_norms(rows, space.q)
    if space.kind == KIND_L1:
        return np.max(np.abs(rows), axis=-1)
    return np.array([np.sum(np.abs(row[np.flatnonzero(row)])) for row in rows])


def pairing(w: DualVector, v: PrimalVector) -> float:
    """Canonical pairing <w, v>: coordinate dot product, or for C01 the
    atomic sum  sum_i w(t_i) v(t_i)  over the atoms in node order.
    `pairing_rows` of one row."""
    if w.space != v.space:
        raise SpaceMismatchError("pairing needs matching spaces")
    return float(pairing_rows(w, v.values))


def pairing_rows(w: DualVector, rows: np.ndarray) -> np.ndarray:
    """Pairing of one dual vector against each row of a (..., size) array,
    reduced over the last axis: `pairing_stack` of one dual."""
    rows = np.asarray(rows, dtype=float)
    block = rows[None] if rows.ndim > 1 else rows[None, None]  # a vector is one row
    return pairing_stack(w.space, w.values[None, :], block).reshape(rows.shape[:-1])


def pairing_stack(space: SpaceSpec, duals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairing of each of m duals, the rows of an (m, size) array, against
    the rows of a (k, ..., n, size) array with k = 1 (one block shared by
    every dual) or k = m (one block per dual): shape (m, ..., n).

    The one pairing formula: `pairing_rows` and `pairing` are its slices
    for one dual. The products are one stacked matmul, each of whose slices
    is the per-dual matrix-vector product, so each dual gets the bits of a
    stack of that dual alone; a gemm `rows @ duals.T`, or a flattened
    product, rounds differently. A measure pairs over its own atoms only,
    so C01 duals take one product each: pairing a run of them over a shared
    support would change the bits.
    """
    m, size = duals.shape
    if space.kind == KIND_C01:
        out = np.empty((m, *rows.shape[1:-1]))
        for i, w in enumerate(duals):
            idx = np.flatnonzero(w)
            out[i] = rows[i if len(rows) > 1 else 0][..., idx] @ w[idx]
        return out
    return np.matmul(rows, duals.reshape(m, *(1,) * (rows.ndim - 3), size, 1))[..., 0]


# ---------------------------------------------------------------------------
# duality mappings
# ---------------------------------------------------------------------------

_NORMAL_MIN = np.finfo(float).tiny  # smallest normal float


def _duality_rows(rows: np.ndarray, norms: np.ndarray, p: float) -> np.ndarray:
    """|v_i|^(p-1) sign(v_i) / ||v||^(p-2) for each row v of an (m, size)
    array, with norms[i] = ||rows[i]|| > 0.

    The plain formula's bits are kept wherever it is finite and ||v||^(p-2)
    is a normal float. Where its powers overflow or that scale leaves the
    normal range (p far from 2), the rescaled
    ||v|| sign(v_i) (|v_i| / ||v||)^(p-1) takes its place. Each row's scale
    is its own scalar `np.float64 **`, as for a vector alone: numpy's array
    `**` rounds differently from the scalar one.
    """
    with np.errstate(over="ignore"):
        scales = np.array([np.float64(nv) ** (p - 2.0) for nv in norms.tolist()])
        plain = (_NORMAL_MIN <= scales) & (scales < math.inf)
        vals = np.empty_like(rows)
        vals[plain] = np.abs(rows[plain]) ** (p - 1.0) * np.sign(rows[plain]) / scales[plain, None]
    redo = ~(plain & np.isfinite(vals).all(axis=-1))
    if redo.any():
        nv = norms[redo, None]
        vals[redo] = nv * np.sign(rows[redo]) * (np.abs(rows[redo]) / nv) ** (p - 1.0)
    return vals


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
    return DualVector(v.space, _duality_rows(v.values[None, :], np.array([nv]), p)[0])


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
    return PrimalVector(w.space, _duality_rows(w.values[None, :], np.array([nw]), q)[0])


def norming_direction(w: DualVector) -> PrimalVector:
    """A unit-norm primal direction g with <w, g> = ||w||_* (a norming
    vector for the functional). Returns the origin when w is the dual
    origin. `norming_rows` of a row of one.
    """
    return PrimalVector(w.space, norming_rows(w.space, w.values[None, :], np.array([dual_norm(w)]))[0])


def norming_rows(space: SpaceSpec, duals: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The norming direction of each row of an (m, size) array of dual
    values, given their dual norms (`dual_norm_rows`): a unit-norm primal
    row g with <w, g> = ||w||_*, and a zero row where the norm is 0.

    Lp: the normalized inverse duality map (`_duality_rows`, one scalar
    power per row). L1: a signed basis row at the first largest coordinate.
    C01: the piecewise-linear interpolant of the atom signs, extended flat
    beyond the support.
    """
    out = np.zeros(duals.shape)
    on = np.flatnonzero(norms)
    ws, nws = duals[on], norms[on]
    if space.kind == KIND_LP:
        q = space.q
        out[on] = (ws if q == 2.0 else _duality_rows(ws, nws, q)) / nws[:, None]
    elif space.kind == KIND_L1:
        peaks = np.argmax(np.abs(ws), axis=-1)
        out[on, peaks] = np.sign(ws[np.arange(len(on)), peaks])
    else:
        for i, w in zip(on, ws):
            idx = np.flatnonzero(w)
            out[i] = np.interp(space.grid, space.grid[idx], np.sign(w[idx]))
    return out
