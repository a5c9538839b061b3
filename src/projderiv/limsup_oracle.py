"""Sampling estimator of the defining limsup quotient of the generalized
adjoint derivative.

For a map F, a graph point (x, y), and duals (x*, y*), the quotient

    ( <x*, u - x> - <y*, v - y> ) / ( ||u - x|| + ||v - y|| )

is sampled over shrinking radii with v the map's value (or canonical
selection) at u. The limsup estimate is the max of the two finest per-level
suprema, a deliberately conservative upper estimate; directed rays with
Richardson extrapolation sharpen non-membership detection.

Verdicts are three way: scale-aware accept/reject thresholds leave an
indeterminate band rather than forcing a guess. For set-valued maps only the
canonical selection is sampled, so "member" verdicts at exterior l_1 bases
are one sided; non-membership stays conclusive there.

Direction draws within a level are independent, and results do not depend on
evaluation order: the supremum is order insensitive and the trace is indexed
by level and row.

The sampled rows depend on the map, the base and the schedule, never on the
duals, so one walk over a pass answers every candidate asked at its bases;
only the numerators are per candidate. `sample_base` draws the pass
(`SamplePass`): the graph points, the level radii and the normalized extra
rays, with a leading base axis (a pass at one base is a stack of one). It
evaluates nothing, and no pass is ever held whole. The one walk over a pass
(`_block_quotients`) goes over a range of its levels that ends at the finest
by blocks of at most `QUOTIENT_BLOCK` entries (`spaces.QUOTIENT_BLOCK`; one
level where a level alone is larger, `_level_blocks`). It evaluates each
block with one `value_batch` (`_level_rows`), takes its quotients
(`_increments`, `_quotients`) by parts of the candidates where one level of
all of them is larger (`_candidate_parts`), and keeps a copy of each base's
finest level for the quotient-form audit (`SamplePass.audit`), so no level
is evaluated twice. `estimate_limsup` walks every level and keeps their
quotients as its trace; `membership_batch` walks the two finest and keeps
their suprema (`_sampled_sups`). Both take the limsup by one rule
(`_limsup`), which reads the suprema of those two levels and of no other. A
level's directions come from its own seeded stream, so its rows, quotients
and supremum are those of a walk over every level, bit for bit. The raw
normal draws do not depend on the space, so passes with the same seed,
levels, rows and dimension share one read-only block of them, and a
schedule keeps their norms per space.

`membership_batch` is the oracle's one stacked entry: `fixed_points.ask`
hands it the queries of one map and candidate count, and a direct
`fixed_points.is_fixed_point` is a stack of one through it. It draws sample
stacks of at most `SamplingSchedule.stack_size` bases, walks each and
releases it, then folds the directed rays over ray stacks of whole sample
stacks (`_ray_stack_size`, `_fold_rays`), so that wide bases, one to a
sample stack, still share one ray pass. The rays of every candidate share
one halving loop and one stacked pass of rows; the kink rays do not depend
on the duals, so a pass builds their rows once per base
(`SamplePass.kink_rows`). `estimate_limsup`, `membership_test` and
`directed_ray_limit` are batches of one through the same code, so a batch
gives each candidate its one-call numbers bit for bit. That rests on two
rules. Products are `spaces.pairing_stack`, a stacked matmul whose slices
are the per-dual matrix-vector products; a gemm over the candidates, or a
flattened product, rounds differently. And the fold of ray limits keeps
Python's left-to-right max per candidate, rays in their one-call order, a
NaN limit (a ray that does not start) never replacing a value. A pass is
immutable apart from its kept finest level, and its arrays are read only,
so sharing it cannot leak state from one estimate into another.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .coderivatives import L1_BALL_PROJ, MapDescriptor
from .spaces import (
    QUOTIENT_BLOCK,
    DualVector,
    PrimalVector,
    SpaceSpec,
    dual_norm,
    dual_norm_rows,
    norm,
    norm_rows,
    norming_rows,
    pairing_rows,  # not called here; the benchmark's tracer wraps this binding too
    pairing_stack,
)

__all__ = [
    "Verdict",
    "GraphPoint",
    "SamplingSchedule",
    "SamplePass",
    "AuditRows",
    "QuotientTrace",
    "LimsupEstimate",
    "tolerance_pair",
    "norming_rays",
    "sample_base",
    "estimate_limsup",
    "directed_ray_limit",
    "membership_test",
    "Answer",
    "membership_batch",
    "trace_to_csv",
]


class Verdict(str, Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class GraphPoint:
    """A pair (x, y) with y in F(x); build through the factories so the
    graph membership is verified at construction."""

    x: PrimalVector
    y: PrimalVector

    @classmethod
    def at_point(cls, mapd: MapDescriptor, x: PrimalVector) -> "GraphPoint":
        return cls(x, mapd.value(x))

    @classmethod
    def checked(cls, mapd: MapDescriptor, x: PrimalVector, y: PrimalVector) -> "GraphPoint":
        """(x, y), which must be a graph point to 1e-12 scale."""
        if not mapd.graph_contains(x, y, tol=1e-12):
            raise ValueError("(x, y) is not a graph point of the map")
        return cls(x, y)


# The limsup estimate reads the suprema of the _LIMSUP_LEVELS finest levels
# (`_limsup`), so a walk without a trace evaluates only those (`_sampled_sups`,
# `SamplingSchedule.stack_size`).
_LIMSUP_LEVELS = 2


@dataclass(frozen=True)
class SamplingSchedule:
    """Radii r0 * 2^-k for k < levels, with `dirs_per_level` random unit
    directions per level plus any extra rays rescaled to each radius.

    Direction streams are seeded per level, and doubling `dirs_per_level`
    extends a stream instead of reshuffling it, so refinement is nested.

    A schedule keeps the norms of its direction draws in each space it has
    sampled (`_direction_draws`), so the bases that share a schedule and a
    space normalize their draws with norms computed once. They live as long
    as the schedule does, and are no part of its value: equal schedules are
    equal whatever they have kept.
    """

    r0: float = 0.5
    levels: int = 8
    dirs_per_level: int = 64
    extra_rays: tuple[PrimalVector, ...] = ()
    seed: int = 0
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.r0 < math.inf:
            raise ValueError("r0 must be positive and finite")
        if self.levels < 4:
            raise ValueError("need at least 4 radius levels")
        if self.dirs_per_level < 16:
            raise ValueError("need at least 16 directions per level")

    def _direction_draws(self, space: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
        """The raw normal draws of this schedule in the dimension of `space`
        (`_normal_draws`), and the norm in `space` of each of their rows,
        shape (levels, dirs_per_level), with a zero norm replaced by 1. The
        norms are computed once per space, by blocks of levels, and are read
        only; the unit directions are not kept, each pass builds them."""
        draws = _normal_draws(self.seed, self.levels, self.dirs_per_level, space.size)
        norms = self._norms.get(space)
        if norms is None:
            norms = np.empty(draws.shape[:2])
            for block in _level_blocks(draws.shape, 1):
                norms[block] = norm_rows(space, draws[block])
            norms[norms == 0.0] = 1.0
            norms.flags.writeable = False
            self._norms[space] = norms
        return draws, norms

    def stack_size(self, space: SpaceSpec, candidates: int) -> int:
        """How many bases one pass in `space` stacks (`sample_base`) when
        `candidates` candidates are asked at each, the bases of one sample
        stack of `membership_batch`: as many as keep the entries its walk
        evaluates (bases x the two finest levels x rows x size,
        `_sampled_sups`), and one level of its quotients (bases x
        candidates x rows), within QUOTIENT_BLOCK; one where a single base
        is larger."""
        rows = self.dirs_per_level + len(self.extra_rays)
        return max(1, QUOTIENT_BLOCK // (rows * max(_LIMSUP_LEVELS * space.size, candidates)))


@dataclass(frozen=True, eq=False)
class SamplePass:
    """What the estimates at a stack of bases of one map share, indexed
    [base, level, row]: the graph point (x, y) of each base (rows of
    (bases, size) arrays), the radius of each level and the normalized extra
    rays, shape (k, size). A pass at one base is a stack of one. Built by
    `sample_base`; every array is read only.

    The sampled points u and values v (shape (bases, levels, rows, size))
    are never held whole: each walk over the pass (`_block_quotients`)
    evaluates the levels it covers, every level for an estimate and the two
    finest for `membership_batch`, one block of levels at a time, and keeps
    a copy of each base's finest level, the rows of its `audit`. Drawing a
    pass evaluates nothing, so a pass that is never walked is cheap:
    `membership_batch` folds the rays of several sample stacks over one
    pass of all their bases, which only its graph points and `kink_rows`
    serve."""

    map: MapDescriptor
    bases: tuple[GraphPoint, ...]
    schedule: SamplingSchedule
    x: np.ndarray
    y: np.ndarray
    radii: np.ndarray
    extra: np.ndarray
    _finest: list = field(default_factory=list, init=False, repr=False)

    @property
    def base(self) -> GraphPoint:
        """The base of a stack of one."""
        (base,) = self.bases
        return base

    @property
    def _shape(self) -> tuple[int, int, int, int]:
        """(bases, levels, rows, size) of the sampled points."""
        (bases, size), rows = self.x.shape, self.schedule.dirs_per_level + len(self.extra)
        return bases, len(self.radii), rows, size

    @cached_property
    def audit(self) -> AuditRows:
        """The quotient-form audit rows of each base's finest level, shape
        (bases, rows, ...), built on first use from the rows a walk over the
        pass kept; reading it before any walk is an error."""
        if not self._finest:
            raise RuntimeError("the audit reads the finest level of a walk over the pass, and none has run")
        us, vs = self._finest
        return AuditRows._around(self.map.space, self.x[:, None], self.y[:, None], us, vs)

    @cached_property
    def kink_rows(self) -> _RayRows:
        """The rows of the map's kink rays (`MapDescriptor.kink_rays`) at
        each base, indexed [base, ray, step], built on first use; the rows
        of a ray that does not start in its base's branch are NaN, so its
        limits are NaN, which the fold of `_fold_rays` skips, and every
        other ray keeps its place. Like the sampled rows they do not depend
        on the candidate; only the numerators do. Defined for maps with kink
        rays only."""
        directions = np.stack([ray.values for ray in self.map.kink_rays])
        bases, rays = len(self.bases), len(directions)
        owners = np.repeat(np.arange(bases), rays)
        started, rows = _started_rays(self.map, self.x[owners], self.y[owners], np.tile(directions, (bases, 1)))
        stacked = []
        for array in rows:
            full = np.full((bases * rays, *array.shape[1:]), np.nan)
            full[started] = array
            full = full.reshape(bases, rays, *array.shape[1:])
            full.flags.writeable = False
            stacked.append(full)
        return _RayRows(*stacked)


@dataclass(frozen=True, eq=False)
class AuditRows:
    """The candidate-independent arrays of the three quotient forms at
    sample rows (us, vs) around a base: the increments du = u - x and
    dv = v - y, the denominators ||du|| + ||dv||, du - dv, and the residual
    shift (u - v) - (x - y). Built by `at`; every array is read only."""

    du: np.ndarray
    dv: np.ndarray
    den: np.ndarray
    du_minus_dv: np.ndarray
    shift: np.ndarray

    @classmethod
    def at(cls, base: GraphPoint, us: np.ndarray, vs: np.ndarray) -> "AuditRows":
        """The audit arrays of the rows (us, vs) around the base; a row at
        the base is a ZeroDivisionError. The shift is formed from the
        error-free differences of u - v and x - y. Rounded plainly, it would
        carry an absolute error of about eps |x - y|, which the small
        denominators near an exterior base blow up."""
        return cls._around(base.x.space, base.x.values, base.y.values, us, vs)

    @classmethod
    def _around(cls, space: SpaceSpec, x, y, us: np.ndarray, vs: np.ndarray) -> "AuditRows":
        """`at` around the graph points x and y, arrays that broadcast
        against the rows (one base's point, or one per block of a stack)."""
        du, dv, den = _increments(space, x, y, us, vs)
        a, ea = _two_diff(us, vs)
        b, eb = _two_diff(x, y)
        rows = cls(du, dv, den, du - dv, (a - b) + (ea - eb))
        for array in vars(rows).values():
            array.flags.writeable = False
        return rows

    def spread(self, space: SpaceSpec, duals: np.ndarray) -> np.ndarray:
        """Largest pairwise difference of the three algebraically equal
        quotient forms of the fixed-point criterion (y* = x*) of each dual at
        each row: pairing the increments separately, pairing their
        difference, and pairing the residual shift (u - v) - (x - y).
        `duals` is an (S..., m, size) array, S the leading stack axes of the
        rows (none for one base's rows, the bases of a stack), and the
        result has shape (S..., m, rows...); each dual's slice is bit for bit
        that of a stack of it alone (`pairing_stack`)."""
        axis = duals.ndim - 2

        def pair(increments):
            return pairing_stack(space, duals, np.expand_dims(increments, axis))

        den = np.expand_dims(self.den, axis)
        f1 = (pair(self.du) - pair(self.dv)) / den
        f2 = pair(self.du_minus_dv) / den
        f3 = pair(self.shift) / den
        return np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))


def _two_diff(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoDiff: s = fl(a - b) and the rounding error e, with
    s + e = a - b exactly (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26,
    2005)."""
    s = a - b
    bv = s - a
    av = s - bv
    return s, (a - av) - (b + bv)


@dataclass(frozen=True, eq=False)
class QuotientTrace:
    """Every sampled quotient of one estimate, indexed [level, row]: the
    radius of each level, those of the `SamplePass`, and the quotients,
    shape (levels, rows); both read only. The sampled points and values are
    not kept; the walk over the pass hands them to `estimate_limsup`'s
    `rows` block by block."""

    radii: np.ndarray
    quotients: np.ndarray

    def __len__(self) -> int:
        return self.quotients.size


@dataclass(frozen=True)
class LimsupEstimate:
    per_level_sup: tuple[float, ...]
    extrapolated: float
    verdict: Verdict
    trace: QuotientTrace
    tol_accept: float
    tol_reject: float


def tolerance_pair(ystar: DualVector) -> tuple[float, float]:
    """Scale-aware accept/reject thresholds; the gap between them is the
    indeterminate band."""
    return _tolerances(dual_norm(ystar))


def _tolerances(dual_norms):
    """`tolerance_pair` of the duals with these dual norms, a float or an
    array of them."""
    scale = 1.0 + dual_norms
    return 1e-3 * scale, 1e-2 * scale


def _increments(
    space: SpaceSpec, x, y, us: np.ndarray, vs: np.ndarray, dens: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate-independent parts of the quotient at sampled graph
    points (us, vs), arrays of shape (..., size), around the graph points
    x and y, arrays that broadcast against them (one base's point, or one
    per row or block): the increments du = u - x and dv = v - y, and the
    denominators, ||du|| + ||dv|| unless `dens` is given. A row at its
    base is a ZeroDivisionError."""
    du = us - x
    dv = vs - y
    if dens is None:
        dens = norm_rows(space, du) + norm_rows(space, dv)
    if not dens.all():
        raise ZeroDivisionError("sample coincides with the base point")
    return du, dv, dens


def _quotients(
    space: SpaceSpec,
    xstars: np.ndarray,
    ystars: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    dens: np.ndarray,
) -> np.ndarray:
    """The defining ratio ( <x*, du> - <y*, dv> ) / den of m candidates, the
    rows of the (m, size) arrays `xstars` and `ystars`, at increment rows of
    shape (k, ..., size) shared by all of them (k = 1) or one block per
    candidate (k = m): shape (m, ...); with a leading base axis on all of
    them, (bases, m, size) candidates at (bases, k, ..., size) rows give
    (bases, m, ...). The one quotient formula; its products are
    `pairing_stack`, so each candidate's quotients are those of a batch of
    one, bit for bit."""
    nums = pairing_stack(space, xstars, du) - pairing_stack(space, ystars, dv)
    return nums / dens


def _verdict(value: float, tol_accept: float, tol_reject: float) -> Verdict:
    if value <= tol_accept:
        return Verdict.MEMBER
    if value >= tol_reject:
        return Verdict.NON_MEMBER
    return Verdict.INDETERMINATE


@lru_cache(maxsize=1)
def _normal_draws(seed: int, levels: int, dirs_per_level: int, dim: int) -> np.ndarray:
    """The raw standard normal draws of a schedule, shape (levels,
    dirs_per_level, dim), from one `default_rng([seed, level])` stream per
    level; read only. They do not depend on the space, so every pass with the
    same seed, levels, rows and dimension shares one block and divides it by
    its schedule's norms of it in its own space."""
    draws = np.empty((levels, dirs_per_level, dim))
    for level in range(levels):
        draws[level] = np.random.default_rng([seed, level]).standard_normal((dirs_per_level, dim))
    draws.flags.writeable = False
    return draws


def sample_base(mapd: MapDescriptor, bases, schedule: SamplingSchedule) -> SamplePass:
    """The pass of every estimate at each of `bases` (a sequence of graph
    points, stacked in order, or one graph point, a stack of one) and the
    schedule: the graph points, the level radii and the normalized extra
    rays. It evaluates nothing; each walk over the pass evaluates its rows
    (`_level_rows`), and each base's rows are bit for bit those of a stack
    of that base alone."""
    bases = (bases,) if isinstance(bases, GraphPoint) else tuple(bases)
    space = mapd.space
    extra = np.empty((0, space.size))
    if schedule.extra_rays:
        extra = np.stack([ray.values for ray in schedule.extra_rays])
        extra_norms = norm_rows(space, extra)
        extra = extra / np.where(extra_norms == 0.0, 1.0, extra_norms)[:, None]
    radii = np.array([schedule.r0 * 2.0 ** (-level) for level in range(schedule.levels)])
    x = np.stack([base.x.values for base in bases])
    y = np.stack([base.y.values for base in bases])
    for array in (x, y, radii, extra):
        array.flags.writeable = False
    return SamplePass(mapd, bases, schedule, x, y, radii, extra)


def _level_rows(samples: SamplePass, block: slice) -> tuple[np.ndarray, np.ndarray]:
    """The sampled points u and values v of the levels `block` of the pass,
    shape (bases, levels in the block, rows, size), with one `value_batch`:
    per level, the seeded unit directions and then the normalized extra
    rays, scaled to the level radius around each base's x."""
    mapd = samples.map
    draws, norms = samples.schedule._direction_draws(mapd.space)
    # u = x + r * d
    directions = draws[block] / norms[block, :, None]
    if len(samples.extra):
        extra = np.broadcast_to(samples.extra, (len(directions), *samples.extra.shape))
        directions = np.concatenate([directions, extra], axis=1)
    directions *= samples.radii[block, None, None]
    us = directions + samples.x[:, None, None]
    del directions  # gone before the values are evaluated
    vs = mapd.value_batch(us.reshape(-1, us.shape[-1])).reshape(us.shape)
    return us, vs


def _level_blocks(shape: tuple[int, ...], candidates: int, first: int = 0) -> list[slice]:
    """Runs of consecutive levels, from level `first` on, of a (bases,
    levels, rows, size) stack of passes, or of one (levels, rows, size)
    block of draws, whose entries, and whose quotients of `candidates`
    candidates at each base, stay within QUOTIENT_BLOCK; one level where a
    level alone is larger. A walk over a pass evaluates its rows by the
    blocks of one candidate, and takes the quotients of its candidates by
    their blocks within each; a walk over direction draws takes the blocks
    of one candidate."""
    *stack, levels, rows, size = shape
    step = max(1, QUOTIENT_BLOCK // (math.prod(stack) * rows * max(size, candidates)))
    return [slice(lo, lo + step) for lo in range(first, levels, step)]


def _candidate_parts(entries: int, candidates: int) -> list[slice]:
    """Runs of consecutive candidates whose quotients, `entries` per
    candidate, stay within QUOTIENT_BLOCK; one candidate where its own are
    more. Each candidate's quotients are its slice of a stacked product
    (`pairing_stack`), so a part gives them bit for bit."""
    step = max(1, QUOTIENT_BLOCK // entries)
    return [slice(lo, lo + step) for lo in range(0, candidates, step)]


def _block_quotients(samples: SamplePass, xstars: np.ndarray, ystars: np.ndarray, rows=None, first: int = 0):
    """The quotients of m candidates at each base, the rows of the
    (bases, m, size) arrays `xstars` and `ystars`, over the levels `first`
    to the finest of the pass (all of them by default), one part of a block
    of levels at a time: `(levels, candidates, quotients)`, the part's
    levels (a range), its candidates (a slice) and their quotients, shape
    (bases, candidates in the part, levels in the part, rows).

    The one walk over a pass. It evaluates each block of those levels once
    (`_level_rows`), and no other level, hands each block to `rows` where
    given (a callable taking the block's points and values, two (bases,
    levels in the block, rows, size) arrays, in level order), and takes the
    quotients of each part of the block by `_increments` and `_quotients`:
    its `_level_blocks` for m candidates, each split by candidates where
    one level of them is more than QUOTIENT_BLOCK (`_candidate_parts`), so
    each increment is built once, and a part's quotients go before the next
    part's are taken. Each level's rows and quotients are those of a walk
    over every level, bit for bit: its directions are its own stream's. At
    the end it keeps a read-only copy of each base's finest level for the
    audit (`SamplePass.audit`)."""
    space = samples.map.space
    x, y = samples.x[:, None, None], samples.y[:, None, None]
    levels = range(len(samples.radii))
    for block in _level_blocks(samples._shape, 1, first):
        us, vs = _level_rows(samples, block)
        if rows is not None:
            rows(us, vs)
        for part in _level_blocks(us.shape, xstars.shape[1]):
            du, dv, dens = _increments(space, x, y, us[:, part], vs[:, part])
            for candidates in _candidate_parts(dens.size, xstars.shape[1]):
                quotients = _quotients(
                    space, xstars[:, candidates], ystars[:, candidates], du[:, None], dv[:, None], dens[:, None]
                )
                yield levels[block][part], candidates, quotients
            del du, dv
    finest = [us[:, -1].copy(), vs[:, -1].copy()]
    for array in finest:
        array.flags.writeable = False
    samples._finest[:] = finest


def estimate_limsup(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    schedule: SamplingSchedule,
    rows=None,
) -> LimsupEstimate:
    """Per-level suprema of the quotient over sampled directions, with the
    max of the two finest levels as the extrapolated limsup value, and the
    trace of every sampled quotient. Deterministic for a fixed seed, bit for
    bit on the trace. One walk over the pass, which holds one block of
    levels (`_level_blocks`) of its rows at a time; `rows`, where given, is
    called with each block's sampled points and values, two (1, levels in
    the block, rows, size) arrays, in level order, and what it keeps of them
    is outside that bound."""
    return _estimate(sample_base(mapd, base, schedule), xstar, ystar, rows)


def _estimate(samples: SamplePass, xstar: DualVector, ystar: DualVector, rows=None) -> LimsupEstimate:
    """`estimate_limsup` at the base of `samples`, a stack of one: the
    walk's quotients over every level, block by block, are the trace, and
    their row maxima are the per-level suprema (the two finest bit for bit
    those of `_sampled_sups`)."""
    xs, ys = xstar.values[None, None], ystar.values[None, None]
    quotients = np.concatenate([q[0, 0] for *_, q in _block_quotients(samples, xs, ys, rows)])
    quotients.flags.writeable = False
    return _reduced(quotients.max(axis=1), ystar, QuotientTrace(radii=samples.radii, quotients=quotients))


def _reduced(sups: np.ndarray, ystar: DualVector, trace: QuotientTrace) -> LimsupEstimate:
    """The estimate of the per-level suprema `sups` of one candidate at its
    y*, with `trace`."""
    extrapolated = float(_limsup(sups))
    tol_accept, tol_reject = tolerance_pair(ystar)
    return LimsupEstimate(
        per_level_sup=tuple(sups.tolist()),
        extrapolated=extrapolated,
        verdict=_verdict(extrapolated, tol_accept, tol_reject),
        trace=trace,
        tol_accept=tol_accept,
        tol_reject=tol_reject,
    )


def _sampled_sups(samples: SamplePass, xstars: np.ndarray, ystars: np.ndarray) -> np.ndarray:
    """The suprema of the _LIMSUP_LEVELS finest levels of each candidate at
    each base, the rows of the (bases, m, size) arrays `xstars` and
    `ystars`, shape (bases, m, _LIMSUP_LEVELS), without the trace: the walk
    evaluates those levels only, and each part's quotients are reduced to
    their suprema as the walk gives them."""
    first = len(samples.radii) - _LIMSUP_LEVELS
    sups = np.empty((*xstars.shape[:2], _LIMSUP_LEVELS))
    for levels, candidates, quotients in _block_quotients(samples, xstars, ystars, first=first):
        sups[:, candidates, levels.start - first : levels.stop - first] = quotients.max(axis=-1)
    return sups


def _limsup(sups: np.ndarray) -> np.ndarray:
    """The limsup estimate of per-level suprema (the last axis): the max of
    the _LIMSUP_LEVELS finest as Python's max takes it, coarsest first, a
    finer level's only where it is larger."""
    finest = np.moveaxis(sups[..., -_LIMSUP_LEVELS:], -1, 0)
    return reduce(lambda value, sup: np.where(sup > value, sup, value), finest)


# Directed rays start at t = RAY_T0 (or the first halving of it that stays
# in the base branch, tried RAY_HALVINGS times) and take RAY_STEPS steps
# shrinking by RAY_RATIO.
RAY_T0 = 1e-2
RAY_HALVINGS = 60
RAY_STEPS = 10
RAY_RATIO = 0.5


def directed_ray_limit(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    direction: PrimalVector,
    split_l1_denominator: bool = False,
) -> float:
    """Extrapolated t -> 0 limit of the quotient along u_t = x + t * direction.

    The start shrinks until the whole ray stays in the base point's smooth
    branch of the map. With `split_l1_denominator` the exterior l_1 cases use
    the triangle-split denominator (a lower bound for the raw quotient),
    reproducing the case-analysis values instead of the raw ray limit.
    """
    if norm(direction) == 0.0:
        raise ValueError("direction must be nonzero")
    directions = direction.values[None, :]
    x, y = base.x.values, base.y.values
    t_starts = _ray_starts(mapd, x, directions)
    if np.isnan(t_starts[0]):
        raise ValueError("ray leaves the base branch at every tested scale, or its probe is not finite")
    if split_l1_denominator and mapd.kind != L1_BALL_PROJ:
        raise ValueError("the split denominator applies to the l_1 ball projection")
    rows = _ray_rows(mapd, x, y, t_starts, directions, split_l1_denominator)
    return float(_richardson(_quotients(mapd.space, xstar.values[None], ystar.values[None], *rows))[0])


def _ray_starts(mapd: MapDescriptor, x: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """The start of the ray along each row of `directions` from its base
    point, the matching row of `x` (an array that broadcasts against
    `directions`, one (size,) point for all): the first halving of RAY_T0
    at which the probe x + t * direction is in the base branch. All rays
    share one halving loop, which probes only the rows not yet in the
    branch. NaN where the ray leaves the branch at every tested scale, or
    where its first probe is not finite (a later probe lies between x and
    the first, so it is finite).
    """
    x = np.broadcast_to(x, directions.shape)
    starts = np.full(len(directions), np.nan)
    t = RAY_T0
    with np.errstate(over="ignore"):
        probes = x + t * directions
    pending = np.flatnonzero(np.isfinite(probes).all(axis=-1))
    probes = probes[pending]
    for halving in range(RAY_HALVINGS):
        if halving:
            t *= 0.5
            probes = x[pending] + t * directions[pending]
        inside = mapd.same_branch(x[pending], probes)
        starts[pending[inside]] = t
        pending = pending[~inside]
        if not pending.size:
            break
    return starts


class _RayRows(NamedTuple):
    """The candidate-independent rows of directed rays, indexed [ray, step]:
    the increments du = u - x and dv = v - y (shape (rays, RAY_STEPS, size))
    and the quotient denominators (shape (rays, RAY_STEPS))."""

    du: np.ndarray
    dv: np.ndarray
    dens: np.ndarray


def _ray_rows(
    mapd: MapDescriptor,
    x: np.ndarray,
    y: np.ndarray,
    t_starts: np.ndarray,
    directions: np.ndarray,
    split_l1_denominator: bool = False,
) -> _RayRows:
    """The rows of each (t_starts[i], directions[i]) ray from the graph point
    (x[i], y[i]) (arrays that broadcast against `directions`, one point for
    all): RAY_STEPS points from its start, shrinking by RAY_RATIO, all rays
    in one stacked pass with one `value_batch` over every row."""
    ts = t_starts[:, None] * RAY_RATIO ** np.arange(RAY_STEPS)
    offsets = ts[:, :, None] * directions[:, None, :]
    x = np.broadcast_to(x, directions.shape)[:, None, :]
    y = np.broadcast_to(y, directions.shape)[:, None, :]
    us = x + offsets
    dens = None
    if split_l1_denominator:
        # the selection move split into its ray part and its rescaling part
        # before taking norms, matching the lower-bound chain the exterior
        # case analysis is built on; never smaller than the plain denominator
        space, r = mapd.space, mapd.radius
        scales = r / norm_rows(space, us)
        ray_parts = (scales * ts)[:, :, None] * directions[:, None, :]
        rescale_parts = (scales - r / norm_rows(space, x))[:, :, None] * x
        dens = norm_rows(space, offsets) + norm_rows(space, ray_parts) + norm_rows(space, rescale_parts)
    vs = mapd.value_batch(us.reshape(-1, us.shape[-1])).reshape(us.shape)
    return _RayRows(*_increments(mapd.space, x, y, us, vs, dens))


def _started_rays(
    mapd: MapDescriptor, x: np.ndarray, y: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, _RayRows]:
    """Which rays along the rows of `directions` from the graph points (x, y)
    (arrays that broadcast against `directions`) start in their base
    branch (`_ray_starts`), and the rows of those that do."""
    t_starts = _ray_starts(mapd, x, directions)
    started = ~np.isnan(t_starts)
    x, y = np.broadcast_to(x, directions.shape), np.broadcast_to(y, directions.shape)
    return started, _ray_rows(mapd, x[started], y[started], t_starts[started], directions[started])


def _richardson(qs: np.ndarray) -> np.ndarray:
    """The limit of the quotients along each ray, from its last two steps
    (the last axis of `qs`): a Richardson step for q(t) = L + c t + O(t^2)
    on a geometric sequence."""
    return (qs[..., -1] - RAY_RATIO * qs[..., -2]) / (1.0 - RAY_RATIO)


def norming_rays(space: SpaceSpec, diffs: np.ndarray, ystars: np.ndarray) -> np.ndarray:
    """The norming direction of each row d of the (m, size) array `diffs`
    (`spaces.norming_rows`), and a zero row where ||d||_* is at most 1e-12
    (1 + ||y*||_*), with y* the same row of `ystars`: d is then x* - y*, or
    x* less its expected image, to rounding."""
    norms = dual_norm_rows(space, diffs)
    aimed = norms > 1e-12 * (1.0 + dual_norm_rows(space, ystars))
    return norming_rows(space, diffs, np.where(aimed, norms, 0.0))


def _ray_stack_size(mapd: MapDescriptor, candidates: int, extra: int, stack: int) -> int:
    """How many bases one fold of rays (`_fold_rays`) takes where stacks of
    `stack` bases ask `candidates` candidates, each with `extra` extra rays,
    at each base: as many whole stacks as keep the ray rows of their bases,
    (kink rays + candidates x (1 + extra)) x RAY_STEPS x size entries per
    base, within QUOTIENT_BLOCK; one stack where a stack's are more."""
    rows = (len(mapd.kink_rays) + candidates * (1 + extra)) * RAY_STEPS * mapd.space.size
    return stack * max(1, QUOTIENT_BLOCK // (stack * rows))


def _fold_rays(
    samples: SamplePass, xs: np.ndarray, ys: np.ndarray, extra_rays: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Each candidate's entry of `values` folded with its directed ray
    limits by Python's left-to-right max, rays in order: the norming ray of
    x* - y* (a zero ray where y* = x*), the map's kink rays, then the
    candidate's extra rays. `xs` and `ys` are the candidates' (bases, m,
    size) duals, block b at the base b of `samples`, `extra_rays` their
    (bases, m, k, size) extra rays, k per candidate, and `values` is
    (bases, m).

    Zero rays, and rays that leave the base branch at every scale or whose
    probe is not finite, are skipped, and a NaN limit never replaces a
    value. The kink rays' rows are the pass's (`SamplePass.kink_rows`); the
    other rays of every candidate at every base share one halving loop and
    one stacked pass of rows. No candidate's limits depend on the other
    bases or candidates of the pass, so `samples` need not be the pass that
    was walked for `values`: it may stack the bases of several walked
    passes (`_ray_stack_size`).
    """
    mapd, space = samples.map, samples.map.space
    bases, m, size = xs.shape
    flat_xs, flat_ys = xs.reshape(-1, size), ys.reshape(-1, size)
    norming = norming_rays(space, flat_xs - flat_ys, flat_ys).reshape(bases, m, 1, size)
    # column 0 of `own` is the norming ray, column 1 + j the j-th extra ray
    directions = np.concatenate([norming, extra_rays], axis=2)
    own = np.full(directions.shape[:3], np.nan)
    directions = directions.reshape(-1, size)
    nonzero = np.flatnonzero(directions.any(axis=-1))  # a ray's norm is 0 exactly when its values are
    if nonzero.size:
        owners = nonzero // own.shape[2]  # the candidate, b * m + i
        at = owners // m  # its base
        started, rows = _started_rays(mapd, samples.x[at], samples.y[at], directions[nonzero])
        owners = owners[started]
        own.reshape(-1)[nonzero[started]] = _richardson(_quotients(space, flat_xs[owners], flat_ys[owners], *rows))
    kinks = np.empty((bases, m, 0))
    if mapd.kink_rays:
        du, dv, dens = samples.kink_rows
        kinks = _richardson(_quotients(space, xs, ys, du[:, None], dv[:, None], dens[:, None]))
    for limits in (own[..., 0], *np.moveaxis(kinks, -1, 0), *np.moveaxis(own[..., 1:], -1, 0)):
        values = np.where(limits > values, limits, values)
    return values


def membership_test(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    schedule: SamplingSchedule,
    extra_ray_dirs: np.ndarray = (),
) -> LimsupEstimate:
    """Three-way membership verdict for x* in the derivative operator value
    at y*.

    Wraps `estimate_limsup`, the same walk with the same trace and no
    whole pass of rows, and additionally extrapolates directed rays
    (norming-direction rays plus kink-aligned basis rays and any caller
    supplied ones, the rows of the (k, size) array `extra_ray_dirs`) in one
    stacked pass, after one halving loop has found every ray's start; zero
    rays, rays that leave the base branch at every scale and rays whose
    probe is not finite are skipped. Rays can only
    certify fresh non-membership, never flip a true member, since every ray
    limit lower-bounds the limsup. The rays are those of `membership_batch`,
    for a batch of one.
    """
    samples = sample_base(mapd, base, schedule)
    est = _estimate(samples, xstar, ystar)
    xs, ys = xstar.values[None, None], ystar.values[None, None]
    extra = np.reshape(np.asarray(extra_ray_dirs, dtype=float), (1, 1, -1, mapd.space.size))
    combined = _fold_rays(samples, xs, ys, extra, np.array([[est.extrapolated]])).item()
    return replace(est, extrapolated=combined, verdict=_verdict(combined, est.tol_accept, est.tol_reject))


@dataclass(frozen=True)
class Answer:
    """The oracle's answer about one candidate: the extrapolated value and
    verdict of its `membership_test`, which `membership_batch` gives each
    candidate of a stack. `fixed_points.ask` answers a query that a closed
    form settles with the closed form's verdict and no value (`extrapolated`
    None)."""

    extrapolated: float | None
    verdict: Verdict


def membership_batch(
    mapd: MapDescriptor,
    bases: Sequence[GraphPoint],
    xs: np.ndarray,
    ys: np.ndarray,
    fixed: np.ndarray,
    schedule: SamplingSchedule,
    extra_rays,
) -> list[list[tuple[float, float, Answer]]]:
    """What the oracle says about each candidate (xs[b, i], ys[b, i]), rows
    of (bases, m, size) arrays of dual values, at the graph point bases[b]
    of the map: one list of m entries (spread, scale, answer) per base.

    The answer is the value and verdict of the candidate's `membership_test`
    with one extra ray, its row of `extra_rays(mapd, bases, xs, ys)` (a
    callable giving a (bases, m, size) array for a stack of the bases and
    their candidates, a zero row aiming no ray), bit for bit. The scale is
    1 + ||y*||_*. Where the (bases, m) mask `fixed` is set, the candidate
    asks whether x* is a fixed point (y* = x*), and the spread is the
    largest of its quotient forms' spreads on its base's finest level
    (`AuditRows.spread`); elsewhere it is 0.0.

    The bases are drawn in sample stacks of at most
    `SamplingSchedule.stack_size`, in order, and each stack is walked over
    its two finest levels (`_sampled_sups`, the audit spreads a part of the
    candidates at a time, `_candidate_parts`) and released before the next
    is drawn, so the memory bound of one stack holds for all of them. The
    rays are folded by ray stacks (`_fold_rays`): as many consecutive whole
    sample stacks as keep their ray rows within QUOTIENT_BLOCK
    (`_ray_stack_size`), over one pass of all their bases, which
    `sample_base` draws without evaluating anything; a ray stack of one
    sample stack folds over the pass it walked. No candidate's entry
    depends on the other bases or candidates.
    """
    space, (count, m, size) = mapd.space, xs.shape
    stack = schedule.stack_size(space, m)
    fold = _ray_stack_size(mapd, m, 1, stack)
    entries = []
    for lo in range(0, count, fold):
        group, walked = slice(lo, lo + fold), []
        for at in range(lo, min(lo + fold, count), stack):
            samples = None  # release the previous pass before drawing this one
            samples = sample_base(mapd, bases[at : at + stack], schedule)
            part = slice(at, at + stack)
            values = _limsup(_sampled_sups(samples, xs[part], ys[part]))
            spreads = np.zeros(fixed[part].shape)
            if fixed[part].any():
                audit = samples.audit
                for candidates in _candidate_parts(audit.den.size, m):
                    spreads[:, candidates] = audit.spread(space, xs[part, candidates]).max(axis=-1)
                spreads[~fixed[part]] = 0.0
            walked.append((values, spreads))
        if len(walked) > 1:
            samples = None
            samples = sample_base(mapd, bases[group], schedule)
        values, spreads = (np.concatenate(arrays) for arrays in zip(*walked))
        rays = extra_rays(mapd, samples.bases, xs[group], ys[group])[:, :, None]
        values = _fold_rays(samples, xs[group], ys[group], rays, values)
        norms = dual_norm_rows(space, ys[group].reshape(-1, size))
        accepts, rejects = _tolerances(norms)
        answers = [
            (spread, scale, Answer(value, _verdict(value, accept, reject)))
            for spread, scale, value, accept, reject in zip(
                spreads.reshape(-1).tolist(),
                (1.0 + norms).tolist(),
                values.reshape(-1).tolist(),
                accepts.tolist(),
                rejects.tolist(),
            )
        ]
        entries += [answers[b * m : (b + 1) * m] for b in range(len(values))]
    return entries


def trace_to_csv(estimate: LimsupEstimate) -> str:
    """Quotient trace as CSV rows (level, radius, direction index, quotient).
    Each level's lines are one join of its rows' indices and quotient reprs
    over its "level,radius," prefix."""
    trace = estimate.trace
    indices = [f"{index}," for index in range(trace.quotients.shape[1])]
    lines = ["level,radius,direction_index,quotient\n"]
    for level, (radius, quotients) in enumerate(zip(trace.radii.tolist(), trace.quotients.tolist())):
        prefix = f"{level},{radius!r},"
        lines.append(prefix + f"\n{prefix}".join(map(operator.add, indices, map(repr, quotients))) + "\n")
    return "".join(lines)
