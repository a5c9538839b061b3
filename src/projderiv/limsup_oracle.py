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
duals, so `sample_base` draws them once as a `SamplePass` that every
candidate queried at that base shares (`membership_batch`); only the
numerators are per candidate. Every walk over the levels of a pass goes by
the same blocks of consecutive levels of at most `QUOTIENT_BLOCK` entries
(one level where a level alone is larger, `_level_blocks`): `sample_base` builds each
block's values and denominators with one `value_batch`, and one generator
(`_block_quotients`) gives each block's quotients, which `estimate_limsup`
keeps as its trace and `membership_batch` reduces to per-level suprema. A
stacked array rounds like the per-level ones, so nothing depends on the
blocking. The raw normal draws behind the directions do not
depend on the space either, so passes with the same seed, levels, rows and
dimension share one read-only block of them (the last block drawn is kept).
Their norms do, and a schedule keeps them per space it has sampled, so each
pass only divides the block by them, scales and shifts. A query's directed
rays are evaluated together: one halving loop finds every ray's start,
probing as rows only the rays not yet in the base branch, and their limits
are one stacked array of rows. The kink rays do not depend on the duals
either, so a pass builds their rows once (`SamplePass.kink_rows`). The
quotient-form audit of `fixed_points` checks the same pass: its rows are the
finest level's (`SamplePass.audit`). A pass is immutable and its arrays are
read only, so sharing it cannot leak state from one estimate into another.

`membership_batch` answers many candidates at one pass in one array pass:
it takes their duals and extra rays as arrays (a fixed-point candidate has
y* = x*), each block of levels keeps only every candidate's per-level
suprema (the `QUOTIENT_BLOCK` bound holds on the candidate axis too), the
norming rays of x* - y* are rows (`norming_rays`, a zero ray where
y* = x*), and the rays of every candidate share one halving loop
and one stacked pass of rows. `estimate_limsup`, `membership_test` and
`directed_ray_limit` are batches of one through the same code
(`_quotients`, `_fold_rays`), so a batch gives each candidate its one-call
numbers bit for bit. That rests on two rules. Products are
`spaces.pairing_stack`, a stacked matmul whose slices are the per-dual
matrix-vector products; a gemm over the candidates rounds differently. And
the folding of ray limits keeps Python's left-to-right max per candidate,
with its rays in their one-call order.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .coderivatives import L1_BALL_PROJ, MapDescriptor
from .spaces import (
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
    "quotient",
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
    def checked(
        cls, mapd: MapDescriptor, x: PrimalVector, y: PrimalVector, tol: float = 1e-12
    ) -> "GraphPoint":
        if not mapd.graph_contains(x, y, tol=tol):
            raise ValueError("(x, y) is not a graph point of the map")
        return cls(x, y)


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


@dataclass(frozen=True, eq=False)
class SamplePass:
    """The candidate-independent rows of an estimate at one base, indexed
    [level, row]: the radius of each level, the sampled points u and values
    v (shape (levels, rows, size)) and the denominators ||u - x|| + ||v - y||
    (shape (levels, rows)). Built by `sample_base`; every array is read
    only."""

    map: MapDescriptor
    base: GraphPoint
    schedule: SamplingSchedule
    radii: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    dens: np.ndarray

    @cached_property
    def audit(self) -> AuditRows:
        """The quotient-form audit rows of the finest level, built on first
        use."""
        return AuditRows.at(self.base, self.us[-1], self.vs[-1])

    @cached_property
    def kink_rows(self) -> _RayRows:
        """The rows of the map's kink rays (`MapDescriptor.kink_rays`) that
        start in the base branch, in their order, built on first use. Like
        the sampled rows they do not depend on the candidate; only the
        numerators do. Defined for maps with kink rays only."""
        directions = np.stack([ray.values for ray in self.map.kink_rays])
        rows = _started_rays(self.map, self.base, directions)[1]
        for array in rows:
            array.flags.writeable = False
        return rows


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
        du, dv, den = _increments(base, us, vs)
        a, ea = _two_diff(us, vs)
        b, eb = _two_diff(base.x.values, base.y.values)
        rows = cls(du, dv, den, du - dv, (a - b) + (ea - eb))
        for array in vars(rows).values():
            array.flags.writeable = False
        return rows


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
    radius of each level, the sampled points u and values v (shape
    (levels, rows, size)), and the quotients (shape (levels, rows)). The
    radii, us and vs are those of the shared `SamplePass`."""

    radii: np.ndarray
    us: np.ndarray
    vs: np.ndarray
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


def quotient(
    mapd: MapDescriptor,
    base: GraphPoint,
    u: PrimalVector,
    v: PrimalVector,
    xstar: DualVector,
    ystar: DualVector,
) -> float:
    """The defining ratio at one sampled graph point (u, v) != (x, y):
    `_quotients` on a row of one."""
    du, dv, dens = _increments(base, u.values[None], v.values[None])
    return float(_quotients(base.x.space, xstar.values[None], ystar.values[None], du[None], dv[None], dens)[0, 0])


def _increments(
    base: GraphPoint, us: np.ndarray, vs: np.ndarray, dens: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate-independent parts of the quotient at sampled graph
    points (us, vs), arrays of shape (..., size): the increments du = u - x
    and dv = v - y, and the denominators, ||du|| + ||dv|| unless `dens` is
    given. A row at the base is a ZeroDivisionError."""
    du = us - base.x.values
    dv = vs - base.y.values
    if dens is None:
        dens = norm_rows(base.x.space, du) + norm_rows(base.x.space, dv)
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
    candidate (k = m): shape (m, ...). The one quotient formula; its
    products are `pairing_stack`, so each candidate's quotients are those of
    a batch of one, bit for bit."""
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


def sample_base(mapd: MapDescriptor, base: GraphPoint, schedule: SamplingSchedule) -> SamplePass:
    """The sampled rows of every estimate at this base and schedule: per
    level, the seeded unit directions plus the normalized extra rays, scaled
    to the level radius around x, with the map's values and the quotient
    denominators there, one `value_batch` per block of levels
    (`_level_blocks`)."""
    space = mapd.space
    dim = space.size
    extra = np.empty((0, dim))
    if schedule.extra_rays:
        extra = np.stack([ray.values for ray in schedule.extra_rays])
        extra_norms = norm_rows(space, extra)
        extra = extra / np.where(extra_norms == 0.0, 1.0, extra_norms)[:, None]
    levels, dirs = schedule.levels, schedule.dirs_per_level
    draws, dir_norms = schedule._direction_draws(space)
    radii = np.array([schedule.r0 * 2.0 ** (-level) for level in range(levels)])
    # u = x + r * d, built in place
    us = np.empty((levels, dirs + len(extra), dim))
    np.divide(draws, dir_norms[:, :, None], out=us[:, :dirs])
    us[:, dirs:] = extra
    us *= radii[:, None, None]
    us += base.x.values
    vs = np.empty_like(us)
    dens = np.empty(us.shape[:2])
    for block in _level_blocks(us.shape, 1):
        vs[block] = mapd.value_batch(us[block].reshape(-1, dim)).reshape(us[block].shape)
        # `_increments`' denominators, without holding du and dv at once
        dens[block] = norm_rows(space, us[block] - base.x.values) + norm_rows(space, vs[block] - base.y.values)
    for array in (radii, us, vs, dens):
        array.flags.writeable = False
    return SamplePass(mapd, base, schedule, radii, us, vs, dens)


# Largest stacked block of sample entries (levels x rows x size), and of
# quotients (candidates x levels x rows), that the sampled estimates evaluate
# in one call; a larger block would raise the peak memory of the wide and
# fine-grid passes.
QUOTIENT_BLOCK = 2**14


def _level_blocks(shape: tuple[int, int, int], candidates: int) -> list[slice]:
    """Runs of consecutive levels of a (levels, rows, size) array whose
    entries, and whose quotients of `candidates` candidates, stay within
    QUOTIENT_BLOCK; one level where a level alone is larger. Every walk over
    the levels of a pass, or of its direction draws, takes these blocks."""
    levels, rows, size = shape
    step = max(1, QUOTIENT_BLOCK // (rows * max(size, candidates)))
    return [slice(lo, lo + step) for lo in range(0, levels, step)]


def _block_quotients(samples: SamplePass, xstars: np.ndarray, ystars: np.ndarray):
    """The quotients of m candidates, the rows of the (m, size) arrays
    `xstars` and `ystars`, over the pass, one block of levels at a time:
    shape (m, levels in the block, rows)."""
    for block in _level_blocks(samples.us.shape, len(xstars)):
        du, dv, dens = _increments(samples.base, samples.us[block], samples.vs[block], samples.dens[block])
        quotients = _quotients(samples.map.space, xstars, ystars, du[None], dv[None], dens)
        del du, dv  # a block's increments go before the next block's are built
        yield quotients


def estimate_limsup(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    schedule: SamplingSchedule,
) -> LimsupEstimate:
    """Per-level suprema of the quotient over sampled directions, with the
    max of the two finest levels as the extrapolated limsup value.
    Deterministic for a fixed seed, bit for bit on the trace."""
    return _estimate(sample_base(mapd, base, schedule), xstar, ystar)


def _estimate(samples: SamplePass, xstar: DualVector, ystar: DualVector) -> LimsupEstimate:
    """`estimate_limsup` at the base of `samples`, with the trace."""
    quotients = np.concatenate([q[0] for q in _block_quotients(samples, xstar.values[None], ystar.values[None])])
    trace = QuotientTrace(radii=samples.radii, us=samples.us, vs=samples.vs, quotients=quotients)
    sups = quotients.max(axis=1).tolist()
    extrapolated = max(sups[-2:])
    tol_accept, tol_reject = tolerance_pair(ystar)
    return LimsupEstimate(
        per_level_sup=tuple(sups),
        extrapolated=float(extrapolated),
        verdict=_verdict(extrapolated, tol_accept, tol_reject),
        trace=trace,
        tol_accept=tol_accept,
        tol_reject=tol_reject,
    )


def _sampled_limsups(samples: SamplePass, xstars: np.ndarray, ystars: np.ndarray) -> np.ndarray:
    """`estimate_limsup(...).extrapolated` of each candidate, the rows of the
    (m, size) arrays `xstars` and `ystars`, without the trace: each block's
    quotients are reduced to per-level suprema."""
    sups = np.concatenate([q.max(axis=-1) for q in _block_quotients(samples, xstars, ystars)], axis=1)
    # Python's max(sups[-2:]): the finest level only where it is larger
    return np.where(sups[:, -1] > sups[:, -2], sups[:, -1], sups[:, -2])


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
    t_starts = _ray_starts(mapd, base, directions)
    if np.isnan(t_starts[0]):
        raise ValueError("ray leaves the base branch at every tested scale, or its probe is not finite")
    if split_l1_denominator and mapd.kind != L1_BALL_PROJ:
        raise ValueError("the split denominator applies to the l_1 ball projection")
    rows = _ray_rows(mapd, base, t_starts, directions, split_l1_denominator)
    return float(_richardson(_quotients(mapd.space, xstar.values[None], ystar.values[None], *rows))[0])


def _ray_starts(mapd: MapDescriptor, base: GraphPoint, directions: np.ndarray) -> np.ndarray:
    """The start of the ray along each row of `directions`: the first
    halving of RAY_T0 at which the probe x + t * direction is in the base
    branch. All rays share one halving loop, which probes only the rows not
    yet in the branch. NaN where the ray leaves the branch at every tested
    scale, or where its first probe is not finite (a later probe lies
    between x and the first, so it is finite).
    """
    x = base.x.values
    starts = np.full(len(directions), np.nan)
    t = RAY_T0
    with np.errstate(over="ignore"):
        probes = x + t * directions
    pending = np.flatnonzero(np.isfinite(probes).all(axis=-1))
    probes = probes[pending]
    for halving in range(RAY_HALVINGS):
        if halving:
            t *= 0.5
            probes = x + t * directions[pending]
        inside = mapd.same_branch(base.x, probes)
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
    base: GraphPoint,
    t_starts: np.ndarray,
    directions: np.ndarray,
    split_l1_denominator: bool = False,
) -> _RayRows:
    """The rows of each (t_starts[i], directions[i]) ray: RAY_STEPS points
    from its start, shrinking by RAY_RATIO, all rays in one stacked pass with
    one `value_batch` over every row."""
    ts = t_starts[:, None] * RAY_RATIO ** np.arange(RAY_STEPS)
    offsets = ts[:, :, None] * directions[:, None, :]
    us = base.x.values + offsets
    dens = None
    if split_l1_denominator:
        # the selection move split into its ray part and its rescaling part
        # before taking norms, matching the lower-bound chain the exterior
        # case analysis is built on; never smaller than the plain denominator
        space, r = mapd.space, mapd.radius
        scales = r / norm_rows(space, us)
        ray_parts = (scales * ts)[:, :, None] * directions[:, None, :]
        rescale_parts = (scales - r / norm(base.x))[:, :, None] * base.x.values
        dens = norm_rows(space, offsets) + norm_rows(space, ray_parts) + norm_rows(space, rescale_parts)
    vs = mapd.value_batch(us.reshape(-1, us.shape[-1])).reshape(us.shape)
    return _RayRows(*_increments(base, us, vs, dens))


def _started_rays(
    mapd: MapDescriptor, base: GraphPoint, directions: np.ndarray
) -> tuple[np.ndarray, _RayRows]:
    """Which rays along the rows of `directions` start in the base branch
    (`_ray_starts`), and the rows of those that do."""
    t_starts = _ray_starts(mapd, base, directions)
    started = ~np.isnan(t_starts)
    return started, _ray_rows(mapd, base, t_starts[started], directions[started])


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


def _fold_rays(
    samples: SamplePass, xs: np.ndarray, ys: np.ndarray, extra_rays: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Each candidate's entry of `values` folded with its directed ray
    limits by Python's left-to-right max, rays in order: the norming ray of
    x* - y* (a zero ray where y* = x*), the map's kink rays, then the
    candidate's extra rays. `xs` and `ys` are the candidates' (m, size)
    duals and `extra_rays` their (m, k, size) extra rays, k per candidate.

    Zero rays, and rays that leave the base branch at every scale or whose
    probe is not finite, are skipped, and a NaN limit never replaces a
    value. The kink rays' rows are the pass's (`SamplePass.kink_rows`); the
    other rays of every candidate share one halving loop and one stacked
    pass of rows.
    """
    mapd, base, space = samples.map, samples.base, samples.map.space
    norming = norming_rays(space, xs - ys, ys)
    # column 0 of `own` is the norming ray, column 1 + j the j-th extra ray
    directions = np.concatenate([norming[:, None], extra_rays], axis=1)
    own = np.full(directions.shape[:2], np.nan)
    directions = directions.reshape(-1, space.size)
    nonzero = np.flatnonzero(directions.any(axis=-1))  # a ray's norm is 0 exactly when its values are
    if nonzero.size:
        started, rows = _started_rays(mapd, base, directions[nonzero])
        owners, columns = np.divmod(nonzero[started], own.shape[1])
        own[owners, columns] = _richardson(_quotients(space, xs[owners], ys[owners], *rows))
    kinks = np.empty((len(values), 0))
    if mapd.kink_rays:
        du, dv, dens = samples.kink_rows
        kinks = _richardson(_quotients(space, xs, ys, du[None], dv[None], dens))
    for limits in (own[:, 0], *kinks.T, *own[:, 1:].T):
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

    Wraps `estimate_limsup` and additionally extrapolates directed rays
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
    xs, ys = xstar.values[None], ystar.values[None]
    extra = np.reshape(np.asarray(extra_ray_dirs, dtype=float), (1, -1, mapd.space.size))
    combined = _fold_rays(samples, xs, ys, extra, np.array([est.extrapolated])).item()
    return replace(est, extrapolated=combined, verdict=_verdict(combined, est.tol_accept, est.tol_reject))


@dataclass(frozen=True)
class Answer:
    """The oracle's answer about one candidate of `membership_batch`: the
    extrapolated value and verdict of its `membership_test`. `fixed_points.ask`
    answers a query that a closed form settles with the closed form's
    verdict and no value (`extrapolated` None)."""

    extrapolated: float | None
    verdict: Verdict


def membership_batch(
    samples: SamplePass, xs: np.ndarray, ys: np.ndarray, extra_rays: np.ndarray
) -> list[Answer]:
    """`membership_test` of each candidate (xs[i], ys[i]), rows of (m, size)
    arrays of dual values, with the extra rays extra_rays[i] (an (m, k, size)
    array) at the base of `samples`, in one array pass over the candidates,
    without the traces: the same extrapolated values, bit for bit, and the
    same verdicts. A candidate with y* = x* asks whether x* is a fixed
    point.

    Each block of levels evaluates every candidate's quotients in one
    stacked product and keeps only their per-level suprema, the rays of all
    candidates are one stacked pass (`_fold_rays`), and the tolerances are
    those of the rows' dual norms (`spaces.dual_norm_rows`).
    """
    if not len(xs):
        return []
    values = _fold_rays(samples, xs, ys, extra_rays, _sampled_limsups(samples, xs, ys))
    accepts, rejects = _tolerances(dual_norm_rows(samples.map.space, ys))
    return [
        Answer(value, _verdict(value, accept, reject))
        for value, accept, reject in zip(values.tolist(), accepts.tolist(), rejects.tolist())
    ]


def trace_to_csv(estimate: LimsupEstimate) -> str:
    """Quotient trace as CSV rows (level, radius, direction index, quotient)."""
    out = io.StringIO()
    out.write("level,radius,direction_index,quotient\n")
    trace = estimate.trace
    for level, (radius, quotients) in enumerate(zip(trace.radii.tolist(), trace.quotients.tolist())):
        for index, q in enumerate(quotients):
            out.write(f"{level},{radius!r},{index},{q!r}\n")
    return out.getvalue()
