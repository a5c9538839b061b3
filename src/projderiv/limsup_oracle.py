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
candidate queried at that base can share (`samples=`); only the numerators
are per candidate, evaluated over blocks of consecutive levels of at most
`QUOTIENT_BLOCK` entries (one level where a level alone is larger): a
stacked product rounds like the per-level one, so the quotients do not
depend on the blocking. The raw normal draws behind the directions do not
depend on the space either, so passes with the same seed, levels, rows and
dimension share one read-only block of them (the last block drawn is kept),
each normalizing it in its own norm. A query's directed rays are evaluated
together, as one stacked array of rows. The quotient-form audit of
`fixed_points` checks the same pass: its rows are the finest level's
(`SamplePass.audit`). A pass is immutable and its arrays are read only, so
sharing it cannot leak state from one estimate into another.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .coderivatives import L1_BALL_PROJ, MapDescriptor
from .spaces import (
    DualVector,
    PrimalVector,
    dual_norm,
    norm,
    norm_rows,
    norming_direction,
    pairing_rows,
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
    "quotient",
    "sample_base",
    "estimate_limsup",
    "directed_ray_limit",
    "membership_test",
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
    """

    r0: float = 0.5
    levels: int = 8
    dirs_per_level: int = 64
    extra_rays: tuple[PrimalVector, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.r0 < math.inf:
            raise ValueError("r0 must be positive and finite")
        if self.levels < 4:
            raise ValueError("need at least 4 radius levels")
        if self.dirs_per_level < 16:
            raise ValueError("need at least 16 directions per level")


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
        du = us - base.x.values[None, :]
        dv = vs - base.y.values[None, :]
        den = norm_rows(base.x.space, du) + norm_rows(base.x.space, dv)
        if not np.all(den):
            raise ZeroDivisionError("sample coincides with the base point")
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
    scale = 1.0 + dual_norm(ystar)
    return 1e-3 * scale, 1e-2 * scale


def quotient(
    mapd: MapDescriptor,
    base: GraphPoint,
    u: PrimalVector,
    v: PrimalVector,
    xstar: DualVector,
    ystar: DualVector,
) -> float:
    """The defining ratio at one sampled graph point (u, v) != (x, y)."""
    return float(_row_quotients(base, u.values[None, :], v.values[None, :], xstar, ystar)[0])


def _row_quotients(
    base: GraphPoint,
    us: np.ndarray,
    vs: np.ndarray,
    xstar: DualVector,
    ystar: DualVector,
    dens: np.ndarray | None = None,
) -> np.ndarray:
    """The defining ratio at each sampled graph point, a row of `us` and the
    same row of `vs` (arrays of shape (..., size)), the one quotient formula;
    `dens` replaces the plain denominators ||u - x|| + ||v - y||."""
    du = us - base.x.values[None, :]
    dv = vs - base.y.values[None, :]
    nums = pairing_rows(xstar, du) - pairing_rows(ystar, dv)
    if dens is None:
        dens = norm_rows(base.x.space, du) + norm_rows(base.x.space, dv)
    if not dens.all():
        raise ZeroDivisionError("sample coincides with the base point")
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
    same seed, levels, rows and dimension shares one block and normalizes it
    in its own norm."""
    draws = np.empty((levels, dirs_per_level, dim))
    for level in range(levels):
        draws[level] = np.random.default_rng([seed, level]).standard_normal((dirs_per_level, dim))
    draws.flags.writeable = False
    return draws


def sample_base(mapd: MapDescriptor, base: GraphPoint, schedule: SamplingSchedule) -> SamplePass:
    """The sampled rows of every estimate at this base and schedule: per
    level, the seeded unit directions plus the normalized extra rays, scaled
    to the level radius around x, with the map's values and the quotient
    denominators there."""
    space = mapd.space
    dim = space.size
    x, y = base.x.values, base.y.values
    extra = np.empty((0, dim))
    if schedule.extra_rays:
        extra = np.stack([ray.values for ray in schedule.extra_rays])
        extra_norms = norm_rows(space, extra)
        extra = extra / np.where(extra_norms == 0.0, 1.0, extra_norms)[:, None]
    levels, dirs = schedule.levels, schedule.dirs_per_level
    draws = _normal_draws(schedule.seed, levels, dirs, dim)
    radii = np.empty(levels)
    us = np.empty((levels, dirs + len(extra), dim))
    vs = np.empty_like(us)
    dens = np.empty(us.shape[:2])
    for level in range(levels):
        radii[level] = schedule.r0 * 2.0 ** (-level)
        # u = x + r * d, built in place
        dir_norms = norm_rows(space, draws[level])
        np.divide(draws[level], np.where(dir_norms == 0.0, 1.0, dir_norms)[:, None], out=us[level, :dirs])
        us[level, dirs:] = extra
        us[level] *= radii[level]
        us[level] += x
        vs[level] = mapd.value_batch(us[level])
        dens[level] = norm_rows(space, us[level] - x[None, :]) + norm_rows(space, vs[level] - y[None, :])
    for array in (radii, us, vs, dens):
        array.flags.writeable = False
    return SamplePass(mapd, base, schedule, radii, us, vs, dens)


# Largest stacked block of sample entries (levels x rows x size) whose
# quotients `estimate_limsup` evaluates in one call; a larger block would
# raise the peak memory of the wide and fine-grid passes.
QUOTIENT_BLOCK = 2**14


def estimate_limsup(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    schedule: SamplingSchedule,
    *,
    samples: SamplePass | None = None,
) -> LimsupEstimate:
    """Per-level suprema of the quotient over sampled directions, with the
    max of the two finest levels as the extrapolated limsup value.
    Deterministic for a fixed seed, bit for bit on the trace, and the same
    whether `samples` is shared or drawn for this call. A pass drawn for
    another map, base or schedule is a ValueError."""
    if samples is None:
        samples = sample_base(mapd, base, schedule)
    elif samples.map is not mapd or samples.base is not base or samples.schedule != schedule:
        raise ValueError("the sample pass was drawn for another map, base or schedule")
    quotients = np.empty(samples.dens.shape)
    step = max(1, QUOTIENT_BLOCK // samples.us[0].size)
    for lo in range(0, schedule.levels, step):
        block = slice(lo, lo + step)
        quotients[block] = _row_quotients(
            base, samples.us[block], samples.vs[block], xstar, ystar, samples.dens[block]
        )
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


# Directed rays start at t = RAY_T0 (or the first halving of it that stays
# in the base branch) and take RAY_STEPS steps shrinking by RAY_RATIO.
RAY_T0 = 1e-2
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
    t_start = _ray_start(mapd, base, direction)
    if split_l1_denominator and mapd.kind != L1_BALL_PROJ:
        raise ValueError("the split denominator applies to the l_1 ball projection")
    limits = _ray_limits(
        mapd, base, xstar, ystar, np.array([t_start]), direction.values[None, :], split_l1_denominator
    )
    return float(limits[0])


def _ray_start(mapd: MapDescriptor, base: GraphPoint, direction: PrimalVector) -> float:
    """The first halving of RAY_T0 at which the ray is still in the base
    branch; a ValueError if it leaves the branch at every tested scale."""
    t_start = RAY_T0
    for _ in range(60):
        probe = base.x + t_start * direction
        if mapd.same_branch(base.x, probe):
            return t_start
        t_start *= 0.5
    raise ValueError("ray leaves the base branch at every tested scale")


def _ray_limits(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    t_starts: np.ndarray,
    directions: np.ndarray,
    split_l1_denominator: bool = False,
) -> np.ndarray:
    """`directed_ray_limit` of each (t_starts[i], directions[i]) ray, all
    rays in one stacked pass: rows indexed [ray, step], one `value_batch`
    over every row, and numerators as one stacked product, which rounds like
    the per-ray product (a flattened one would not)."""
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
    qs = _row_quotients(base, us, vs, xstar, ystar, dens)
    # Richardson step for q(t) = L + c t + O(t^2) on a geometric sequence
    return (qs[:, -1] - RAY_RATIO * qs[:, -2]) / (1.0 - RAY_RATIO)


def _default_rays(
    mapd: MapDescriptor, base: GraphPoint, xstar: DualVector, ystar: DualVector
) -> list[PrimalVector]:
    rays: list[PrimalVector] = []
    diff = xstar - ystar
    if dual_norm(diff) > 1e-12 * (1.0 + dual_norm(ystar)):
        rays.append(norming_direction(diff))
    rays.extend(mapd.kink_rays)
    return rays


def membership_test(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    schedule: SamplingSchedule,
    extra_ray_dirs: tuple[PrimalVector, ...] = (),
    *,
    samples: SamplePass | None = None,
) -> LimsupEstimate:
    """Three-way membership verdict for x* in the derivative operator value
    at y*.

    Wraps `estimate_limsup` and additionally extrapolates directed rays
    (norming-direction rays plus kink-aligned basis rays and any caller
    supplied ones) in one stacked pass; zero rays and rays that leave the
    base branch at every scale are skipped. Rays can only certify fresh
    non-membership, never flip a true member, since every ray limit
    lower-bounds the limsup. `samples` is the shared sample pass of the base,
    as in `estimate_limsup`.
    """
    est = estimate_limsup(mapd, base, xstar, ystar, schedule, samples=samples)
    t_starts: list[float] = []
    directions: list[np.ndarray] = []
    for ray in [*_default_rays(mapd, base, xstar, ystar), *extra_ray_dirs]:
        if norm(ray) == 0.0:
            continue
        try:
            t_starts.append(_ray_start(mapd, base, ray))
        except ValueError:
            continue
        directions.append(ray.values)
    combined = est.extrapolated
    if directions:
        limits = _ray_limits(mapd, base, xstar, ystar, np.array(t_starts), np.stack(directions))
        # Python's left-to-right max: a NaN limit never replaces the estimate
        combined = max([combined, *limits.tolist()])
    return replace(
        est,
        extrapolated=float(combined),
        verdict=_verdict(combined, est.tol_accept, est.tol_reject),
    )


def trace_to_csv(estimate: LimsupEstimate) -> str:
    """Quotient trace as CSV rows (level, radius, direction index, quotient)."""
    out = io.StringIO()
    out.write("level,radius,direction_index,quotient\n")
    trace = estimate.trace
    for level, (radius, quotients) in enumerate(zip(trace.radii.tolist(), trace.quotients.tolist())):
        for index, q in enumerate(quotients):
            out.write(f"{level},{radius!r},{index},{q!r}\n")
    return out.getvalue()
