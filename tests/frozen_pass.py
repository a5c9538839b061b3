"""The oracle's sample pass as it was when a pass held every sampled row: a
whole (bases, levels, rows, size) array of points u and of values v, and
the denominators, built level block by level block, then read again by the
quotient walk. The frozen references that the walk of
`limsup_oracle._block_quotients`, which evaluates each block as it goes and
holds no pass whole, must reproduce exactly; `walked_rows` records the rows
that walk evaluates, to compare with them."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from projderiv import limsup_oracle
from projderiv.coderivatives import MapDescriptor
from projderiv.spaces import QUOTIENT_BLOCK, norm_rows, pairing_stack


class FrozenPass(NamedTuple):
    """The rows of a stack of bases, indexed [base, level, row]."""

    x: np.ndarray
    y: np.ndarray
    radii: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    dens: np.ndarray


def level_blocks(shape, candidates):
    """Runs of consecutive levels of a (bases, levels, rows, size) stack, or
    of a (levels, rows, size) block of draws, within QUOTIENT_BLOCK entries
    and quotients; one level where a level alone is larger."""
    *stack, levels, rows, size = shape
    step = max(1, QUOTIENT_BLOCK // (math.prod(stack) * rows * max(size, candidates)))
    return [slice(lo, lo + step) for lo in range(0, levels, step)]


def sample_base(mapd, bases, schedule):
    """The whole pass at the graph points `bases`: the seeded unit
    directions of each level (one standard normal stream per level, divided
    by its rows' norms, a zero norm read as 1) and the normalized extra
    rays, scaled to the level radius around each base's x, built in place;
    the values and the denominators one `value_batch` per block of levels."""
    space, dim = mapd.space, mapd.space.size
    extra = np.empty((0, dim))
    if schedule.extra_rays:
        extra = np.stack([ray.values for ray in schedule.extra_rays])
        extra_norms = norm_rows(space, extra)
        extra = extra / np.where(extra_norms == 0.0, 1.0, extra_norms)[:, None]
    levels, dirs = schedule.levels, schedule.dirs_per_level
    draws = np.stack([np.random.default_rng([schedule.seed, level]).standard_normal((dirs, dim))
                      for level in range(levels)])
    dir_norms = np.empty(draws.shape[:2])
    for block in level_blocks(draws.shape, 1):
        dir_norms[block] = norm_rows(space, draws[block])
    dir_norms[dir_norms == 0.0] = 1.0
    radii = np.array([schedule.r0 * 2.0 ** (-level) for level in range(levels)])
    x = np.stack([base.x.values for base in bases])
    y = np.stack([base.y.values for base in bases])
    us = np.empty((len(bases), levels, dirs + len(extra), dim))
    np.divide(draws, dir_norms[:, :, None], out=us[:, :, :dirs])
    us[:, :, dirs:] = extra
    us *= radii[:, None, None]
    us += x[:, None, None, :]
    vs = np.empty_like(us)
    dens = np.empty(us.shape[:3])
    for block in level_blocks(us.shape, 1):
        rows = us[:, block]
        vs[:, block] = mapd.value_batch(rows.reshape(-1, dim)).reshape(rows.shape)
        dens[:, block] = norm_rows(space, rows - x[:, None, None]) + norm_rows(space, vs[:, block] - y[:, None, None])
    return FrozenPass(x, y, radii, us, vs, dens)


def block_quotients(space, samples, xstars, ystars):
    """The quotients of m candidates at each base, the rows of the
    (bases, m, size) arrays `xstars` and `ystars`, over the whole pass, one
    block of levels at a time: shape (bases, m, levels in the block, rows);
    each block's increments taken again from the held rows."""
    x, y = samples.x[:, None, None], samples.y[:, None, None]
    for block in level_blocks(samples.us.shape, xstars.shape[1]):
        du, dv = samples.us[:, block] - x, samples.vs[:, block] - y
        nums = pairing_stack(space, xstars, du[:, None]) - pairing_stack(space, ystars, dv[:, None])
        yield nums / samples.dens[:, block][:, None]


def quotients(space, samples, xstars, ystars):
    """`block_quotients` joined over the levels: (bases, m, levels, rows)."""
    return np.concatenate(list(block_quotients(space, samples, xstars, ystars)), axis=2)


def walked_rows(samples):
    """The (us, vs, dens) of a live `limsup_oracle.SamplePass`, indexed
    [base, level, row], as one walk over it (`_block_quotients`, one zero
    candidate per base) evaluates them: the rows and values of its
    `value_batch` calls, and the sum of the norms of each pair of
    increments it builds, du and then dv; joined over the levels."""
    bases, levels, rows, size = samples._shape
    evaluated, norms = [], []
    value_batch, live_norm_rows = MapDescriptor.value_batch, limsup_oracle.norm_rows

    def kept_values(self, batch):
        values = value_batch(self, batch)
        evaluated.append((batch.reshape(bases, -1, rows, size), values.reshape(bases, -1, rows, size)))
        return values

    def kept_norms(space, increments):
        result = live_norm_rows(space, increments)
        if increments.ndim == 4:  # a block of increments, not of direction draws
            norms.append(result)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MapDescriptor, "value_batch", kept_values)
        patch.setattr(limsup_oracle, "norm_rows", kept_norms)
        zeros = np.zeros((bases, 1, size))
        for _ in limsup_oracle._block_quotients(samples, zeros, zeros):
            pass
    us, vs = (np.concatenate(arrays, axis=1) for arrays in zip(*evaluated))
    dens = np.concatenate([du + dv for du, dv in zip(norms[::2], norms[1::2])], axis=1)
    return us, vs, dens
