"""The row forms of the closed-form side of an oracle run against the
one-vector formulas of the reference oracle, bit for bit.

`dual_norm_rows` and `norming_rows` take an (m, size) array of candidates at
once, and `MapDescriptor.expected_image` and `registry_rays` a (bases, m,
size) stack of them, here a stack of one base. Each must give every row the
bits that the one-vector formulas of `reference_oracle.py` give it alone:
one scalar power ||w||^(q-2) per row, and <w, x> as the `np.dot` of one
pairing. The magnitudes 0, 1e-310, 1e-200, 1 and 1e200 reach the rescaled duality
formula and the rescaled norms.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_oracle as ref
from projderiv.coderivatives import (
    affine_map,
    ball_projection_map,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
)
from projderiv.fixed_points import registry_rays
from projderiv.limsup_oracle import GraphPoint
from projderiv.spaces import (
    c01_space,
    dual_norm_rows,
    l1_space,
    lp_space,
    norming_rows,
    primal,
)

MAGNITUDES = (0.0, 1e-310, 1e-200, 1.0, 1e200)
COUNTS = (1, 7, 21)
SPACES = [lp_space(p, 5) for p in (1.5, 2.0, 3.0, 6.0)] + [l1_space(5), c01_space(33)]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _duals(space, m, rng):
    """m dual rows, row i at magnitude MAGNITUDES[i % 5] (a zero row first).
    C01 rows keep about half their nodes as atoms, so a row's zeros sit
    among its atoms."""
    rows = rng.normal(size=(m, space.size))
    if space.kind == "C01":
        rows *= rng.random((m, space.size)) < 0.5
    return rows * np.array([MAGNITUDES[i % len(MAGNITUDES)] for i in range(m)])[:, None]


def _assert_rows_equal(got, want, label):
    assert got.shape == want.shape, label
    assert np.array_equal(got, want), label


def _instances(space):
    """(name, map, base point) of every kind with a row image in `space`, and
    those without (the cone, the polynomial class)."""
    x = np.linspace(1.0, -0.5, space.size)
    if space.kind == "C01":
        return [("polynomial", poly_projection_map(space, 1), x**3)]
    instances, nx = [], ref.norm(space, x)
    if space.kind == "Lp":
        ballm = ball_projection_map(space, 1.0)
        for name, radius in (("interior", 0.5), ("exterior", 3.0), ("far", 1e50)):
            instances.append((f"ball {name}", ballm, x * (radius / nx)))
        instances.append(("affine", affine_map(space, primal(space, 0.3 * x), 2.5), 0.2 * x))
        instances.append(("cone", cone_projection_map(space), x))
    else:
        l1ball = l1_ball_projection_map(space, 1.0)
        for name, radius in (("interior", 0.5), ("exterior", 3.0)):
            instances.append((f"l1 ball {name}", l1ball, np.abs(x) * (radius / nx)))
    return instances


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", COUNTS)
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind} p={s.p}")
def test_dual_norms_and_norming_rows_are_the_vector_formulas(space, m):
    rng = np.random.default_rng(m)
    rows = _duals(space, m, rng)
    norms = dual_norm_rows(space, rows)
    _assert_rows_equal(norms, np.array([ref.dual_norm(space, w) for w in rows]), "dual norms")
    directions = norming_rows(space, rows, norms)
    _assert_rows_equal(directions, np.stack([ref.norming(space, w) for w in rows]), "norming rows")


@pytest.mark.parametrize("m", COUNTS)
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind} p={s.p}")
def test_expected_images_and_registry_rays_are_the_vector_formulas(space, m):
    rng = np.random.default_rng(100 + m)
    for name, mapd, x in _instances(space):
        base = GraphPoint.at_point(mapd, primal(space, x))
        ys = _duals(space, m, rng)
        images = mapd.expected_image([base], ys[None])
        images = images if images is None else images[0]
        want = [ref.expected_image(mapd, x, y) for y in ys]
        if want[0] is None:
            assert images is None, name
        else:
            _assert_rows_equal(images, np.stack(want), name)
        # perturbed images, fresh duals at every magnitude, the images
        # themselves (no ray) and the fixed-point case x* = y*
        xs = _duals(space, m, rng)
        if images is not None:
            xs[::3] = images[::3]
            xs[1::3] += images[1::3]
        for xrows, label in ((xs, "x* against y*"), (ys, "x* = y*")):
            rays = registry_rays(mapd, [base], xrows[None], ys[None])[0]
            reference = np.stack([ref.registry_ray(mapd, x, xw, y) for xw, y in zip(xrows, ys)])
            _assert_rows_equal(rays, reference, f"{name}: {label}")
