"""The coefficient-bound experiment's draw loop as it was before each degree's
polynomials were evaluated as one batch: one `Polynomial` per draw, its peak
and its derivative's peak taken one at a time, with the final division of
each scaled draw by max(1, its grid peak). The frozen reference that
`experiments._unit_polynomials` and `experiments._bound_violations` must
reproduce exactly."""

import numpy as np

from projderiv.chebyshev import Polynomial


def coefficient_bounds_loop(rng, n, grid, count, coef_bound, deriv_bound):
    """The scaled coefficients and the peak of each kept draw, and the
    counts of draws over the coefficient bound and over the derivative
    bound. A draw whose peak on the grid is 0 is skipped before its uniform
    factors are drawn, and a scaled draw whose grid peak is above 1 is
    divided by it."""
    scaled, peaks = [], []
    coef_viol = deriv_viol = 0
    for _ in range(count):
        coeffs = rng.normal(size=n + 1)
        poly = Polynomial(tuple(coeffs))
        peak = float(np.max(np.abs(poly(grid))))
        if peak == 0.0:
            continue
        poly = Polynomial(tuple(c * rng.uniform(0.2, 1.0) / peak for c in coeffs))
        scaled_peak = float(np.max(np.abs(poly(grid))))
        poly = Polynomial(tuple(c / max(1.0, scaled_peak) for c in poly.coefficients))
        scaled.append(poly.coefficients)
        peaks.append(peak)
        coef_viol += any(abs(c) > coef_bound for c in poly.coefficients)
        deriv_viol += float(np.max(np.abs(poly.derivative()(grid)))) > deriv_bound
    return scaled, peaks, coef_viol, deriv_viol
