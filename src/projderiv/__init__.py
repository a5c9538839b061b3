"""Metric projections, their generalized adjoint derivatives, and the
fixed-point sets of the induced dual operators, with a sampling oracle that
verifies every closed form."""

__version__ = "0.1.0"
