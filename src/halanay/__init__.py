"""Mittag-Leffler decay certificates for fractional-order delay systems.

The package certifies decay of Caputo-derivative linear systems with
bounded time-varying delays along two routes (column sums of an
order-preserving system, whose dimension-1 case is a scalar comparison
inequality given directly, or a pointwise matrix inequality), each
reduced to one sampled scalar inequality. It also evaluates the
two-parameter Mittag-Leffler function on the real line, integrates the
systems directly for validation, and wraps it all in a CLI.
"""

__version__ = "0.1.0"
