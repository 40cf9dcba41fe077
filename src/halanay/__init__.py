"""Mittag-Leffler decay certificates for fractional-order delay systems.

The package certifies decay of Caputo-derivative linear systems with
bounded time-varying delays along three routes (column sums of an
order-preserving system, a pointwise matrix inequality, or a scalar
comparison inequality given directly), each reduced to one sampled
scalar inequality. It also evaluates the two-parameter Mittag-Leffler
function on the real line, integrates the systems directly for
validation, and wraps it all in a CLI.
"""

__version__ = "0.1.0"
