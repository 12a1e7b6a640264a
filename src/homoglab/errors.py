"""Exception hierarchy shared across the package, and the one rule for a
positive scalar.

The CLI maps these onto exit codes: configuration problems exit 2, solver
failures exit 3, violated mathematical invariants exit 4. Every positive
scalar a public function takes (a scale eps, a window t, a discount lam, a
radius) is refused by `check_positive` when it is not positive and finite,
naming the parameter and its value.
"""

import math


class HomoglabError(Exception):
    """Base class for all package errors."""


class InputError(HomoglabError, ValueError):
    """Malformed direct inputs to an operation (bad shapes, out-of-range args)."""


class ConfigError(HomoglabError):
    """Malformed experiment configuration (unknown registry name, bad field)."""


class SolverError(HomoglabError):
    """A numerical routine failed to produce a usable result."""


class InvariantError(HomoglabError):
    """A mathematical invariant that the code promises to certify was violated."""


class ExtrapolationError(InputError):
    """A tabulated function was queried outside its grid hull."""

    def __init__(self, point, hull):
        self.point = point
        self.hull = hull
        super().__init__(f"query {point} lies outside the tabulated hull {hull}")


class ErgodicWindowError(SolverError):
    """No admissible ergodic shift was found in the scanned window."""

    def __init__(self, window_start, window_length, eta):
        self.window_start = window_start
        self.window_length = window_length
        self.eta = eta
        super().__init__(
            "no shift tau with dist(tau*xi, Z^d) < "
            f"{eta} in window [{window_start}, {window_start + window_length}]"
        )


def check_positive(name, value):
    """Raise InputError, naming the parameter and its value, unless the value
    is positive and finite."""
    if not 0.0 < float(value) < math.inf:
        raise InputError(f"{name} must be positive and finite, got {name}={float(value)!r}")
