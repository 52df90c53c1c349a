"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its budget without meeting its target."""


class NonFiniteError(ValueError):
    """An array that must be finite holds NaN or Inf."""
