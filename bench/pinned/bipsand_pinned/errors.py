"""Exception types shared across the package."""


class GuardError(Exception):
    """A size guard was exceeded; the requested computation would be too large."""


class TopplingStallError(RuntimeError):
    """Stochastic stabilization hit the firing cap without reaching a stable state."""
