"""Exception and warning types shared across the package, and the one
check of the physical parameters (epsilon, b, t)."""

import math
from numbers import Real


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class ResolutionError(ValidationError):
    """Raised when a grid cannot resolve the oscillation scale of a computation."""


class ResolutionWarning(UserWarning):
    """Emitted when a computation proceeds on a grid that underresolves it."""


def require_real(name: str, v) -> None:
    """Refuse anything that is not a real number: a str, a complex, a bool."""
    if isinstance(v, bool) or not isinstance(v, Real):
        raise ValidationError(f"{name} must be a real number, got {v!r}")


def check_params(epsilon: float | None = None, b: float | None = None,
                 t: float | None = None, *, inflow: bool = False) -> None:
    """Refuse a viscosity that is not positive, a drift that is zero (or,
    with ``inflow``, not positive), or a time that is negative.  Omitted
    parameters are not checked; every value must be a finite real
    number (not a bool)."""
    for name, v in (("epsilon", epsilon), ("drift b", b), ("time t", t)):
        if v is not None:
            require_real(name, v)
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    if b is not None:
        if inflow and not (math.isfinite(b) and b > 0):
            raise ValidationError(f"inflow regime requires b > 0, got {b!r}")
        if not (math.isfinite(b) and b != 0):
            raise ValidationError(f"drift b must be finite and nonzero, got {b!r}")
    if t is not None and not (math.isfinite(t) and t >= 0):
        raise ValidationError(f"time t must be nonnegative, got {t!r}")
