"""The one reader of integer arguments; it imports only ``operator``."""

from operator import index


def read_int(x, name: str, low: int = 1, high: int | None = None) -> int:
    """``x`` read by ``operator.index``, so a float, ``Fraction`` or str raises
    ``TypeError`` even when integral; ``ValueError`` below ``low`` (1 or 0) or above ``high``."""
    x = index(x)
    if x < low:
        raise ValueError(f"{name} must be a positive integer" if low else f"{name} must be nonnegative")
    if high is not None and x > high:
        raise ValueError(f"{name} must be at most {high}")
    return x
