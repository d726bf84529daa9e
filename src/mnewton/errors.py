"""Exception types shared across the package."""


class InputError(ValueError):
    """User-supplied data violates a documented precondition."""
