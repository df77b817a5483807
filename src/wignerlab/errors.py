"""Shared exception types."""


class EnumerationCeilingError(ValueError):
    """Requested exhaustive enumeration exceeds its enumerator's fixed ceiling."""

    def __init__(self, what: str, requested: int, ceiling: int):
        self.what = what
        self.requested = requested
        self.ceiling = ceiling
        super().__init__(
            f"{what}: requested size {requested} exceeds enumeration ceiling {ceiling}"
        )


class BoundPreconditionError(ValueError):
    """A counting/weight bound was evaluated outside its stated hypotheses."""
