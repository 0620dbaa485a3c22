"""Exception types shared across the package."""


class OctCascadeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(OctCascadeError, ValueError):
    """A value violates a structural invariant (range, shape, ordering)."""


class ShapeMismatchError(ValidationError):
    """Two arrays that must share a shape do not."""


class CorruptFileError(OctCascadeError, RuntimeError):
    """An on-disk container is inconsistent (bad header, truncated payload)."""


class ConfigError(OctCascadeError, ValueError):
    """A configuration cannot be satisfied."""


class InfeasibleBandError(OctCascadeError, RuntimeError):
    """No path through the search band exists under the jump constraint.

    `slice` names the B-scan when the DP ran over a stack of them.
    """

    def __init__(self, column: int, slice: int | None = None):
        self.column = column
        self.slice = slice
        where = f"column {column}" if slice is None else f"column {column} of slice {slice}"
        super().__init__(f"no feasible boundary path at {where}")


class UndefinedAucError(OctCascadeError, ValueError):
    """ROC area is undefined because the ground truth has a single class."""
