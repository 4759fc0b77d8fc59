"""Exception hierarchy shared across the library.

``ValidationError`` covers malformed user input (bad graphs, configs, data
files); ``BudgetError`` covers runs aborted for exceeding a compute budget.
The CLI maps these onto exit codes 2 and 3 respectively.
"""


class IrtError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(IrtError):
    """Invalid user input or violated data invariant."""


class BudgetError(IrtError):
    """A configured compute budget was exceeded."""


# network construction
class IndexOutOfRangeError(ValidationError):
    pass


class SelfLoopError(ValidationError):
    pass


class NegativeRadiusError(ValidationError):
    pass


class LengthMismatchError(ValidationError):
    pass


class NonBinaryAssignmentError(ValidationError):
    pass


class UnknownTreatmentError(ValidationError):
    pass


# designs
class TooFewClustersError(ValidationError):
    pass


class EmptyClusterError(ValidationError):
    pass


class InvalidDesignError(ValidationError, ValueError):
    """Invalid design specification: unknown kind, a probability outside
    [0, 1], a treated count outside [0, n]."""


class SupportTooLargeError(BudgetError):
    pass


# test statistics
class SameLabelsError(ValidationError):
    pass


class UnknownLabelError(ValidationError):
    pass


# imputation
class EmptyObservedError(ValidationError):
    pass


class InvalidHyperparameterError(ValidationError):
    pass


class DiscreteKindError(IrtError):
    """Density requested from a discrete imputer (use the pmf)."""


class ContinuousKindError(IrtError):
    """Pmf requested from a continuous imputer (use the density)."""


class OutOfSupportError(ValidationError):
    pass


class DegenerateSampleWarning(UserWarning):
    """Observed values were constant; kernel imputer fell back to resampling."""


# p-value computation
class UndefinedObservedStatisticError(IrtError):
    """The test statistic is undefined at the observed assignment."""


class ResampleBudgetExceededError(BudgetError):
    pass


# verification
class TrueDensityZeroError(ValidationError):
    pass


# CLI / IO
class ParseError(ValidationError):
    pass
