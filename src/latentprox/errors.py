"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Input dimensions are inconsistent with the object they are applied to."""


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class ConfigError(ValueError):
    """A configuration document or component combination is invalid."""


class UnsupportedKindError(ConfigError):
    """The requested operation is not defined for this constraint kind."""


class NumericError(ArithmeticError):
    """A numeric computation produced or received a non-finite value."""


class DivergenceError(NumericError):
    """An iterative process produced non-finite iterates.

    ``step`` holds the epoch or step index at which divergence was detected.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConvergenceError(NumericError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DegeneracyError(ValueError):
    """A matrix or sample set is too degenerate for the requested operation."""


class SimulatorError(RuntimeError):
    """An external simulator returned an unusable response.

    ``perturbation_index`` identifies the failing perturbation, if any.
    """

    def __init__(self, message, perturbation_index=None):
        super().__init__(message)
        self.perturbation_index = perturbation_index

