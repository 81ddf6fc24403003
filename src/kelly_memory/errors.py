"""Exception hierarchy shared across the package."""


class KellyMemoryError(Exception):
    """Base class for all package errors."""


class InputError(KellyMemoryError):
    """Invalid parameters, dimensions, or data supplied by the caller."""


class NumericalError(KellyMemoryError):
    """A numerical procedure failed (singular system, non-convergence)."""


class HyperdiamondViolation(InputError):
    """Coefficients fall outside the hyperdiamond validity region.

    ``excess`` is the amount by which |w0 - 1/2| + sum |wi| exceeds the
    allowed radius.
    """

    def __init__(self, excess: float):
        self.excess = float(excess)
        super().__init__(
            f"coefficients outside hyperdiamond by {self.excess:.6g}"
        )


class DimensionMismatch(InputError):
    pass


class UnsupportedDepth(InputError):
    pass


class HorizonTooLarge(InputError):
    pass


class DomainError(InputError):
    pass


class InsufficientData(InputError):
    pass


class EmptyResult(InputError):
    pass


class SingularDesign(NumericalError):
    pass


class NonConvergence(NumericalError):
    """An iteration hit its limit before converging."""
