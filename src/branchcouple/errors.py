"""Exception types shared across the package."""


class BranchCoupleError(Exception):
    """Base class for package errors."""


class InvalidParams(BranchCoupleError):
    """Model parameters violate a standing positivity/sign assumption."""


class NotApplicable(BranchCoupleError):
    """Requested derived quantity does not exist for these parameters."""


class ConditionFails(BranchCoupleError):
    """The non-degeneracy condition cannot be verified for a component."""


class ZeroTailMass(BranchCoupleError):
    """A tail jump was requested above a threshold carrying no mass."""


class QuadratureFail(BranchCoupleError):
    """Adaptive quadrature could not reach the requested tolerance."""


class InvalidRegion(BranchCoupleError):
    """A certification region is empty or touches the boundary at 0."""


class InvalidCertificate(BranchCoupleError):
    """A drift certificate needed downstream is not valid."""


class OutOfGrid(BranchCoupleError):
    """A query time lies outside the estimated grid."""


class DegenerateFit(BranchCoupleError):
    """Too few usable points to fit a decay rate."""


class InsufficientPaths(BranchCoupleError):
    """Not enough uncensored paths to estimate the requested tail."""


class StepExplosion(BranchCoupleError, RuntimeError):
    """The adaptive step subdivision needed more substeps than allowed."""
