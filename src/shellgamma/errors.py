"""Exception hierarchy shared by all shellgamma modules."""


class ShellGammaError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ShellGammaError):
    """A constructor or operation received geometrically/physically invalid parameters."""


class DomainError(ShellGammaError):
    """A chart point lies outside (or too close to the boundary of) the parameter rectangle."""


class ThicknessError(ShellGammaError):
    """The normal offset leaves the thin-shell regime: a principal factor of Id + t*Pi <= 0."""


class EvaluationError(ShellGammaError):
    """A field produced a non-finite value at a quadrature node."""


class DifferentiationError(ShellGammaError):
    """Finite-difference assembly of a derivative failed a consistency check."""


class DegenerateMaterialError(ShellGammaError):
    """The normal-coupling block of Q3 is singular; the Q2 reduction has no unique minimizer."""


class NotAnIsometryError(ShellGammaError):
    """The displacement has nonvanishing first-order tangential strain.

    Carries the worst offending chart point and its residual.
    """

    def __init__(self, message, u=None, residual=None):
        super().__init__(message)
        self.u = u
        self.residual = residual


class EnergyBlowupError(ShellGammaError):
    """The deformation gradient strayed too far from rotations for the energy density.

    Carries the worst offending (u, t) node; on a schedule of h, the `index`
    of the first h that blew up and the `energy` of every h.
    """

    def __init__(self, message, u=None, t=None, index=None, energy=None):
        super().__init__(message)
        self.u = u
        self.t = t
        self.index, self.energy = index, energy


class UnsupportedCaseError(ShellGammaError):
    """Preconditions of a special-case analysis (e.g. the maximizer-set example) are violated."""


class ConfigError(ShellGammaError):
    """Study configuration failed schema validation; carries the offending key path."""

    def __init__(self, message, key_path=""):
        super().__init__(f"{key_path}: {message}" if key_path else message)
        self.key_path = key_path
