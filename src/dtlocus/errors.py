"""Exception types shared across the package."""


class DtLocusError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DtLocusError):
    """Malformed or inconsistent user input (plant data, flags, files)."""


class SingularPointError(DtLocusError):
    """Evaluation requested at, or too close to, a pole or zero."""


class PoleOrZeroOnBoundary(DtLocusError):
    """A pole or zero of the plant lies on the line Re(s) = sigma0."""


class BiProperGainCapViolated(DtLocusError):
    """Bi-proper plant whose gain cap admits roots arbitrarily far up the
    boundary line; the cap must satisfy k_max < e^(h*sigma0)/|alpha|."""


class DegenerateCrossing(DtLocusError):
    """Boundary crossing where |phi'(omega)| is below tolerance, so the
    crossing direction is undefined."""


class BranchOnBoundary(DtLocusError):
    """An active branch point lies on the boundary line; crossing directions
    are ill-posed there."""

