"""Exception types shared across the package."""


class KCat0Error(Exception):
    """Base class for all library errors."""


class DimensionMismatch(KCat0Error):
    """A point or vector does not match the dimension of the domain."""


class OutsideDomain(KCat0Error):
    """A query point is required to be strictly inside the domain."""


class InvalidDomain(KCat0Error):
    """Domain construction parameters are inconsistent."""


class PseudoDistanceOnly(KCat0Error):
    """The domain is not C-proper: only a pseudo-distance is defined."""


class MidpointNotCertified(KCat0Error):
    """A midpoint's residual (exact) or CN radius (numeric) exceeds the tolerance."""


class OrderNotResolved(KCat0Error):
    """Numeric vanishing-order estimate is not close to an integer."""


class GridBoundary(KCat0Error):
    """An argmax landed on the edge of its search grid."""


class EmptyWindow(KCat0Error):
    """A windowed computation found no points of the set in the window."""


class DegenerateInput(KCat0Error):
    """Coincident or otherwise degenerate points where distinct ones are needed."""


class PowerUnderflow(KCat0Error):
    """A power |w|^n underflows to 0 where a ratio divides by it."""
