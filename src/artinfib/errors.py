"""Exception types shared across the package.

Mathematical failures that are legitimate *outcomes* (a complex failing the
well filtered test, a window computation that has not stabilized yet) are
returned as values wherever the API promises a report; the exceptions below
are for contract violations and for callers that asked for something the
requested coefficient ring cannot deliver.
"""


class ArtinfibError(Exception):
    """Base class for all package errors."""


class DivisionByZero(ArtinfibError):
    """Division by the zero polynomial or a zero ring element."""


class NotDivisible(ArtinfibError):
    """Exact division requested but the divisor does not divide."""


class NotUnit(ArtinfibError):
    """Inversion of a non-invertible ring element."""


class UnsupportedDomain(ArtinfibError):
    """Operation needs a field (or rationals) and got something else."""


class ParseError(ArtinfibError):
    """Malformed polynomial text."""


class SeedTooShort(ArtinfibError):
    """Recurrence seed window shorter than the recurrence span."""


class NonInvertibleExtremes(ArtinfibError):
    """Polynomial whose extreme coefficients are not units where required."""


class WindowTooSmall(ArtinfibError):
    """Truncation radius leaves no stable interior to work with."""


class NotStabilized(ArtinfibError):
    """Window dimensions kept changing up to the configured retry limit.

    ``history`` holds the (radius, dim) pairs seen, in the order tried;
    ``radius`` is the last radius tried.
    """

    def __init__(self, message, radius=None, history=()):
        super().__init__(message)
        self.radius = radius
        self.history = tuple(history)


class InvalidRank(ArtinfibError):
    """Finite type label with a rank outside the allowed range."""


class NotFiniteType(ArtinfibError):
    """Coxeter diagram (or component) is not of finite type."""


class GroupTooLarge(ArtinfibError):
    """Brute force enumeration exceeded the configured element bound."""


class InfiniteGroup(ArtinfibError):
    """Brute force enumeration detected (or implies) an infinite group."""


class MissingEntry(ArtinfibError):
    """Polynomial family queried or validated with an absent pair."""


class CocycleViolation(ArtinfibError):
    """Family fails the defining quadratic relation.

    Carries the offending triple so loaders can point at input lines.
    """

    def __init__(self, message, delta=None, w=None, w2=None, lines=None):
        super().__init__(message)
        self.delta = delta
        self.w = w
        self.w2 = w2
        self.lines = lines


class NotSubsetIndexed(ArtinfibError):
    """Complex lacks the subset-indexed basis an operation relies on."""


class IndexOutOfRange(ArtinfibError):
    """Filtration or degree index outside the valid range."""


class RankMismatch(ArtinfibError):
    """Sizes that do not fit (matrix shapes, one polynomial per generator,
    a rank-zero complex), or a matrix complex with d^2 != 0."""


class NotWellFiltered(ArtinfibError):
    """Operation requires a well filtered complex; the check failed.

    The failing trace (see ``is_well_filtered``) is attached.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class FamilyFormatError(ArtinfibError):
    """Malformed family file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
