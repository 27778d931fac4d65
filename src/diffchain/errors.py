"""Exception types shared across the package."""


class DiffChainError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(DiffChainError):
    """An element index is outside the carrier 0..n-1."""


class CycleError(DiffChainError):
    """A cover relation contains a directed cycle."""


class NotUpsetError(DiffChainError):
    """A set that must be upward closed is not."""


class NotDecreasingError(DiffChainError):
    """A chain that must decrease under inclusion does not."""


class CapacityError(DiffChainError):
    """A construction would exceed a configured size guard."""


class AlphabetMismatchError(DiffChainError):
    """Two automata or homomorphisms disagree on their alphabets."""
