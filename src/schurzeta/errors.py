"""Exceptions shared across the package."""


class DomainError(ValueError):
    """A weight label lies outside the domain of a coefficient map, or a
    quasi-symmetric value's exponents could pass 2^64 - 1.

    Distinct from plain ValueError so callers (notably the CLI) can tell
    "you asked for a value that does not exist in this ring" apart from
    malformed input.
    """


class NonInvertibleError(ZeroDivisionError):
    """Inversion was requested for a series whose constant term is zero."""
