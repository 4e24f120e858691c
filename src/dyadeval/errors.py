"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ``InputError`` -> 1,
``NumericalIntegrityError`` -> 2.
"""


class DyadevalError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DyadevalError):
    """Malformed or inconsistent user input (files, flags, tables)."""


class NumericalIntegrityError(DyadevalError):
    """A probability mass function failed its normalization check."""
