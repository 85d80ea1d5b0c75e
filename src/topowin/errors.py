"""Exception types shared across the package.

The CLI maps these onto its exit-code taxonomy: invalid configuration
(``ValueError``) exits 1, ``DataError`` exits 2, ``NumericalError`` exits 3,
and a file-system ``OSError`` (an output path that is an existing file, for
example) exits 4.
"""


class DataError(Exception):
    """Input data is missing, malformed, or inconsistent with the config."""


class NumericalError(Exception):
    """A computation cannot proceed for numeric reasons (degenerate data,
    invalid numeric parameter)."""
