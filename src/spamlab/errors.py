"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: corpus/data problems exit 2,
configuration and compatibility problems exit 3, anything else 1.
"""

from __future__ import annotations


class SpamlabError(Exception):
    """Base class for all errors raised by this package."""


class CorpusError(SpamlabError):
    """A corpus directory or message file cannot be used as input."""


class DataError(SpamlabError):
    """Loaded data cannot support the requested computation
    (degenerate training set, too few documents for folds, ...)."""


class ConfigError(SpamlabError, ValueError):
    """Invalid or incompatible run configuration.

    Also a ValueError, so the parameter validators that raise it keep the
    contract of rejecting a bad value.
    """
