"""Exception hierarchy.

Every error raised by this package derives from :class:`VarietyError`.
Input-contract violations additionally derive from :class:`ValueError`
so callers who only know stdlib conventions still catch them.
"""


class VarietyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(VarietyError, ValueError):
    """Inputs violate a documented contract."""


# --- distribution construction -------------------------------------------

class NegativeMass(InputError):
    """A probability table entry is negative."""


class NotNormalized(InputError):
    """A probability table does not sum to 1 within tolerance."""


class BadShape(InputError):
    """Table dimensions disagree with the declared shape."""


class ShapeMismatch(InputError):
    """Distributions being combined have different shapes."""


class BadWeights(InputError):
    """Mixture weights are negative or do not sum to 1."""


# --- divergence evaluation ------------------------------------------------

class LengthMismatch(InputError):
    """The two probability vectors have different lengths."""


class NotAProbability(InputError):
    """A vector has negative entries or does not sum to 1."""


class NotBinary(InputError):
    """An operation defined only for two choices got a different count."""


class InvalidGenerator(InputError):
    """A divergence generator failed the f(1)=0 or convexity check."""


# --- numerics -------------------------------------------------------------

class DomainError(InputError):
    """An argument lies outside a function's domain."""


class QuadratureFailure(VarietyError):
    """Adaptive integration could not reach the requested tolerance."""

    row = 0  # the failing integrand row of a many-row quadrature


# --- estimation and experiments -------------------------------------------

class EmptySampleSet(InputError):
    """A metric was requested on a sample set with no observations."""


class ConfigError(InputError):
    """A sweep configuration field is invalid."""


class IoError(VarietyError):
    """A file could not be read or written."""


# --- survey ingestion -----------------------------------------------------

class ParseError(InputError):
    """A survey file is malformed; the message carries the line number."""


class ValidationError(InputError):
    """Survey data violates an invariant; the message names it."""


class UnknownQuestion(InputError):
    """A question id does not exist in the dataset."""


class EmptyGroup(InputError):
    """A respondent filter matched nobody."""
