"""Exception types shared across the package.

The CLI maps these onto exit codes: config/input problems exit 2,
stale artifacts exit 3, anything else exits 1.
"""


class PolyscoreError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PolyscoreError):
    """Tensor dimensions do not admit the requested operation."""


class NumericError(PolyscoreError):
    """Non-finite values where finite ones are required (NaN inputs, NaN grads)."""


class ContractError(PolyscoreError):
    """A documented precondition was violated by the caller."""


class ParseError(PolyscoreError):
    """Malformed dataset / vocabulary / config input; message carries the location."""


class ConfigError(PolyscoreError):
    """Invalid or inconsistent run configuration."""


class StaleCacheError(PolyscoreError):
    """Candidate cache was built from another checkpoint, vocabulary or encode
    caps than the scoring model's."""


class OldFormatError(StaleCacheError, ParseError):
    """A file in a format version older than the one this program reads."""
