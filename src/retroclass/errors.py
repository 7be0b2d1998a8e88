"""Exception types shared across the package.

Every error raised by retroclass derives from :class:`RetroclassError` and
carries a process exit code used by the command line tool:

    0   success
    2   invalid input, argument, or configuration
    3   corrupt or truncated data file
    4   internal invariant violation
"""

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CORRUPT = 3
EXIT_INTERNAL = 4


class RetroclassError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_INTERNAL


class ValidationError(RetroclassError):
    """Caller-supplied input violates a documented precondition."""

    exit_code = EXIT_VALIDATION


class CorruptData(RetroclassError):
    """A stored artifact failed structural validation.

    ``byte_offset``, when given, points at the first byte that failed
    validation, so a truncated payload reports the offset where the data
    ends.
    """

    exit_code = EXIT_CORRUPT

    def __init__(self, message: str, byte_offset: int | None = None):
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)


class CorruptBank(CorruptData):
    """Bank file or its metadata sidecar failed a structural check."""


class CorruptIndex(CorruptData):
    """Index file failed a magic, version, or size check."""


class IoError(RetroclassError):
    """A path could not be read or written."""

    exit_code = EXIT_VALIDATION


class InternalInvariantError(RetroclassError):
    """A postcondition the library guarantees was violated. Always a bug."""

    exit_code = EXIT_INTERNAL


# ---------------------------------------------------------------------------
# validation family

class InvalidDimension(ValidationError):
    """Vector width is zero, negative, or otherwise unusable."""


class DimensionMismatch(ValidationError):
    """Two vectors or matrices that must share a width do not."""


class ZeroVector(ValidationError):
    """A vector with (near-)zero norm cannot be normalized."""


class IdOutOfRange(ValidationError):
    """A row id falls outside [0, count)."""


class SpaceMismatch(ValidationError):
    """Query and bank carry different embedding-space tags."""


class EmptyBank(ValidationError):
    """The operation needs at least one stored vector."""


class TooManyClusters(ValidationError):
    """Requested more clusters than there are vectors."""


class InvalidProbe(ValidationError):
    """nprobe outside [1, n_clusters]."""


class EmptyBaseline(ValidationError):
    """Recall is undefined against an empty exact result."""


class EmptyClassName(ValidationError):
    """Class names and aliases must be non-empty."""


class PromptBankMismatch(ValidationError):
    """Prompt count and embedding-bank row count disagree."""


class EmptyMerge(ValidationError):
    """Cannot merge zero prototype vectors."""


class DegenerateMerge(ValidationError):
    """Prototype vectors cancelled out; the mean has no direction."""


class DegeneratePrototype(ValidationError):
    """A prototype row has (near-)zero norm."""


class EmptyScores(ValidationError):
    """Weighting needs at least one score."""


class InvalidTemperature(ValidationError):
    """Softmax temperature must be a positive finite number."""


class LengthMismatch(ValidationError):
    """Parallel sequences have different lengths."""


class BankMisalignment(ValidationError):
    """Paired caption banks must hold the same ids."""


class InvalidM(ValidationError):
    """Requested more ranked entries than there are classes."""


class LabelMismatch(ValidationError):
    """Predictions and labels disagree in length or label range."""


class EmptyGrid(ValidationError):
    """A sweep grid axis has no values."""


class InvalidFixture(ValidationError):
    """Synthetic fixture parameters are out of range."""


def row_error(exc_type, what: str, row: int, n_rows: int, message: str):
    """An error about one row of a stack; stacks of several rows name it."""
    return exc_type(f"{what} {row}: {message}" if n_rows > 1 else message)
