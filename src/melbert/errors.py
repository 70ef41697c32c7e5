"""Shared exception types, and the one reader of text files that makes a
file's undecodable byte one of them.

Everything derives from ValueError so callers can catch broadly, but the
subclasses let tests pin down which contract was violated.
"""


class MelbertError(ValueError):
    """Base class for all package-specific errors."""


class DimensionError(MelbertError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigError(MelbertError):
    """A configuration value is out of its legal range or unknown."""


class ContractError(MelbertError):
    """A documented precondition of an operation was violated."""


class VocabError(MelbertError):
    """A token id or tag falls outside the vocabulary."""


class FormatError(MelbertError):
    """A file does not conform to its declared on-disk format."""


class TrainingDivergedError(MelbertError):
    """Training produced a non-finite loss; carries step diagnostics."""


def read_text(path, error: type[MelbertError] = FormatError) -> str:
    """The text of the UTF-8 file at ``path``. A byte that is not valid
    UTF-8 is an ``error`` naming the path and the byte's offset: a
    ``FormatError`` for a data file, a ``ConfigError`` for a config file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: byte {e.start} is not valid UTF-8") from None
