"""Exception hierarchy shared across the package."""

__all__ = ["DepchainError", "CorpusError", "EmbeddingError", "CheckpointError", "TrainingError"]


class DepchainError(Exception):
    """Base class for all errors raised by this package."""


class CorpusError(DepchainError):
    """Malformed CoNLL-U input, invalid tree structure, or bad event records."""


class EmbeddingError(DepchainError):
    """Malformed embedding text file."""


class CheckpointError(DepchainError):
    """Unreadable or inconsistent model checkpoint."""


class TrainingError(DepchainError):
    """Training or evaluation aborted (non-finite loss or logits, bad
    configuration)."""
