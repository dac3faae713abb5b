"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: usage problems exit 1, data
problems exit 2, anything else exits 3.
"""

__all__ = ["G2GTError", "UsageError", "DataError", "CheckpointError", "TrainingError"]


class G2GTError(Exception):
    """Base class for package errors."""


class UsageError(G2GTError):
    """Bad flags, bad configuration values, invalid hyperparameters."""


class DataError(G2GTError):
    """Malformed or inconsistent input data."""


class CheckpointError(DataError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


class TrainingError(G2GTError):
    """Training cannot go on: the loss is no longer a finite number."""
