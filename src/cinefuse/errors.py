"""Exception types shared across the package, and the check on count arguments."""


class CinefuseError(Exception):
    """Base class for all errors raised by cinefuse."""


class DataFormatError(CinefuseError):
    """A data file violates its declared schema.

    Carries enough context (file, line, field) to point at the offending row.
    """

    def __init__(self, message, path=None, line=None, field=None):
        parts = []
        if path is not None:
            parts.append(str(path))
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.line = line
        self.field = field


class UnknownEntityError(CinefuseError):
    """Lookup of a user, movie, or title that does not exist."""


def require_positive(name: str, value: int) -> None:
    """Raise CinefuseError naming `value` unless it is at least 1."""
    if value < 1:
        raise CinefuseError(f"{name} must be >= 1, got {value}")
