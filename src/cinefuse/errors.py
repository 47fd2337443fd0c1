"""Exception types shared across the package, the error of a file that is
not UTF-8, and the check on count arguments."""

from pathlib import Path


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


def not_utf8(path, text_lines: bool = False) -> DataFormatError:
    """The DataFormatError of a file that fails to decode as UTF-8, naming
    the line of its first bad byte. Called only once a decode has failed,
    it reads the file again as bytes, so a file that loads pays nothing.
    Lines end where its reader ends them: at LF, CRLF or CR for a file read
    line by line, and also at the other separators of str.splitlines for a
    file split as text (`text_lines`)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        head = head.decode("utf-8") + "." if text_lines else head + b"."
        return DataFormatError(f"not UTF-8: byte 0x{data[exc.start]:02x}", path=path, line=len(head.splitlines()))
    return DataFormatError("not UTF-8", path=path)  # the file changed since the failed decode


class UnknownEntityError(CinefuseError):
    """Lookup of a user, movie, or title that does not exist."""


def require_positive(name: str, value: int) -> None:
    """Raise CinefuseError naming `value` unless it is at least 1."""
    if value < 1:
        raise CinefuseError(f"{name} must be >= 1, got {value}")
