"""Shared exception types, the line reader of every text file but the CSVs,
the error of a file that is not UTF-8, and the check on count arguments."""

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


def text_lines(path) -> list[tuple[int, str]]:
    """Each line of the UTF-8 file at `path`, numbered from 1, without its
    line ending. Lines end at LF, CRLF or CR only, as the CSV reader ends
    records and as `not_utf8` counts them. A bad byte raises `not_utf8`; an
    OSError propagates, for the caller to name the file its own way."""
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines: each ending reads as LF
            return [(i, line.rstrip("\n")) for i, line in enumerate(fh, 1)]
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def not_utf8(path) -> DataFormatError:
    """The DataFormatError of a file that fails to decode as UTF-8, naming
    the line of its first bad byte, where lines end at LF, CRLF or CR. Called
    only once a decode has failed, it reads the file again as bytes, so a
    file that loads pays nothing."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b".").splitlines())
        return DataFormatError(f"not UTF-8: byte 0x{data[exc.start]:02x}", path=path, line=line)
    return DataFormatError("not UTF-8", path=path)  # the file changed since the failed decode


class UnknownEntityError(CinefuseError):
    """Lookup of a user, movie, or title that does not exist."""


def require_positive(name: str, value: int) -> None:
    """Raise CinefuseError naming `value` unless it is at least 1."""
    if value < 1:
        raise CinefuseError(f"{name} must be >= 1, got {value}")
