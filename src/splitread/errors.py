"""Exception hierarchy shared across the workbench, and the rule that
turns an input file's bytes into text."""

import copyreg
from pathlib import Path


class SplitreadError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SplitreadError):
    """Malformed bracketed input. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

    def __reduce__(self):
        # Unpickled from its message as it stands, a location prefix
        # included, and its .offset; __init__ would add the offset again.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class FormatError(SplitreadError):
    """A file does not follow its declared column or record layout."""


class ValidationError(SplitreadError):
    """Structurally well-formed input that violates a domain invariant."""


class IntegrityError(SplitreadError):
    """Cross-file referential integrity violation."""


class StandardizationError(SplitreadError):
    """A design-matrix column cannot be turned into z-scores."""


class DegenerateInputWarning(UserWarning):
    """Degenerate input handled by a documented fallback value."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path`` with every \\r\\n and lone \\r made a \\n,
    as ``Path.read_text`` gives it, and one leading byte order mark
    dropped. Bytes that are not UTF-8 raise a FormatError naming the line
    they are on."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
