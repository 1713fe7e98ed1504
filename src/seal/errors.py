"""Exception types shared across the package, and the one JSON reader
that turns every malformed document into one of them.

The CLI maps these onto exit codes: InputError and its subclasses exit
with 1, NumericError with 2.
"""

import json
from pathlib import Path


class InputError(ValueError):
    """A caller supplied arguments that violate an operation's contract."""


class DataFormatError(InputError):
    """A data file (CSV/JSON/checkpoint) is malformed or inconsistent."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or otherwise invalid numbers."""


def parse_json(text: str, where: str):
    """The JSON value in ``text``. Malformed JSON, an integer longer than
    Python converts, or nesting deeper than the parser recurses is a
    DataFormatError that starts with ``where``."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise DataFormatError(f"{where}: invalid JSON (nested too deeply)") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise DataFormatError(f"{where}: invalid JSON ({exc})") from exc


def read_json(path):
    """The JSON document in a UTF-8 file; parse_json's errors, and text
    that is not UTF-8, name the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    return parse_json(text, str(path))
