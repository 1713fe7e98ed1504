"""Exception types shared across the package, the one JSON reader
that turns every malformed document into one of them, and the one rule
for whether a parsed JSON value fits a type annotation.

The CLI maps these onto exit codes: InputError and its subclasses exit
with 1, NumericError with 2.
"""

import json
import math
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


def type_ok(value, expected) -> bool:
    """Whether a parsed JSON value fits an annotation: no bool for a
    number, a finite int or float for a float, a list for a sequence or
    tuple type."""
    import types
    import typing

    if isinstance(expected, types.UnionType):
        return any(type_ok(value, t) for t in typing.get_args(expected))
    if expected is type(None):
        return value is None
    if expected is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if expected is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int past the float range
            return False
    origin = typing.get_origin(expected)
    if origin is not None:
        item = typing.get_args(expected)[0]
        plain = type(item) is type and item not in (bool, float)  # decided once per list
        return isinstance(value, list) and all(
            type(v) is not bool and isinstance(v, item) if plain else type_ok(v, item) for v in value
        )
    return isinstance(value, expected)


def type_name(expected) -> str:
    """How an error message names the annotation ``expected``."""
    if expected is dict:
        return "a JSON object"
    return expected.__name__ if isinstance(expected, type) else str(expected)
