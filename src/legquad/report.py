"""The text of a `--json` report: `dumps(obj)` is `json.dumps(obj, indent=2)`
byte for byte, on the JSON types a report holds.

The standard library has no C encoder for an indented dump, so its
pure-Python generators write one token at a time.  Here one recursive writer
appends to a single list of chunks, joined once: strings go through the C
function `json.encoder.encode_basestring_ascii`, ints and floats are written
by their `repr` (NaN and the infinities as the standard library writes
them), and a list made only of ints is written with one join.  It takes a
dict with str keys, a list, a str, an int, a float, a bool and None, each of
exactly that type; anything else, a tuple or an int key among them, raises
TypeError naming its type.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INFINITY = float("inf")
_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)` of a tree of the JSON types above."""
    out: list = []
    _write(obj, out, "\n")
    return "".join(out)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _write(obj, out: list, newline: str) -> None:
    """Append the text of `obj` to `out`; `newline` is a line break and the
    indentation of the line `obj` starts on."""
    kind = type(obj)
    if kind is str:
        out.append(_string(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"a report's keys must be str, not {type(key).__name__}")
            out.append(f"{separator}{_string(key)}: ")
            _write(value, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in obj):
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, obj))}{newline}]")
            return
        separator = "[" + inner
        for value in obj:
            out.append(separator)
            _write(value, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif obj is None or kind is bool:
        out.append(_CONSTANTS[obj])
    elif kind is float:
        out.append(_float(obj))
    else:
        raise TypeError(f"a report cannot hold a value of type {kind.__name__}")
