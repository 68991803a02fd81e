"""Ground values, the record base class, fact text and generated code.

This is all that the fact loaders and the direct verifiers need of the
Datalog layer, so they import it without the rule syntax tree of
``datalog.ast``, which imports these names back.  A symbol is a ``str``
and a number an ``int`` that is not a ``bool``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

SYMBOL = "symbol"
NUMBER = "number"


@lru_cache(maxsize=256)
def compiled_make(source: str, filename: str) -> Callable:
    """The ``make`` function that generated ``source`` defines, compiled once
    as ``filename`` for every caller that generates the same source."""
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


class Record:
    """Base of the package's ``__slots__`` records, whose value is the fields
    named in ``_fields``.  Equality, ``hash`` and ``repr`` take the class
    into account, so a record never equals a tuple or another class's record.
    A record that holds a list or a dict is unhashable through it.  Fields
    are not write-protected: a check would slow down every construction."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _field_repr(value) -> str:
    """A field's ``repr``, in which a number, alone or in a tuple, is its
    ``number_text``: ``repr`` raises ValueError past the digit limit."""
    if type(value) is int:
        return number_text(value)
    if type(value) is tuple:
        items = ", ".join(map(_field_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


# ---------------------------------------------------------------------------
# Pretty printing.  parse(print(p)) reproduces an equivalent program.
# ---------------------------------------------------------------------------


def _escape_symbol(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# Fewer digits than the least int-to-str limit an interpreter accepts (640).
_CHUNK_DIGITS = 600


def number_text(number: int) -> str:
    """A number's decimal text: the one writer of a number.  Past the
    int-to-str digit limit (``sys.set_int_max_str_digits``), where ``str``
    raises ValueError, it writes ``_CHUNK_DIGITS`` digits at a time."""
    try:
        return str(number)
    except ValueError:
        pass
    rest, chunks = abs(number), []
    while rest:
        rest, chunk = divmod(rest, 10**_CHUNK_DIGITS)
        chunks.append(f"{chunk:0{_CHUNK_DIGITS}d}")
    digits = "".join(reversed(chunks)).lstrip("0")
    return "-" + digits if number < 0 else digits


def print_term(term) -> str:
    """A constant as Datalog text; a variable (``ast.Var``) prints as its
    name and the wildcard as ``_``."""
    if type(term) is str:
        return f'"{_escape_symbol(term)}"'
    if type(term) is int:
        return number_text(term)
    return getattr(term, "name", "_")


def print_fact(predicate: str, values: Iterable) -> str:
    """``predicate(v1, ..., vn)``: the one writer of fact and atom text."""
    return f"{predicate}({', '.join(map(print_term, values))})"


def print_declaration(name: str, sorts: tuple[str, ...]) -> str:
    args = ", ".join(f"a{i}: {sort}" for i, sort in enumerate(sorts))
    return f".decl {name}({args})"
