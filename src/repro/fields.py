"""Field tables: one declarative row per document field, one walker.

Every document the system reads or writes — a wire request, a journal
event, an exported trace/metrics/profile/bench document — is described
by a *table*: a ``dict`` of :class:`Field` rows keyed by name, in
document order.  A request dataclass's fields *are* its table
(:func:`wire` puts each row in the field's metadata, :func:`table_of`
reads it back).  :func:`walk` checks a document against a table and
returns ``(path, message)`` findings in table order; the service turns
them into its 400 diagnostics, the journal and the exporters raise
:class:`~repro.obs.export.SchemaError` on the first one.

A field's ``type`` is one of:

* a tag of :data:`TAGS` (``"str"``, ``"pos_int"``, ...);
* a table, or a dataclass whose fields are one: a nested object;
* ``("list", T)`` / ``("nonempty_list", T)``: an array of ``T``;
* ``("map", T)``: an object whose every value is a ``T``;
* ``("options", table)``: an object of optional knobs, each key a row of
  the table; a ``null`` knob is a wrong value, not a default.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping
from typing import Any, Callable

__all__ = ["Field", "TAGS", "is_a", "table", "table_of", "walk", "wire"]


@dataclasses.dataclass(frozen=True)
class Field:
    """One row of a document table."""

    name: str
    type: Any
    required: bool = True
    default: Any = None
    choices: tuple[Any, ...] = ()
    doc: str = ""


def _int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: tag -> (test, what a passing value is).  No integer or number tag
#: accepts a ``bool``, and no ``*_num`` tag accepts NaN.
TAGS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "any": (lambda v: True, "a value"),
    "str": (lambda v: isinstance(v, str) and bool(v), "a non-empty string"),
    "text": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "int": (_int, "an integer"),
    "nonneg_int": (lambda v: _int(v) and v >= 0, "a non-negative integer"),
    "pos_int": (lambda v: _int(v) and v >= 1, "a positive integer"),
    "num": (_num, "a number"),
    "nonneg_num": (lambda v: _num(v) and v >= 0, "a non-negative number"),
    "pos_num": (lambda v: _num(v) and v > 0, "a positive number"),
    "object": (lambda v: isinstance(v, Mapping), "an object"),
}


def is_a(tag: str, value: Any) -> bool:
    """Whether ``value`` passes the :data:`TAGS` test ``tag``."""
    return TAGS[tag][0](value)


def table(*rows: Field) -> dict[str, Field]:
    """A table: the rows keyed by name, in the order given."""
    return {row.name: row for row in rows}


def wire(type_: Any, doc: str, *, default: Any = dataclasses.MISSING,
         choices: tuple[Any, ...] = ()) -> Any:
    """A dataclass field that is also a table row (a ``{}`` default
    becomes a fresh dict per instance)."""
    metadata = {"type": type_, "choices": choices, "doc": doc}
    if isinstance(default, dict):
        return dataclasses.field(default_factory=dict, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@functools.cache
def table_of(cls: type) -> dict[str, Field]:
    """The table a dataclass declares with :func:`wire` fields."""
    rows = []
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            required, default = False, f.default_factory()
        else:
            required = f.default is dataclasses.MISSING
            default = None if required else f.default
        meta = f.metadata
        rows.append(Field(f.name, meta["type"], required, default, meta["choices"], meta["doc"]))
    return table(*rows)


Finding = tuple[str, str]


def walk(kind: Any, doc: Any, *, strict: bool = False) -> tuple[Any, list[Finding]]:
    """Check ``doc`` against ``kind``, any field type (see the module doc).

    Returns the value read — a dataclass instance where ``kind`` is a
    dataclass, arrays as tuples — and every finding, in table order.

    A lax walk ignores keys no row names (documents on disk may carry
    more than they are checked for).  A ``strict`` walk reports them: at
    the top level with the allowed names, in a nested object tersely —
    and a nested object then reports only its first failing rows (rows
    of one type in a row count as one check), a missing row reading as
    ``null``, so a bad array item costs one finding rather than one per
    field.  A dataclass built from a clean object may refuse it with a
    ``ValueError``, whose message becomes the object's finding: that is
    where a cross-field invariant lives.
    """
    found: list[Finding] = []
    return _check(kind, doc, "", found, strict), found


def _at(path: str, name: Any) -> str:
    return f"{path}.{name}" if path else str(name)


def _check(kind: Any, value: Any, path: str, found: list[Finding], strict: bool) -> Any:
    if isinstance(kind, str):
        test, what = TAGS[kind]
        if not test(value):
            found.append((path, f"must be {what}"))
        return value
    if not isinstance(kind, tuple):
        return _object(kind, value, path, found, strict)
    form, inner = kind
    if form == "options":
        return _options(inner, value, path, found)
    if form == "map":
        if not isinstance(value, Mapping):
            found.append((path, "must be an object"))
            return value
        return {key: _check(inner, value[key], _at(path, key), found, strict)
                for key in sorted(value)}
    if not isinstance(value, list):
        found.append((path, "must be an array"))
        return value
    if form == "nonempty_list" and not value:
        found.append((path, "must not be empty"))
    return tuple(_check(inner, item, f"{path}[{index}]", found, strict)
                 for index, item in enumerate(value))


def _row(row: Field, value: Any, path: str, found: list[Finding], strict: bool) -> Any:
    before = len(found)
    value = _check(row.type, value, path, found, strict)
    if len(found) == before and row.choices and value not in row.choices:
        found.append((path, f"must be one of {', '.join(map(str, row.choices))}"))
    return value


def _object(kind: Any, doc: Any, path: str, found: list[Finding], strict: bool) -> Any:
    rows = table_of(kind) if isinstance(kind, type) else kind
    if not isinstance(doc, Mapping):
        found.append((path, "must be an object"))
        return doc
    terse = strict and bool(path)
    extra = doc.keys() - rows.keys() if strict else ()
    if extra:
        unknown = "unknown field" if terse else f"unknown field (allowed: {', '.join(sorted(rows))})"
        found.extend((_at(path, key), unknown) for key in sorted(extra))
    values: dict[str, Any] = {}
    failed: Any = None
    for name, row in rows.items():
        if failed is not None and terse and row.type != failed:
            break
        value = doc.get(name)
        if value is None:
            if not row.required:
                continue
            if not terse and name not in doc:
                found.append((_at(path, name), "required field is missing"))
                failed = row.type
                continue
        before = len(found)
        values[name] = _row(row, value, _at(path, name), found, strict)
        if len(found) > before:
            failed = row.type
    if failed is not None or not isinstance(kind, type):
        return values
    try:
        return kind(**values)
    except ValueError as error:
        found.append((path, str(error)))
        return values


def _options(rows: Mapping[str, Field], doc: Any, path: str, found: list[Finding]) -> Any:
    if not isinstance(doc, Mapping):
        found.append((path, "must be an object"))
        return doc
    values = {}
    for key in sorted(doc):
        row = rows.get(key)
        if row is None:
            found.append((_at(path, key), f"unknown option (allowed: {', '.join(sorted(rows))})"))
        else:
            values[key] = _row(row, doc[key], _at(path, key), found, True)
    return values
