"""One typed reader and writer for the sections of a config document.

A section is a JSON object whose keys name the fields of a dataclass.
``read`` builds the dataclass from it, reading each value by its field's
annotation:

- an ``int`` takes only an integral number (``3.0`` reads as 3, ``2.9`` is
  an error rather than a silent 2), at most the largest float in magnitude;
- a ``float`` takes only a finite number, read as ``float(v)``;
- a ``str`` takes only a string;
- a ``dict[float, float]`` takes an object of numbers keyed by numbers
  written as strings;
- no field takes ``true`` or ``false`` (a number check would take them as
  1 and 0).

A key that names no field is an error, and every error is a ConfigError
naming the value's path in the document.  ``write`` turns what ``read``
built back into JSON values, writing every field of every section.
"""

from __future__ import annotations

import functools
import sys
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass


class ConfigError(ValueError):
    pass


def read_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


@contextmanager
def section(where: str):
    """Turn the validation error of a dataclass built inside the block (a
    ValueError such as ObserverConfigError) into a ConfigError naming the
    config section ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def read(cls, raw, where: str):
    """The dataclass ``cls`` built from the JSON object ``raw`` at config
    path ``where`` (see ``read_fields``); every field without a default
    must be given."""
    values = read_fields(cls, raw, where)
    for field in fields(cls):
        if field.name not in values and field.default is MISSING \
                and field.default_factory is MISSING:
            raise ConfigError(f"missing required key in {where}: {field.name!r}")
    with section(where):
        return cls(**values)


def read_fields(cls, raw, where: str, skip=()) -> dict:
    """The fields of dataclass ``cls`` that the JSON object ``raw`` at config
    path ``where`` ("" for the document) sets, each read by its annotation.
    A key that names no field of ``cls``, or one in ``skip``, is an error."""
    raw = read_object(raw, where)
    types = _field_types(cls)
    unknown = sorted(key for key in raw if key not in types or key in skip)
    if unknown:
        raise ConfigError(f"unknown key in {where or 'config'}: {unknown[0]!r}")
    return {key: _value(types[key], value, f"{where}.{key}" if where else key)
            for key, value in raw.items()}


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in fields(cls)}


def _value(annotation, value, where: str):
    if type(value) is bool:
        raise ConfigError(f"{where} must not be a boolean, got {value!r}")
    if annotation is int:  # the plant computes with some as floats
        if type(value) is int and abs(value) > sys.float_info.max:
            raise ConfigError(f"{where} must be at most {sys.float_info.max:g} in "
                              "magnitude")
        if type(value) is int or type(value) is float and value.is_integer():
            return int(value)
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if annotation is float:  # JSON's NaN and Infinity read as floats
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if annotation is str:
        if type(value) is str:
            return value
        raise ConfigError(f"{where} must be a string, got {value!r}")
    if is_dataclass(annotation):
        return read(annotation, value, where)
    if typing.get_origin(annotation) is dict:  # float keys written as strings
        numbers = {}
        for key, item in read_object(value, where).items():
            try:
                number = float(key)
            except ValueError:
                raise ConfigError(f"{where} key {key!r} is not a number") from None
            if number in numbers:  # the later one would silently win
                raise ConfigError(f"{where} key {key!r} repeats {number!r}")
            numbers[number] = _value(float, item, f"{where}.{key}")
        return numbers
    raise TypeError(f"no config reader for {annotation}")


def write(value):
    """The JSON value of what ``read`` built: a dataclass as an object of
    all its fields, a tuple as an array, a dict's number keys as strings."""
    if is_dataclass(value):
        return {name: write(item) for name, item in vars(value).items()}
    if isinstance(value, tuple):
        return [write(item) for item in value]
    if isinstance(value, dict):
        return {repr(key): item for key, item in value.items()}
    return value
