"""The JSON form of the config dataclasses: one checked path both ways."""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, fields, is_dataclass


class ConfigError(ValueError):
    """A config key no field has, or a value of the wrong type."""


def to_dict(cfg):
    """JSON-ready dict of a config dataclass; tuples become lists."""

    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (tuple, list)):
            return [plain(x) for x in v]
        return v

    return plain(asdict(cfg))


def from_dict(cls, d, section=""):
    """Build the dataclass ``cls`` from its JSON form ``d``.

    Unknown keys are rejected and missing ones take their defaults; nested
    dataclasses are built from the field annotations, lists become tuples,
    and every scalar is checked against its annotation. Errors name the key
    by its dotted path under ``section``.
    """
    where = f"'{section}'" if section else "the config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {k: _value(hints[k], v, f"{section}.{k}" if section else k) for k, v in d.items()}
    return cls(**kwargs)


def _value(hint, v, key):
    if is_dataclass(hint):
        return from_dict(hint, v, key)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(v, list):
            raise ConfigError(f"'{key}' must be a list, got {v!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(v)
        elif len(v) != len(args):
            raise ConfigError(f"'{key}' must have {len(args)} entries, got {v!r}")
        return tuple(_value(a, x, f"{key}[{i}]") for i, (a, x) in enumerate(zip(args, v)))
    if hint is float:
        ok = type(v) is int or (type(v) is float and math.isfinite(v))
    else:
        ok = type(v) is hint
    if not ok:
        kind = "a finite number" if hint is float else hint.__name__
        raise ConfigError(f"'{key}' must be {kind}, got {v!r}")
    return v
