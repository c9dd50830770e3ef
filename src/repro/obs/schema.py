"""The golden-schema gate shared by every versioned report dict.

A schema maps each key to the type its value must have, or to a nested
schema.  A nested schema under one of the ``list_keys`` describes each
row of a list (``rows``, ``spans``, ``trials`` ...); under any other key
it describes a nested object.  ``float`` accepts any number, and no
numeric type accepts ``bool``.
"""

from __future__ import annotations

from typing import Any, Collection

__all__ = ["check_schema"]


def check_schema(data: dict[str, Any], schema: dict[str, Any], *,
                 version: int, noun: str,
                 list_keys: Collection[str]) -> None:
    """Check ``data`` against ``schema``; raises ``ValueError`` on an
    unsupported ``schema_version`` (anything but ``version``), a missing
    key (``"<noun> missing key ..."``) or a mistyped value."""
    if data.get("schema_version") != version:
        raise ValueError(
            f"unsupported schema_version {data.get('schema_version')!r} "
            f"(expected {version})")
    _check(data, schema, "", noun, list_keys)


def _check(obj: dict, schema: dict, path: str, noun: str,
           list_keys: Collection[str]) -> None:
    for key, expected in schema.items():
        if key not in obj:
            raise ValueError(f"{noun} missing key {path}{key!r}")
        value = obj[key]
        if isinstance(expected, dict) and key in list_keys:
            if not isinstance(value, list):
                raise ValueError(f"{path}{key!r} must be a list")
            for i, row in enumerate(value):
                if not isinstance(row, dict):
                    raise ValueError(f"{path}{key}[{i}] must be an object")
                _check(row, expected, f"{path}{key}[{i}].", noun, list_keys)
        elif isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ValueError(f"{path}{key!r} must be an object")
            _check(value, expected, f"{path}{key}.", noun, list_keys)
        elif expected is float:
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise ValueError(f"{path}{key!r} must be a number, got "
                                 f"{type(value).__name__}")
        elif not isinstance(value, expected) \
                or isinstance(value, bool) and expected is int:
            raise ValueError(f"{path}{key!r} must be {expected.__name__}, "
                             f"got {type(value).__name__}")
