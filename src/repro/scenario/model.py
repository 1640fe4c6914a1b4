"""Command-line parameter overrides, typed by the kind's schema.

``bench <kind> key=value ...`` runs a kind with some parameters moved off
its committed configuration (:meth:`~repro.scenario.runner.Kind.defaults`).
Each value is read by the parameter's declared type: a ``str`` takes the
text as is, a list takes ``1,4`` or ``[1, 4]``, and anything else is a
literal (``3``, ``0.5``, ``true``).  The value must then be of that type.
An unknown key, an unreadable value or a type mismatch raises
:class:`ConfigError` naming the override by its position on the command
line (``<command line>:2: ...``), so the error is directly actionable.
"""

from __future__ import annotations

import pathlib
from typing import List

__all__ = ["ConfigError", "apply_overrides", "repo_root"]

#: Python types admitted for each spec type name.
_SCALARS = {"int": int, "str": str, "bool": bool, "float": (int, float)}


class ConfigError(Exception):
    """A bad ``key=value`` override, located by its command-line position."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"<command line>:{position}: {message}")


def _parse_scalar(token: str, position: int):
    """One scalar literal: string, bool, integer, or float."""
    token = token.strip()
    if not token:
        raise ConfigError(position, "empty value")
    if token.startswith('"'):
        if len(token) < 2 or not token.endswith('"') or token.count('"') != 2:
            raise ConfigError(position, f"malformed string {token!r}")
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    sign_stripped = token[1:] if token[0] in "+-" else token
    if sign_stripped.isdigit():
        return int(token)
    try:
        return float(token)
    except ValueError:
        raise ConfigError(
            position,
            f"unparseable value {token!r} (expected a string in double "
            f"quotes, an integer, a float, true/false, or [list, ...])",
        ) from None


def _parse_value(text: str, position: int):
    """A scalar literal, or a ``[a, b, ...]`` list of them."""
    text = text.strip()
    if not text.startswith("["):
        return _parse_scalar(text, position)
    if not text.endswith("]"):
        raise ConfigError(position, "arrays must open and close on one line")
    body = text[1:-1].strip()
    if "[" in body:
        raise ConfigError(position, "nested arrays are not supported")
    if not body:
        return []
    items = []
    for token in body.split(","):
        if token.strip() == "":
            raise ConfigError(position, "empty array element")
        items.append(_parse_scalar(token, position))
    return items


def _check_scalar(spec_type: str, value) -> bool:
    expected = _SCALARS[spec_type]
    if spec_type in ("int", "bool"):
        # bool is an int subclass; keep the two strictly apart.
        return isinstance(value, expected) and isinstance(value, bool) == (
            spec_type == "bool"
        )
    if spec_type == "float":
        return isinstance(value, expected) and not isinstance(value, bool)
    return isinstance(value, expected)


def apply_overrides(kind, assignments: List[str]) -> dict:
    """The kind's committed configuration with ``key=value`` overrides applied."""
    params = kind.defaults()
    for position, assignment in enumerate(assignments, start=1):
        key, _, text = assignment.partition("=")
        spec = kind.params.get(key)
        if spec is None:
            known = ", ".join(sorted(kind.params)) or "(none)"
            raise ConfigError(
                position, f"unknown key {key!r}; known: {known}"
            )
        if spec.type == "str":
            value = text
        else:
            if spec.type.endswith("_list") and not text.startswith("["):
                text = f"[{text}]"
            value = _parse_value(text, position)
        if spec.type.endswith("_list"):
            element = spec.type[: -len("_list")]
            if not all(_check_scalar(element, item) for item in value):
                raise ConfigError(
                    position,
                    f"{key} must be a list of {element}, got {value!r}",
                )
        elif not _check_scalar(spec.type, value):
            raise ConfigError(
                position,
                f"{key} must be {spec.type}, "
                f"got {type(value).__name__} {value!r}",
            )
        params[key] = value
    return params


def repo_root() -> pathlib.Path:
    """The repository root (the directory holding the committed baselines)."""
    return pathlib.Path(__file__).resolve().parents[3]
