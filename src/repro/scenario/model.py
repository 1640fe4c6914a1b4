"""The scenario schema: validation of parsed config into a :class:`Scenario`.

A scenario file has up to three sections::

    [scenario]
    name = "scale"            # required; the scenario's registry name
    kind = "scale"            # required; which execution plane runs it
    baseline = "BENCH_scale.json"   # optional; committed gate file

    [params]                  # optional; kind-specific, validated + defaulted
    seed = 0
    workers = [1, 4]

    [sweep]                   # optional; param name -> list of values
    users = [1, 2, 4, 8]

Validation is strict: an unknown section, an unknown key, a missing
required key, or a type mismatch raises
:class:`~repro.scenario.config.ConfigError` carrying the file and line of
the offending entry, so the error message is directly actionable.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.scenario.config import ConfigError, _parse_value, parse_config

__all__ = [
    "Scenario",
    "apply_overrides",
    "list_scenarios",
    "load_scenario",
    "load_scenario_text",
    "resolve",
    "scenarios_dir",
]

_TOP_SECTIONS = ("scenario", "params", "sweep")
_SCENARIO_KEYS = ("name", "kind", "baseline")

#: Python types admitted for each spec type name.
_SCALARS = {"int": int, "str": str, "bool": bool, "float": (int, float)}


def _type_name(value) -> str:
    return type(value).__name__


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


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: kind + parameters + sweep grid + baseline."""

    name: str
    kind: str
    path: str
    params: Dict[str, object] = field(default_factory=dict)
    sweep: Dict[str, list] = field(default_factory=dict)
    baseline: Optional[str] = None

    def describe(self) -> str:
        """One line for listings: name, kind, sweep size, baseline."""
        points = 1
        for values in self.sweep.values():
            points *= len(values)
        sweep = f", sweep {points} points" if self.sweep else ""
        gate = self.baseline if self.baseline else "no baseline"
        return f"kind={self.kind}{sweep}, gate: {gate}"


def _kind_specs() -> dict:
    from repro.scenario.runner import KINDS

    return KINDS


def _validate_params(
    kind_params: dict,
    given: dict,
    lines: Dict[str, int],
    path: str,
    section: str,
) -> Dict[str, object]:
    resolved = {name: spec.default for name, spec in kind_params.items()}
    for key in sorted(given):
        line = lines.get(f"{section}.{key}", lines.get(section, 1))
        spec = kind_params.get(key)
        if spec is None:
            known = ", ".join(sorted(kind_params)) or "(none)"
            raise ConfigError(
                path, line, f"unknown [{section}] key {key!r}; known: {known}"
            )
        value = given[key]
        if spec.type.endswith("_list"):
            element = spec.type[: -len("_list")]
            if not isinstance(value, list) or not all(
                _check_scalar(element, item) for item in value
            ):
                raise ConfigError(
                    path,
                    line,
                    f"[{section}] {key} must be a list of {element}, "
                    f"got {value!r}",
                )
        elif not _check_scalar(spec.type, value):
            raise ConfigError(
                path,
                line,
                f"[{section}] {key} must be {spec.type}, "
                f"got {_type_name(value)} {value!r}",
            )
        resolved[key] = value
    return resolved


def _validate_sweep(
    kind_params: dict, given: dict, lines: Dict[str, int], path: str
) -> Dict[str, list]:
    sweep: Dict[str, list] = {}
    for key in sorted(given):
        line = lines.get(f"sweep.{key}", lines.get("sweep", 1))
        spec = kind_params.get(key)
        if spec is None:
            known = ", ".join(sorted(kind_params)) or "(none)"
            raise ConfigError(
                path, line, f"unknown [sweep] key {key!r}; known: {known}"
            )
        if spec.type.endswith("_list"):
            raise ConfigError(
                path,
                line,
                f"[sweep] {key}: list-typed parameters cannot be swept",
            )
        values = given[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(
                path, line, f"[sweep] {key} must be a non-empty list of values"
            )
        for value in values:
            if not _check_scalar(spec.type, value):
                raise ConfigError(
                    path,
                    line,
                    f"[sweep] {key} values must be {spec.type}, "
                    f"got {_type_name(value)} {value!r}",
                )
        sweep[key] = list(values)
    return sweep


def load_scenario_text(text: str, path: str = "<scenario>") -> Scenario:
    """Parse + validate scenario TOML text into a :class:`Scenario`."""
    data, lines = parse_config(text, path)
    for section in sorted(data):
        if section not in _TOP_SECTIONS:
            raise ConfigError(
                path,
                lines.get(section, 1),
                f"unknown section [{section}]; known: "
                + ", ".join(_TOP_SECTIONS),
            )
        if not isinstance(data[section], dict):
            raise ConfigError(
                path,
                lines.get(section, 1),
                f"{section!r} must be a [{section}] section, not a key",
            )
    head = data.get("scenario")
    if not isinstance(head, dict):
        raise ConfigError(path, 1, "missing required [scenario] section")
    for key in sorted(head):
        if key not in _SCENARIO_KEYS:
            raise ConfigError(
                path,
                lines.get(f"scenario.{key}", lines.get("scenario", 1)),
                f"unknown [scenario] key {key!r}; known: "
                + ", ".join(_SCENARIO_KEYS),
            )
    for key in ("name", "kind"):
        if key not in head:
            raise ConfigError(
                path,
                lines.get("scenario", 1),
                f"[scenario] is missing required key {key!r}",
            )
        if not isinstance(head[key], str):
            raise ConfigError(
                path,
                lines.get(f"scenario.{key}", 1),
                f"[scenario] {key} must be a string",
            )
    baseline = head.get("baseline")
    if baseline is not None and not isinstance(baseline, str):
        raise ConfigError(
            path,
            lines.get("scenario.baseline", 1),
            "[scenario] baseline must be a string (a repo-root-relative file)",
        )
    kinds = _kind_specs()
    kind = head["kind"]
    if kind not in kinds:
        raise ConfigError(
            path,
            lines.get("scenario.kind", 1),
            f"unknown kind {kind!r}; known: " + ", ".join(sorted(kinds)),
        )
    kind_params = kinds[kind].params
    params = _validate_params(
        kind_params, data.get("params", {}), lines, path, "params"
    )
    sweep = _validate_sweep(kind_params, data.get("sweep", {}), lines, path)
    return Scenario(
        name=head["name"],
        kind=kind,
        path=path,
        params=params,
        sweep=sweep,
        baseline=baseline,
    )


def apply_overrides(scenario: Scenario, assignments: List[str]) -> Scenario:
    """The scenario with command-line ``key=value`` overrides applied.

    Values are read by the parameter's declared type (a ``str`` takes the
    text as is, a list takes ``1,4`` or ``[1, 4]``) and then pass the same
    validation as a ``[params]`` section; a :class:`ConfigError` locates
    the offending override by its position on the command line.
    """
    path = "<command line>"
    specs = _kind_specs()[scenario.kind].params
    given: Dict[str, object] = {}
    lines: Dict[str, int] = {}
    for position, assignment in enumerate(assignments, start=1):
        key, _, text = assignment.partition("=")
        lines[f"params.{key}"] = position
        spec_type = specs[key].type if key in specs else "str"
        if spec_type == "str":
            given[key] = text
        else:
            if spec_type.endswith("_list") and not text.startswith("["):
                text = f"[{text}]"
            given[key] = _parse_value(text, path, position)
    _validate_params(specs, given, lines, path, "params")
    return replace(scenario, params=dict(scenario.params, **given))


def repo_root() -> pathlib.Path:
    """The repository root (the directory holding ``scenarios/``)."""
    return pathlib.Path(__file__).resolve().parents[3]


def scenarios_dir() -> pathlib.Path:
    """The committed scenario directory: ``scenarios/`` at the repo root."""
    return repo_root() / "scenarios"


def list_scenarios() -> List[str]:
    """Sorted names of every committed scenario file."""
    directory = scenarios_dir()
    if not directory.is_dir():
        return []
    return sorted(entry.stem for entry in directory.glob("*.toml"))


def resolve(name_or_path: str) -> pathlib.Path:
    """Map a scenario name or explicit ``.toml`` path to its file.

    Raises :class:`FileNotFoundError` when neither resolution works.
    """
    candidate = pathlib.Path(name_or_path)
    if candidate.suffix == ".toml" and candidate.is_file():
        return candidate
    committed = scenarios_dir() / f"{name_or_path}.toml"
    if committed.is_file():
        return committed
    raise FileNotFoundError(name_or_path)


def load_scenario(name_or_path: str) -> Scenario:
    """Load and validate a scenario by registry name or file path."""
    path = resolve(name_or_path)
    return load_scenario_text(path.read_text(), str(path))
