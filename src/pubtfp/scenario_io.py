"""YAML readers for paradox scenario files and panel simulation configs.

Scenario files are read leniently per entry: a malformed scenario becomes
a :class:`~pubtfp.paradoxes.FailedScenario` carrying its diagnostic, so
one bad entry never blocks the rest of the batch. Problems with the file
itself (unparseable YAML, wrong top-level shape, duplicate names) raise
:class:`~pubtfp.errors.ScenarioError`.

Simulation configs are strict; they describe a single run and there is
nothing sensible to salvage from a partial one.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

import yaml

from . import _EXPORTS
from .errors import PubTfpError, ScenarioError, _not_utf8
from .technology import (
    Ces,
    CobbDouglas,
    FactorPrices,
    HomotheticTranslog,
    InputBundle,
    Technology,
    TechnologyShift,
    TwoLevelCes,
)

if TYPE_CHECKING:
    from .accounting import SimulationSpec
    from .measurement import PricingScheme
    from .paradoxes import FailedScenario, Scenario

__all__ = [*_EXPORTS["scenario_io"]]

# libyaml's parser when PyYAML was built with it; both loaders share the
# Python resolver and SafeConstructor, so they build equal documents.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_FAMILIES: dict[str, type[Technology]] = {
    cls.family: cls for cls in (CobbDouglas, Ces, HomotheticTranslog, TwoLevelCes)
}


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if type(value) is not dict and not isinstance(value, Mapping):  # dict: skip the ABC check
        raise ScenarioError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(
    mapping: Mapping[str, Any], required: frozenset[str], optional: frozenset[str], where: str
) -> None:
    keys = set(mapping)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ScenarioError(f"{where} is missing keys {sorted(missing)!r}")
    if unknown:
        try:
            ordered = sorted(unknown)
        except TypeError:  # keys of mixed types: the strings in order, then the rest by repr
            ordered = sorted(key for key in unknown if isinstance(key, str))
            ordered += sorted(unknown.difference(ordered), key=repr)
        raise ScenarioError(f"{where} has unknown keys {ordered!r}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer of 309 digits or more
        digits = len(str(abs(value)))
        raise ScenarioError(f"{where} is too large for a float: a {digits}-digit integer") from None


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{where} must be a nonempty string, got {value!r}")
    return value


def _number_list(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where} must be a nonempty list of numbers")
    return tuple(_number(item, f"{where}[{position}]") for position, item in enumerate(value))


@cache
def _schema(cls: type) -> tuple[frozenset[str], frozenset[str]]:
    """A record class's required and optional keys: its fields without and with a default."""
    required = frozenset(f.name for f in fields(cls) if f.default is f.default_factory is MISSING)
    return required, frozenset(f.name for f in fields(cls)) - required


def _record(cls: type, mapping: Any, where: str) -> Any:
    """``cls`` built from a mapping of its fields to numbers, checked in file order."""
    mapping = _require_mapping(mapping, where)
    _check_keys(mapping, *_schema(cls), where)
    return cls(**{key: _number(value, f"{where}.{key}") for key, value in mapping.items()})


def _technology(value: Any, where: str) -> Technology:
    mapping = _require_mapping(value, where)
    family = mapping.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ScenarioError(
            f"{where}: family must be one of {sorted(_FAMILIES)!r}, got {family!r}"
        )
    params = dict(mapping)
    del params["family"]
    return _record(_FAMILIES[family], params, where)


def _pricing(value: Any, where: str) -> PricingScheme:
    from .measurement import PricedOutput, PricingScheme  # simulation configs need neither
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where} must be a nonempty list of outputs")
    return PricingScheme(tuple(
        _record(PricedOutput, entry, f"{where}[{position}]") for position, entry in enumerate(value)
    ))


# YAML key -> (Scenario field, parser), in parse order: the first parse that
# fails names the entry's error.
_SCENARIO_KEYS: dict[str, tuple[str, Callable[[Any, str], Any]]] = {
    "name": ("name", _string),
    "paradox": ("paradox_id", _integer),
    "shift_factor": ("shift", lambda value, where: TechnologyShift(_number(value, where))),
    "technology": ("technology", _technology),
    "bundle": ("bundle", partial(_record, InputBundle)),
    "prices": ("prices", partial(_record, FactorPrices)),
    "prices_after": ("prices_after", partial(_record, FactorPrices)),
    "outputs": ("pricing", _pricing),
    "markups_after": ("markups_after", _number_list),
    "description": ("description", _string),
}
_SCENARIO_REQUIRED = frozenset({"name", "paradox", "technology", "bundle"})
_SCENARIO_OPTIONAL = frozenset(_SCENARIO_KEYS) - _SCENARIO_REQUIRED


def _scenario(entry: Any, where: str, make: type[Scenario]) -> Scenario:
    mapping = _require_mapping(entry, where)
    _check_keys(mapping, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, where)
    return make(
        **{
            attribute: parse(mapping[key], f"{where}.{key}")
            for key, (attribute, parse) in _SCENARIO_KEYS.items()
            if key in mapping
        }
    )


def _entry_identity(entry: Any, position: int, paradox_ids: tuple[int, ...]) -> tuple[str, int]:
    """Best-effort name and paradox id for reporting a failed entry."""
    name = f"scenario-{position + 1}"
    paradox_id = 0
    if isinstance(entry, Mapping):
        raw_name = entry.get("name")
        if isinstance(raw_name, str) and raw_name:
            name = raw_name
        raw_id = entry.get("paradox")
        if not isinstance(raw_id, bool) and raw_id in paradox_ids:
            paradox_id = raw_id
    return name, paradox_id


def _unreadable(path: Path) -> tuple[str, ValueError] | None:
    """``, line N`` and the error of the first scalar, in file order, whose value
    cannot be read; ``None`` if every scalar reads. Each node is visited once,
    since an alias can make the node graph a cycle."""
    with path.open(encoding="utf-8") as handle:
        loader = _LOADER(handle)
        stack = [loader.get_single_node()]
    seen = set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, yaml.ScalarNode):
            try:
                loader.construct_object(node)
            except ValueError as exc:
                return f", line {node.start_mark.line + 1}", exc
            except Exception:  # a rejected tag, ...: not a value error, so not the one to name
                pass
        elif isinstance(node, yaml.MappingNode):
            stack.extend(reversed([child for pair in node.value for child in pair]))
        else:
            stack.extend(reversed(node.value))
    return None


def _load_yaml(path: Path) -> Any:
    try:
        with path.open(encoding="utf-8") as handle:
            return yaml.load(handle, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path} is not valid YAML: {exc}") from None
    except UnicodeDecodeError:
        raise ScenarioError(_not_utf8(path)) from None
    except ValueError as exc:  # an int past int()'s digit limit, 0x_, ...
        where, error = _unreadable(path) or ("", exc)
        raise ScenarioError(f"{path}{where}: a value cannot be read: {error}") from None


def load_scenarios(path: str | Path) -> list[Scenario | FailedScenario]:
    """Read a scenario file: a mapping with one ``scenarios`` list.

    An empty file or an empty list yields an empty result. Entries that
    cannot be built are returned as :class:`FailedScenario` records in
    place, preserving file order.
    """
    from .paradoxes import PARADOX_IDS, FailedScenario, Scenario
    path = Path(path)
    document = _load_yaml(path)
    if document is None:
        return []
    document = _require_mapping(document, f"{path}")
    _check_keys(document, frozenset({"scenarios"}), frozenset(), f"{path}")
    entries = document["scenarios"]
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise ScenarioError(f"{path}: scenarios must be a list")
    result: list[Scenario | FailedScenario] = []
    for position, entry in enumerate(entries):
        where = f"{path}: scenario {position + 1}"
        try:
            result.append(_scenario(entry, where, Scenario))
        except PubTfpError as exc:
            name, paradox_id = _entry_identity(entry, position, PARADOX_IDS)
            result.append(FailedScenario(name=name, error=str(exc), paradox_id=paradox_id))
    names = [s.name for s in result]
    if len(set(names)) != len(names):
        raise ScenarioError(f"{path}: scenario names must be unique, got {names!r}")
    return result


_SIMULATION_REQUIRED = frozenset({"technology", "convention", "start_year"})

# Each piece of a simulation is a constant or per-year lists, never both: (constant key,
# the record class the constant is read as or None for a number, list keys), in this order
_PIECES = (
    ("level_growth", None, ("levels",)),
    ("bundle", InputBundle, ("capital", "labor")),
    ("prices", FactorPrices, ("capital_price", "wage")),
)
_SIMULATION_OPTIONAL = frozenset(
    {"years", "country", "industry", "description"}
    | {key for constant, _, lists in _PIECES for key in (constant, *lists)}
)


def _given_as_lists(
    mapping: Mapping[str, Any], constant: str, lists: tuple[str, ...], where: str
) -> bool:
    """Whether a piece comes as its per-year lists; exactly one form must be given."""
    given = [key for key in lists if key in mapping]
    if len(lists) == 1 and (constant in mapping) == bool(given):
        keys = (*lists, constant)
        present = [key for key in keys if key in mapping]
        raise ScenarioError(f"{where} needs exactly one of {keys!r}, got {present!r}")
    if constant in mapping and given:
        raise ScenarioError(f"{where}: give {constant} or {'/'.join(lists)} lists, not both")
    if given and len(given) != len(lists):
        raise ScenarioError(f"{where}: {' and '.join(lists)} lists must come together")
    if not given and constant not in mapping:
        raise ScenarioError(f"{where}: needs {constant} or {'/'.join(lists)} lists")
    return bool(given)


def load_simulation(path: str | Path) -> SimulationSpec:
    """Read a simulation config: a mapping with one ``simulation`` mapping.

    Each of the technology level, the input bundle, and the factor prices
    may be given either as a constant (``level_growth``, ``bundle``,
    ``prices``) or as explicit per-year lists (``levels``, ``capital`` and
    ``labor``, ``capital_price`` and ``wage``). All lists must have the
    same length; ``years`` pins the length and is required when every
    piece is constant.
    """
    from .accounting import SimulationSpec
    path = Path(path)
    document = _require_mapping(_load_yaml(path), f"{path}")
    _check_keys(document, frozenset({"simulation"}), frozenset(), f"{path}")
    where = f"{path}: simulation"
    mapping = _require_mapping(document["simulation"], where)
    _check_keys(mapping, _SIMULATION_REQUIRED, _SIMULATION_OPTIONAL, where)

    technology = _technology(mapping["technology"], f"{where}.technology")
    list_keys = [
        key
        for constant, _, lists in _PIECES
        if _given_as_lists(mapping, constant, lists, where)
        for key in lists
    ]
    series = {key: _number_list(mapping[key], f"{where}.{key}") for key in list_keys}

    lengths = {name: len(values) for name, values in series.items()}
    if "years" in mapping:
        lengths["years"] = _integer(mapping["years"], f"{where}.years")
    if not lengths:
        raise ScenarioError(f"{where}: years is required when every piece is constant")
    if len(set(lengths.values())) != 1:
        raise ScenarioError(f"{where}: per-year lengths disagree: {lengths!r}")
    n = next(iter(lengths.values()))
    if n < 2:
        raise ScenarioError(f"{where}: a simulation needs at least 2 years, got {n}")

    if "levels" not in series:
        growth = _number(mapping["level_growth"], f"{where}.level_growth")
        if growth <= -1.0:
            raise ScenarioError(f"{where}.level_growth must exceed -1, got {growth!r}")
        levels = []
        for t in range(n):
            try:
                levels.append(technology.level * (1.0 + growth) ** t)
            except OverflowError:
                levels.append(math.inf)
            if not 0.0 < levels[-1] < math.inf:
                year = _integer(mapping["start_year"], f"{where}.start_year") + t
                raise ScenarioError(
                    f"{where}.level_growth {growth!r} takes the technology level out of "
                    f"the float range in year {year}"
                )
        series["levels"] = tuple(levels)
    for constant, cls, lists in _PIECES[1:]:
        if lists[0] not in series:
            record = _record(cls, mapping[constant], f"{where}.{constant}")
            series.update((key, (getattr(record, key),) * n) for key in lists)

    extras = {
        key: _string(mapping[key], f"{where}.{key}")
        for key in ("country", "industry")
        if key in mapping
    }
    return SimulationSpec(
        technology=technology,
        **series,
        start_year=_integer(mapping["start_year"], f"{where}.start_year"),
        convention=_string(mapping["convention"], f"{where}.convention"),
        **extras,
    )
