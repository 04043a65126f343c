"""JSON game-log documents (schema_version "1").

Shape:

    {
      "schema_version": "1",
      "sport": "basketball" | "soccer" | "hockey",
      "teams": [{"name": ..., "players": [{"id", "name"?, "starter"?}, ...]}, x2],
      "metadata": {"date"?, "final_score"?},          (optional)
      "events": [{"type": ..., <per-type fields>}, ...]
    }

Event objects carry the type name plus exactly the fields of that event
(e.g. {"type": "pass", "passer": "A", "receiver": "B"}); basketball scores
require "points", soccer/hockey scores must omit it.  Validation is strict:
unknown fields anywhere are rejected with a path-qualified SchemaError, so
transcription typos surface immediately.  Schema checks cover shape and
types only; team/side semantics stay with validate_game so a structurally
fine but illegal log still parses and then reports violations.
"""

from __future__ import annotations

import json
from itertools import repeat
from operator import itemgetter
from typing import Any

import numpy as np

from .model import (
    EVENT_SPECS, EventArrays, GameLog, GameMetadata, ParseError, Roster, Sport,
)

SCHEMA_VERSION = "1"

# Wire name -> kind (row of EVENT_SPECS), and per sport and kind the key
# count of its objects: the type, its roles and the integer fields it carries.
_KINDS: dict[str, int] = {spec.name: k for k, spec in enumerate(EVENT_SPECS)}
_SIZES = {sport: np.array([1 + len(s.roles) + len(s.wire_ints(sport)) for s in EVENT_SPECS])
          for sport in Sport}
_PLAYER_KEYS = frozenset(("id", "name", "starter"))


class SchemaError(ParseError):
    """Document shape/type problem at a specific path."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(path, f"missing required field '{key}'")
    return obj[key]


_EXPECTED = {str: "a string", int: "an integer", dict: "an object", list: "an array"}


def _as(kind: type, value: Any, path: str) -> Any:
    """``value`` when it is a JSON ``kind`` (str, int, dict or list)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(path, f"expected {_EXPECTED[kind]}, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed: set[str] | frozenset[str], path: str) -> None:
    if not allowed.issuperset(obj):
        raise SchemaError(f"{path}.{sorted(set(obj) - allowed)[0]}", "unknown field")


def _check_event(obj: Any, sport: Sport, path: str) -> None:
    """Raise the first schema problem of one event object, if it has one."""
    obj = _as(dict, obj, path)
    name = _as(str, _require(obj, "type", path), f"{path}.type")
    if name not in _KINDS:
        raise SchemaError(f"{path}.type", f"unknown event type '{name}'")
    spec = EVENT_SPECS[_KINDS[name]]
    carried = spec.wire_ints(sport)
    _reject_unknown(obj, {"type", *spec.roles, *carried}, path)
    for f in spec.roles:
        _as(str, _require(obj, f, path), f"{path}.{f}")
    for f in carried:
        _as(int, _require(obj, f, path), f"{path}.{f}")


def _parse_events(events: list, sport: Sport, teams: tuple[Roster, Roster]) -> EventArrays:
    """Schema-check the event objects and read them as node columns, kind by
    kind (EventArrays.read).  On a missing field, an unhashable value, a role
    that is no str or an integer beyond int64, the per-event checker raises
    the first SchemaError; if it passes, validate_game reports the rest."""
    arrays = None
    try:
        kind = np.fromiter(map(_KINDS.__getitem__, map(itemgetter("type"), events)), np.intp)
        arrays = EventArrays.read(events, kind, teams, sport)
        # read raises on a missing key, so the key count is exact iff its sum is;
        # roster ids are str, so only an appended id can be a role of another type
        appended = arrays.ids[sum(len(t.ids) for t in teams):]
        if (sum(map(len, events)) == _SIZES[sport][kind].sum() and not arrays.odd
                and all(isinstance(pid, str) for pid in appended)):
            return arrays
    except (LookupError, TypeError):
        pass
    for i, obj in enumerate(events):
        _check_event(obj, sport, f"$.events[{i}]")
    if arrays is None:
        raise AssertionError("the column checks failed on a schema-clean event list")
    return arrays


def _check_player(obj: Any, path: str) -> None:
    """Raise the first schema problem of one player object, if it has one."""
    obj = _as(dict, obj, path)
    _reject_unknown(obj, _PLAYER_KEYS, path)
    if not _as(str, _require(obj, "id", path), f"{path}.id"):
        raise SchemaError(f"{path}.id", "player id must be nonempty")
    if "name" in obj:
        _as(str, obj["name"], f"{path}.name")
    if not isinstance(obj.get("starter", False), bool):
        raise SchemaError(f"{path}.starter", "expected a boolean")


def _parse_team(obj: Any, path: str) -> Roster:
    """Schema-check a team, its players as columns like _parse_events."""
    obj = _as(dict, obj, path)
    _reject_unknown(obj, {"name", "players"}, path)
    name = _as(str, _require(obj, "name", path), f"{path}.name")
    players = _as(list, _require(obj, "players", path), f"{path}.players")
    if not players:
        raise SchemaError(f"{path}.players", "a team needs at least one player")
    try:
        ids = list(map(itemgetter("id"), players))
        names = list(map(dict.get, players, repeat("name"), ids))
        starters = list(map(dict.get, players, repeat("starter"), repeat(False)))
        if all(map(_PLAYER_KEYS.issuperset, players)) and all(ids):
            return Roster.from_columns(name, ids, names, starters)  # TypeError on a wrong type
    except (LookupError, TypeError):
        pass
    for i, p in enumerate(players):
        _check_player(p, f"{path}.players[{i}]")
    raise AssertionError("the column checks failed on a schema-clean roster")


def parse_gamelog(text: str) -> GameLog:
    """Parse and schema-check a JSON document into a GameLog.

    Raises SchemaError on the first shape/type problem; run validate_game
    on the result for the semantic invariants.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_gamelog needs a str, not {type(text).__name__}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("$", "invalid JSON: nested too deeply") from None
    doc = _as(dict, doc, "$")
    _reject_unknown(doc, {"schema_version", "sport", "teams", "metadata", "events"}, "$")

    version = _as(str, _require(doc, "schema_version", "$"), "$.schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError("$.schema_version",
                          f"unsupported version '{version}' (expected '{SCHEMA_VERSION}')")
    sport_name = _as(str, _require(doc, "sport", "$"), "$.sport")
    try:
        sport = Sport(sport_name)
    except ValueError:
        raise SchemaError("$.sport", f"unknown sport '{sport_name}'") from None

    teams = _as(list, _require(doc, "teams", "$"), "$.teams")
    if len(teams) != 2:
        raise SchemaError("$.teams", f"expected exactly 2 teams, got {len(teams)}")
    rosters = tuple(_parse_team(t, f"$.teams[{i}]") for i, t in enumerate(teams))

    mobj = _as(dict, doc.get("metadata", {}), "$.metadata")
    _reject_unknown(mobj, {"date", "final_score"}, "$.metadata")
    metadata = GameMetadata(**{k: _as(str, mobj[k], f"$.metadata.{k}")
                               for k in ("date", "final_score") if k in mobj})

    events = _as(list, _require(doc, "events", "$"), "$.events")
    return GameLog(sport, rosters, _parse_events(events, sport, rosters), metadata)


def fill_array(text: str, key: str, layouts: list, which, *columns) -> str:
    """``text``, a json.dumps(indent=2) document, with one object per row of
    ``columns`` in its first ``"key": []``, laid out as json.dumps would: row i
    has the (key, value template) pairs of ``layouts[which[i]]``, filled by str.format."""
    templates = ["    {{\n" + ",\n".join(f'      "{k}": {v}' for k, v in layout) + "\n    }}"
                 for layout in layouts]
    body = ",\n".join(map(str.format, map(templates.__getitem__, which), *columns))
    return text.replace(f'"{key}": []', f'"{key}": [\n{body}\n  ]', 1) if body else text


def render_gamelog(log: GameLog) -> str:
    """Serialize a GameLog back to document text (stable field order)."""
    if not isinstance(log, GameLog):
        raise TypeError(f"render_gamelog needs a GameLog, not {type(log).__name__}")
    sport, arr, odd = log.sport, log.arrays, log.arrays.odd
    fixed = [len(s.wire_ints(sport)) < len(s.ints) for s in EVENT_SPECS]  # always worth 1
    for i in np.flatnonzero(np.take(fixed, arr.kind) & (arr.weight != 1)).tolist():
        if (value := odd.get(i, arr.weight[i])) != 1:  # True and 1.0 are 1
            raise ValueError(f"cannot encode a {sport.value} {EVENT_SPECS[arr.kind[i]].name} "
                             f"worth {value}; validate the log first")
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "sport": sport.value,
        "teams": [{"name": t.name, "players": [p._asdict() for p in t.players]}
                  for t in log.teams],
    }
    meta = {k: v for k, v in log.metadata._asdict().items() if v is not None}
    if meta:
        doc["metadata"] = meta
    doc["events"] = []
    # each kind's type, then its roles from a and b ({0}, {1}) and its integer field ({2})
    layouts = [(("type", f'"{s.name}"'), *zip(s.roles, ("{0}", "{1}")),
                *((f, "{2}") for f in s.wire_ints(sport))) for s in EVENT_SPECS]
    ids = list(map(json.dumps, arr.ids + (None,)))  # a and b are -1 for no role
    ints = [json.dumps(odd[i]) if i in odd else w for i, w in enumerate(arr.weight.tolist())]
    return fill_array(json.dumps(doc, indent=2), "events", layouts, arr.kind.tolist(),
                      map(ids.__getitem__, arr.a.tolist()),
                      map(ids.__getitem__, arr.b.tolist()), ints) + "\n"
