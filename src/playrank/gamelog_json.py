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
from typing import Any

from .model import (
    EVENT_SPECS, SPEC_BY_CLASS, Event, GameLog, GameMetadata, Roster,
    RosterPlayer, Sport,
)

SCHEMA_VERSION = "1"

# Per sport: wire name -> (class, player fields, integer fields, allowed keys).
_WIRE: dict[Sport, dict[str, tuple]] = {
    sport: {
        spec.name: (spec.cls, spec.roles, spec.wire_ints(sport),
                    frozenset(("type", *spec.roles, *spec.wire_ints(sport))))
        for spec in EVENT_SPECS
    }
    for sport in Sport
}


class SchemaError(Exception):
    """Document shape/type problem at a specific path."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(path, f"missing required field '{key}'")
    return obj[key]


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed: set[str] | frozenset[str], path: str) -> None:
    if not allowed.issuperset(obj):
        raise SchemaError(f"{path}.{sorted(set(obj) - allowed)[0]}", "unknown field")


def _parse_event(obj: Any, kinds: dict, path: str) -> Event:
    obj = _as_obj(obj, path)
    name = _as_str(_require(obj, "type", path), f"{path}.type")
    kind = kinds.get(name)
    if kind is None:
        raise SchemaError(f"{path}.type", f"unknown event type '{name}'")
    cls, players, ints, allowed = kind
    _reject_unknown(obj, allowed, path)
    kwargs: dict[str, Any] = {}
    for f in players:
        kwargs[f] = _as_str(_require(obj, f, path), f"{path}.{f}")
    for f in ints:
        kwargs[f] = _as_int(_require(obj, f, path), f"{path}.{f}")
    return cls(**kwargs)


def _parse_player(obj: Any, path: str) -> RosterPlayer:
    obj = _as_obj(obj, path)
    _reject_unknown(obj, {"id", "name", "starter"}, path)
    pid = _as_str(_require(obj, "id", path), f"{path}.id")
    if not pid:
        raise SchemaError(f"{path}.id", "player id must be nonempty")
    name = _as_str(obj["name"], f"{path}.name") if "name" in obj else pid
    starter = obj.get("starter", False)
    if not isinstance(starter, bool):
        raise SchemaError(f"{path}.starter", "expected a boolean")
    return RosterPlayer(pid, name, starter)


def _parse_team(obj: Any, path: str) -> Roster:
    obj = _as_obj(obj, path)
    _reject_unknown(obj, {"name", "players"}, path)
    name = _as_str(_require(obj, "name", path), f"{path}.name")
    players = _as_list(_require(obj, "players", path), f"{path}.players")
    if not players:
        raise SchemaError(f"{path}.players", "a team needs at least one player")
    return Roster(name, tuple(
        _parse_player(p, f"{path}.players[{i}]") for i, p in enumerate(players)
    ))


def parse_gamelog(text: str) -> GameLog:
    """Parse and schema-check a JSON document into a GameLog.

    Raises SchemaError on the first shape/type problem; run validate_game
    on the result for the semantic invariants.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("$", "invalid JSON: nested too deeply") from None
    doc = _as_obj(doc, "$")
    _reject_unknown(doc, {"schema_version", "sport", "teams", "metadata", "events"}, "$")

    version = _as_str(_require(doc, "schema_version", "$"), "$.schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError("$.schema_version",
                          f"unsupported version '{version}' (expected '{SCHEMA_VERSION}')")
    sport_name = _as_str(_require(doc, "sport", "$"), "$.sport")
    try:
        sport = Sport(sport_name)
    except ValueError:
        raise SchemaError("$.sport", f"unknown sport '{sport_name}'") from None

    teams = _as_list(_require(doc, "teams", "$"), "$.teams")
    if len(teams) != 2:
        raise SchemaError("$.teams", f"expected exactly 2 teams, got {len(teams)}")
    rosters = tuple(_parse_team(t, f"$.teams[{i}]") for i, t in enumerate(teams))

    metadata = GameMetadata()
    if "metadata" in doc:
        mobj = _as_obj(doc["metadata"], "$.metadata")
        _reject_unknown(mobj, {"date", "final_score"}, "$.metadata")
        metadata = GameMetadata(
            date=_as_str(mobj["date"], "$.metadata.date") if "date" in mobj else None,
            final_score=(_as_str(mobj["final_score"], "$.metadata.final_score")
                         if "final_score" in mobj else None),
        )

    events = _as_list(_require(doc, "events", "$"), "$.events")
    kinds = _WIRE[sport]
    parsed = tuple(
        _parse_event(e, kinds, f"$.events[{i}]") for i, e in enumerate(events)
    )
    return GameLog(sport, (rosters[0], rosters[1]), parsed, metadata)


def _event_to_obj(ev: Event, sport: Sport) -> dict:
    spec = SPEC_BY_CLASS[type(ev)]
    carried = spec.wire_ints(sport)
    for f in spec.ints:
        if f not in carried and getattr(ev, f) != 1:
            raise ValueError(f"cannot encode a {sport.value} {spec.name} worth "
                             f"{getattr(ev, f)}; validate the log first")
    obj: dict[str, Any] = {"type": spec.name}
    for f in spec.roles + carried:
        obj[f] = getattr(ev, f)
    return obj


def render_gamelog(log: GameLog) -> str:
    """Serialize a GameLog back to document text (stable field order)."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "sport": log.sport.value,
        "teams": [
            {
                "name": t.name,
                "players": [
                    {"id": p.id, "name": p.name, "starter": p.starter}
                    for p in t.players
                ],
            }
            for t in log.teams
        ],
    }
    meta = {}
    if log.metadata.date is not None:
        meta["date"] = log.metadata.date
    if log.metadata.final_score is not None:
        meta["final_score"] = log.metadata.final_score
    if meta:
        doc["metadata"] = meta
    doc["events"] = [_event_to_obj(e, log.sport) for e in log.events]
    return json.dumps(doc, indent=2) + "\n"
