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
    EVENT_NAMES, PLAYER_FIELDS, Event, FoulWithFreeThrows, GameLog,
    GameMetadata, Roster, RosterPlayer, Score, Sport,
)

SCHEMA_VERSION = "1"

_CLASS_BY_NAME = {name: cls for cls, name in EVENT_NAMES.items()}
_INT_FIELDS: dict[type, tuple[str, ...]] = {
    Score: ("points",),
    FoulWithFreeThrows: ("made",),
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


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown field")


def _event_fields(cls: type, sport: Sport) -> tuple[tuple[str, ...], tuple[str, ...]]:
    ints = _INT_FIELDS.get(cls, ())
    if cls is Score and sport is not Sport.BASKETBALL:
        ints = ()  # soccer/hockey goals are always worth one
    return PLAYER_FIELDS[cls], ints


def _parse_event(obj: Any, sport: Sport, path: str) -> Event:
    obj = _as_obj(obj, path)
    name = _as_str(_require(obj, "type", path), f"{path}.type")
    cls = _CLASS_BY_NAME.get(name)
    if cls is None:
        raise SchemaError(f"{path}.type", f"unknown event type '{name}'")
    players, ints = _event_fields(cls, sport)
    _reject_unknown(obj, {"type", *players, *ints}, path)
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
    parsed = tuple(
        _parse_event(e, sport, f"$.events[{i}]") for i, e in enumerate(events)
    )
    return GameLog(sport, (rosters[0], rosters[1]), parsed, metadata)


def _event_to_obj(ev: Event, sport: Sport) -> dict:
    cls = type(ev)
    players, ints = _event_fields(cls, sport)
    if cls is Score and sport is not Sport.BASKETBALL and ev.points != 1:
        raise ValueError(
            f"cannot encode a {sport.value} score worth {ev.points}; validate the log first"
        )
    obj: dict[str, Any] = {"type": EVENT_NAMES[cls]}
    for f in players:
        obj[f] = getattr(ev, f)
    for f in ints:
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
