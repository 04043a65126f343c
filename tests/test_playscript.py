import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from playrank.model import Dispossess, Pass, Score, Sport, UnforcedTurnover, validate_game
from playrank.pipeline import build_digraph, parse_game_text
from playrank.playscript import PlayscriptError, parse_playscript

from golden import DEMO_ADJACENCY, build_demo_log

HEADER = "#team Reds A B C\n#team Blues D E F\n"


def _parse(body, header=HEADER):
    return parse_playscript(header + body)


def test_demo_file_matches_hand_transcription(demo_playscript_path):
    log = parse_playscript(demo_playscript_path.read_text(encoding="utf-8"))
    hand = build_demo_log()
    assert log.sport is Sport.BASKETBALL
    assert log.events == hand.events
    assert [t.name for t in log.teams] == ["Reds", "Blues"]
    assert [p.id for t in log.teams for p in t.players] == list("ABCDEF")
    assert validate_game(log) == []
    assert build_digraph(log).counts.tolist() == DEMO_ADJACENCY


def test_demo_file_starter_flags(demo_playscript_path):
    log = parse_playscript(demo_playscript_path.read_text(encoding="utf-8"))
    starters = {p.id for t in log.teams for p in t.players if p.starter}
    assert starters == {"A", "B", "D", "E"}


def test_same_team_pair_is_a_pass():
    assert _parse("A -> B\n").events == (Pass("A", "B"),)


def test_cross_team_pair_is_a_dispossession():
    # The mover loses the ball to the opponent.
    assert _parse("A -> F\n").events == (Dispossess(winner="F", loser="A"),)


def test_zero_separates_possessions():
    log = _parse("D -> F -> 0 -> B -> C\n")
    assert log.events == (Pass("D", "F"), UnforcedTurnover("F"), Pass("B", "C"))


def test_new_line_starts_a_fresh_possession():
    log = _parse("A -> B\nC -> A\n")
    assert log.events == (Pass("A", "B"), Pass("C", "A"))


def test_score_tokens():
    assert _parse("A -> G\n").events == (Score("A", 1),)
    assert _parse("A -> G:3\n").events == (Score("A", 3),)
    assert _parse("A -> G:01\n").events == (Score("A", 1),)  # leading zeros are read
    assert _parse("A -> G:0004\n").events == (Score("A", 4),)


def test_play_continues_after_a_score_with_no_arc():
    log = _parse("A -> G -> D -> E\n")
    assert log.events == (Score("A", 1), Pass("D", "E"))


def test_zero_after_score_is_a_noop():
    assert _parse("A -> G -> 0\n").events == (Score("A", 1),)


def test_single_token_line_emits_nothing():
    assert _parse("A\n").events == ()


def test_blank_and_comment_lines_ignored():
    log = _parse("\n#! commentary here\nA -> B\n")
    assert log.events == (Pass("A", "B"),)


# --- errors -----------------------------------------------------------------

def _err(text):
    with pytest.raises(PlayscriptError) as info:
        parse_playscript(text)
    return info.value


def test_undeclared_player_has_location():
    err = _err(HEADER + "A -> Q\n")
    assert err.kind == "undeclared-player"
    assert (err.line, err.column) == (3, 6)
    assert "Q" in err.message


def test_score_out_of_range():
    err = _err(HEADER + "A -> G:5\n")
    assert err.kind == "unknown-token"
    assert (err.line, err.column) == (3, 6)


def test_score_range_message_names_the_score_rows_bounds():
    assert _err(HEADER + "A -> G:5\n").message == "bad score token 'G:5' (use G or G:1..G:4)"


@pytest.mark.parametrize("token", ["G:\u00b2", "G:\u0663", "G:x", "G:", "G:0", "G:-1"])
def test_score_needs_ascii_points_1_to_4(token):
    err = _err(HEADER + f"A -> {token}\n")
    assert err.kind == "unknown-token"
    assert (err.line, err.column) == (3, 6)


def test_score_must_follow_a_player():
    err = _err(HEADER + "G -> A\n")
    assert err.kind == "unknown-token"
    assert err.line == 3
    assert err.message == "score token 'G' must follow a player"
    # a bad score token is reported as such, wherever it stands
    err = _err(HEADER + "G:9 -> A\n")
    assert (err.kind, err.line, err.column) == ("unknown-token", 3, 1)
    assert err.message == "bad score token 'G:9' (use G or G:1..G:4)"
    err = _err(HEADER + "A -> 0 -> G\n")
    assert err.kind == "unknown-token"


def test_empty_token():
    err = _err(HEADER + "A -> -> B\n")
    assert err.kind == "unknown-token"
    assert err.line == 3
    assert err.column == 6  # where the blank piece ends, at the next "->"
    assert err.message == "empty token"


@pytest.mark.parametrize("text, line, column", [
    (HEADER + "A\t->\tQ\n", 3, 6),  # a tab is one column
    (HEADER.replace("\n", "\r\n") + "A -> B -> Q\r\n", 3, 11),
    (HEADER + "A -> B\n   C -> Q\n", 4, 9),
    (HEADER + "A -> B\n\t  C->\t Q \n", 4, 9),
])
def test_error_columns_count_characters_of_the_raw_line(text, line, column):
    err = _err(text)
    assert (err.kind, err.line, err.column) == ("undeclared-player", line, column)


def test_strange_token():
    err = _err(HEADER + "A -> B?!\n")
    assert err.kind == "unknown-token"


def test_missing_team_headers():
    err = _err("A -> B\n")
    assert err.kind == "malformed-header"
    err = _err("#team OnlyOne A B\nA -> B\n")
    assert err.kind == "malformed-header"


def test_three_team_headers_rejected():
    err = _err(HEADER + "#team Greens X Y\n")
    assert err.kind == "malformed-header"
    assert err.line == 3


def test_duplicate_and_reserved_player_ids():
    err = _err("#team Reds A A\n#team Blues D E\n")
    assert err.kind == "malformed-header"
    for bad in ("G", "0", "G:2", "G:x", "G:"):
        err = _err(f"#team Reds A {bad}\n#team Blues D E\n")
        assert err.kind == "malformed-header"


def test_player_id_containing_the_separator_rejected():
    # no sequence line could name it: "A->B -> C" splits into A, B and C
    err = _err("#team Reds A->B C\n#team Blues D E\n")
    assert (err.kind, err.line, err.column) == ("malformed-header", 1, 1)
    assert "'A->B'" in err.message


@pytest.mark.parametrize("pid, sequence", [
    ("#!a", "#!a -> B -> G"), ("#x", "#x -> B"), ("{a", "{a -> B -> G"),
])
def test_player_id_starting_with_a_hash_rejected(pid, sequence):
    # a sequence line naming it would read as a comment or a directive; one
    # starting with '{' would, first in the document, read as JSON
    err = _err(f"#team Reds {pid} B\n#team Blues D E\n{sequence}\n")
    assert (err.kind, err.line, err.column) == ("malformed-header", 1, 1)
    assert f"{pid!r}" in err.message


# ids as a #team line splits them: no whitespace, no line break
_ids = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs")), min_size=1)


@settings(max_examples=200, deadline=None)
@given(pid=_ids | _ids.map("{".__add__))
def test_auto_detection_reads_a_playscript_whose_first_line_names_any_valid_id(pid):
    doc = f"{pid} -> B -> G\n#team Reds {pid} B\n#team Blues D E\n"
    try:
        expected = parse_playscript(doc)
    except PlayscriptError as err:  # the #team line refuses pid
        assert err.kind == "malformed-header"
        return
    assert parse_game_text(doc) == expected


def test_team_header_needs_players():
    err = _err("#team Reds\n#team Blues D E\n")
    assert err.kind == "malformed-header"


def test_unknown_directive():
    err = _err("#roster Reds A B\n" + HEADER)
    assert err.kind == "malformed-header"
    assert err.line == 1


def test_undeclared_starter():
    err = _err(HEADER + "#starters A Q\n")
    assert err.kind == "undeclared-player"
    assert (err.line, err.column) == (3, 1)
    err = _err(HEADER + "A -> B\n  #starters B\n #starters A Q\n")
    assert (err.line, err.column) == (5, 2)


def test_parse_failure_returns_no_partial_log():
    # Error on a late line means no GameLog at all.
    with pytest.raises(PlayscriptError):
        parse_playscript(HEADER + "A -> B\nA -> Q\n")
