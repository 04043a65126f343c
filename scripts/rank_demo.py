"""Rank the bundled 3-on-3 demo game and show the pipeline end to end.

Runs both encodings of the same game (playscript and JSON), checks they
produce identical digraphs, and prints the standings, aggregates and the
exact transition matrix.

Usage: python scripts/rank_demo.py
"""

from pathlib import Path

from playrank import analyze_game, parse_game_text, render_matrix, render_report

SAMPLES = Path(__file__).resolve().parent.parent / "sample_games"


def main() -> None:
    analyses = {}
    for name in ("three_on_three.play", "three_on_three.json"):
        log = parse_game_text((SAMPLES / name).read_text(encoding="utf-8"))
        analyses[name] = analyze_game(log, solver="both")

    play = analyses["three_on_three.play"]
    json_twin = analyses["three_on_three.json"]
    assert (play.digraph.counts == json_twin.digraph.counts).all()
    assert (render_matrix(play.digraph, "row-stochastic")
            == render_matrix(json_twin.digraph, "row-stochastic"))

    print("== standings (JSON twin carries the final score) ==")
    print(render_report(json_twin.report, json_twin.teams, "table",
                        solver_gap=json_twin.solver_gap))
    print("== adjacency counts ==")
    print(render_matrix(play.digraph, "adjacency"))
    print("== transition matrix, column-stochastic, exact ==")
    print(render_matrix(play.digraph, "column-stochastic"))
    print(f"stationary solve: method={play.rank.method}, "
          f"iterations={play.rank.iterations}, residual={play.rank.residual:.2e}")


if __name__ == "__main__":
    main()
