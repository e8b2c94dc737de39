"""tools/bench_pairs.py summarizes alternated benchmark pairs; its summary is
checked here on made-up runs, without starting a benchmark."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower"},
              {"name": "hits", "unit": "count", "better": "higher"}]


def _run(wall, hits, failed=0):
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "hits": {"value": hits, "unit": "count"}}}


def test_summarize_keeps_runs_quartiles_and_pairs_won():
    pairs = [(_run(0.30, 5), _run(0.20, 7)),
             (_run(0.40, 5, failed=1), _run(0.25, 5)),
             (_run(0.20, 6), _run(0.35, 4, failed=2)),
             (_run(0.50, 5), _run(0.15, 9))]
    got = bench_pairs.summarize("hankel-corpus", 43, pairs, END_TO_END)
    assert got["workload"] == "hankel-corpus" and got["seed"] == 43
    assert got["pairs"] == 4
    assert got["failed"] == {"parent": 1, "change": 2}
    wall = got["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"]["runs"] == [0.30, 0.40, 0.20, 0.50]
    assert wall["change"]["runs"] == [0.20, 0.25, 0.35, 0.15]
    # inclusive quartiles of 0.20, 0.30, 0.40, 0.50
    assert abs(wall["parent"]["q1"] - 0.275) < 1e-12
    assert abs(wall["parent"]["median"] - 0.35) < 1e-12
    assert abs(wall["parent"]["q3"] - 0.425) < 1e-12
    assert (wall["parent"]["won"], wall["change"]["won"]) == (1, 3)
    # higher is better here, and a tie counts for neither side
    hits = got["metrics"]["hits"]
    assert (hits["parent"]["won"], hits["change"]["won"]) == (1, 2)


def test_summarize_one_pair():
    got = bench_pairs.summarize("aux-checks", 107,
                                [(_run(0.3, 1), _run(0.3, 1))], END_TO_END)
    wall = got["metrics"]["wall_s"]
    for side in ("parent", "change"):
        assert wall[side]["q1"] == wall[side]["median"] == wall[side]["q3"] == 0.3
        assert wall[side]["won"] == 0
