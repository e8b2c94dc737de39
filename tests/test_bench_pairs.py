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


BOUNDED = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "hits", "unit": "count", "better": "higher", "bound": 0.05}]
CLAIM = {"workload": "aux-checks", "metric": "wall_s"}


def _verdict(parent_walls, change_walls, parent_hits=100, change_hits=100,
             workload="aux-checks"):
    pairs = [(_run(a, parent_hits), _run(b, change_hits))
             for a, b in zip(parent_walls, change_walls)]
    result = bench_pairs.summarize(workload, 107, pairs, BOUNDED)
    return bench_pairs.verdict([result], CLAIM, BOUNDED)


PARENT = [0.100, 0.101, 0.099, 0.102, 0.100, 0.098, 0.101, 0.100, 0.099, 0.100]


def test_verdict_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_iqr():
    # nine wins of ten, a median 15 % lower: the claim holds
    change = [0.085] * 9 + [0.103]
    got = _verdict(PARENT, change)
    (claim,) = got["claim"]
    assert (claim["seed"], claim["won"], claim["pairs"]) == (107, 9, 10)
    assert abs(claim["median_gain"] - 0.015) < 1e-12
    # inclusive quartiles 0.09925 and 0.10075
    assert abs(claim["parent_iqr"] - 0.0015) < 1e-12
    assert claim["holds"] and got["claim_holds"]
    # eight wins of ten fail, however large the gain
    assert not _verdict(PARENT, [0.05] * 8 + [0.2, 0.2])["claim_holds"]
    # ten wins whose median gain is inside the parent's IQR fail
    got = _verdict(PARENT, [p - 0.0005 for p in PARENT])
    assert got["claim"][0]["won"] == 10 and not got["claim_holds"]
    # no run of the claimed workload: nothing holds
    got = _verdict(PARENT, change, workload="fe-corpus")
    assert got["claim"] == [] and not got["claim_holds"]


def test_verdict_bounds_every_end_to_end_median():
    # wall_s (lower is better, bound 0.25): 20 % worse is within, 30 % is not
    got = _verdict([0.1] * 4, [0.12] * 4)
    wall = [b for b in got["bounds"] if b["metric"] == "wall_s"]
    assert len(wall) == 1 and wall[0]["within"] and got["all_within_bound"]
    assert abs(wall[0]["relative"] - 0.2) < 1e-12 and wall[0]["bound"] == 0.25
    assert not _verdict([0.1] * 4, [0.13] * 4)["all_within_bound"]
    # hits (higher is better, bound 0.05): 4 % fewer is within, 6 % is not,
    # and any gain is
    assert _verdict([0.1] * 4, [0.1] * 4, 100, 96)["all_within_bound"]
    got = _verdict([0.1] * 4, [0.1] * 4, 100, 94)
    assert [b["metric"] for b in got["bounds"] if not b["within"]] == ["hits"]
    assert _verdict([0.1] * 4, [0.1] * 4, 100, 300)["all_within_bound"]
