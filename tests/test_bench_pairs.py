"""tools/bench_pairs.py summarizes alternated benchmark pairs; its summary is
checked here on made-up runs, and its refusal of a tree that is not a git
checkout, without starting a benchmark."""

import importlib.util
import json
import subprocess
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


def _refused(capsys, monkeypatch, parent, change, side):
    started = []
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda *args: started.append(args))
    code = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--run", "aux-checks:107:1",
                             "--claim", "aux-checks:wall_s", "--what", "x",
                             "--out", str(parent / "BENCH_x.json")])
    assert (code, started) == (2, [])
    err = capsys.readouterr().err
    assert err.startswith("--%s: " % side) and "git worktree add" in err


def test_main_refuses_a_plain_directory(tmp_path, capsys, monkeypatch):
    # a `git archive` copy has no HEAD to name as the record's parent
    _refused(capsys, monkeypatch, tmp_path, tmp_path, "parent")


def test_main_refuses_a_copy_inside_another_checkout(tmp_path, capsys,
                                                     monkeypatch):
    # inside another checkout, `git rev-parse HEAD` names that checkout
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)
    git("init", "-q")
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    git("add", "BENCHMARK.json")
    git("commit", "-q", "-m", "one commit")
    copy = tmp_path / "copy"
    copy.mkdir()
    # the checkout itself passes as the parent; its subdirectory is refused
    _refused(capsys, monkeypatch, tmp_path, copy, "change")


def test_verdict_claim_fails_on_more_failed_checks():
    # the same nine wins in ten and 15 % gain as above, but a failed check
    # on the change's side that the parent does not have
    change = [0.085] * 9 + [0.103]
    pairs = [(_run(a, 100), _run(b, 100, failed=int(i == 3)))
             for i, (a, b) in enumerate(zip(PARENT, change))]
    result = bench_pairs.summarize("aux-checks", 107, pairs, BOUNDED)
    got = bench_pairs.verdict([result], CLAIM, BOUNDED)
    (claim,) = got["claim"]
    assert claim["failed"] == {"parent": 0, "change": 1}
    assert claim["won"] == 9 and claim["median_gain"] > claim["parent_iqr"]
    assert not claim["holds"] and not got["claim_holds"]
    # as many failures on each side leave the claim to the timings
    pairs = [(_run(a, 100, failed=1), _run(b, 100, failed=1))
             for a, b in zip(PARENT, change)]
    result = bench_pairs.summarize("aux-checks", 107, pairs, BOUNDED)
    assert bench_pairs.verdict([result], CLAIM, BOUNDED)["claim_holds"]


def test_verdict_bound_unresolved_when_parent_spread_exceeds_it():
    # wall_s bound 0.25 of the parent's median 0.1, i.e. 0.025: the parent's
    # inclusive quartiles 0.0775 and 0.1225 are 0.045 apart
    spread = [0.06, 0.07, 0.08, 0.1, 0.1, 0.12, 0.13, 0.14]
    got = _verdict(spread, spread)
    (wall,) = [b for b in got["bounds"] if b["metric"] == "wall_s"]
    assert wall["within"] and not wall["resolved"]
    assert got["all_within_bound"] and not got["all_resolved"]
    # unless every change run beats every parent run
    got = _verdict(spread, [0.05] * 8)
    (wall,) = [b for b in got["bounds"] if b["metric"] == "wall_s"]
    assert wall["resolved"] and got["all_resolved"]
    # with higher better, every change run must read higher: hits bound 0.05
    # of the parent's median 90, against quartiles 75 and 105
    def hits_resolved(gain):
        pairs = [(_run(0.1, h), _run(0.1, h + gain)) for h in (60, 80, 100, 120)]
        result = bench_pairs.summarize("aux-checks", 107, pairs, BOUNDED)
        (hits,) = [b for b in bench_pairs.verdict([result], CLAIM, BOUNDED)["bounds"]
                   if b["metric"] == "hits"]
        return hits["resolved"]
    assert hits_resolved(70) and not hits_resolved(30)
    # a spread inside the bound resolves it, whichever side is ahead
    assert _verdict(PARENT, [p + 0.002 for p in PARENT])["all_resolved"]


def test_verdict_without_a_claim_keeps_the_bounds():
    pairs = [(_run(a, 100), _run(b, 100)) for a, b in zip([0.1] * 4, [0.13] * 4)]
    result = bench_pairs.summarize("aux-checks", 107, pairs, BOUNDED)
    claimed = bench_pairs.verdict([result], CLAIM, BOUNDED)
    got = bench_pairs.verdict([result], None, BOUNDED)
    assert "claim" not in got and "claim_holds" not in got
    assert {k: v for k, v in claimed.items()
            if k not in ("claim", "claim_holds")} == got
    assert [b["metric"] for b in got["bounds"] if not b["within"]] == ["wall_s"]
    assert not got["all_within_bound"]


def _record(tmp_path, monkeypatch, *claim):
    """The record `main` writes for one made-up aux-checks pair, with the
    given --claim arguments, on a tree whose BENCHMARK.json holds BOUNDED
    and which passes for a checkout."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": BOUNDED}))
    runs = iter([_run(0.10, 100), _run(0.09, 100)])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: next(runs))
    monkeypatch.setattr(bench_pairs, "_not_a_checkout", lambda tree: None)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                             "--run", "aux-checks:107:1", *claim,
                             "--what", "x", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_main_writes_a_claim_only_when_one_is_given(tmp_path, monkeypatch):
    record = _record(tmp_path, monkeypatch)
    assert "claim" not in record
    assert "claim" not in record["verdict"] and "claim_holds" not in record["verdict"]
    assert record["verdict"]["all_within_bound"]
    assert len(record["verdict"]["bounds"]) == len(BOUNDED)
    with_claim = _record(tmp_path, monkeypatch, "--claim", "aux-checks:wall_s")
    assert with_claim["claim"] == {"workload": "aux-checks", "metric": "wall_s",
                                   "seeds": [107]}
    # the change's 0.09 beats the parent's 0.10 beyond a zero spread
    assert with_claim["verdict"]["claim"][0]["won"] == 1
    assert with_claim["verdict"]["claim_holds"] is True
    assert with_claim["verdict"]["bounds"] == record["verdict"]["bounds"]
