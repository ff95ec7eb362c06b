"""scripts/split_breakeven.py: its table, its forced split and its row check."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "split_breakeven.py"


@pytest.fixture
def breakeven(monkeypatch):
    spec = importlib.util.spec_from_file_location("split_breakeven", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec.loader.exec_module(module)
    yield module
    for name in [m for m in sys.modules if m.split(".")[0] == "rfvlc_breakeven"]:
        del sys.modules[name]


def test_one_pair_of_a_shape_the_rule_keeps_in_one_process(breakeven, capsys):
    # real run_sweep calls: equal CSV text on both sides, exit 0, one table row
    assert breakeven.main(["--shapes", "dense_clear_2", "--pairs", "1",
                           "--warmup", "0"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(" | ")
    assert row[:4] == ["| dense_clear_2", "2", "62.8", "1"]
    # one pair: its winner won every pair, unless the two took equal time
    assert (row[-2], row[-1]) in (("1 / 0", "1 |"), ("0 / 1", "2 |"), ("0 / 0", "tie |"))


def test_the_two_worker_side_splits_and_restores_the_cap(breakeven, monkeypatch, tmp_path):
    package = breakeven.load(str(ROOT), "rfvlc_breakeven")
    engine = package.engine
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    started = []
    start_helper = engine._start_helper
    monkeypatch.setattr(engine, "_start_helper",
                        lambda share: started.append(share) or start_helper(share))
    argv, lines = breakeven.SHAPES["dense_clear_2"]
    call = breakeven.cli_call(package, [*argv, "--trials", "200", "--workers", "2"],
                              ["seed = 1", *lines], tmp_path / "shape.cfg")
    split_work = engine._SPLIT_WORK
    assert engine.sweep_workers(*call[:2], 2) == 1
    breakeven.split_timed(package, call, 1)
    assert started == []
    breakeven.split_timed(package, call, 2)
    assert len(started) == 1 and engine._SPLIT_WORK == split_work


def test_rows_that_differ_fail_the_shape(breakeven, monkeypatch):
    monkeypatch.setattr(breakeven, "split_timed",
                        lambda package, call, workers: (1.0, f"csv {workers}\n"))
    with pytest.raises(ValueError, match="side 2 rows differ in pair 0"):
        breakeven.measure(None, None, 2, 0)
    # equal CSV text: each worker count's seconds over the timed pairs
    monkeypatch.setattr(breakeven, "split_timed",
                        lambda package, call, workers: (workers / 10, "csv\n"))
    assert breakeven.measure(None, None, 3, 1) == {1: [0.1] * 3, 2: [0.2] * 3}


@pytest.mark.parametrize("won_1, won_2, ties, faster", [
    (10, 0, 0, "1"), (9, 1, 0, "1"), (8, 2, 0, "tie"), (1, 9, 0, "2"), (0, 18, 2, "2"),
    (0, 17, 3, "tie"), (5, 5, 0, "tie"), (0, 0, 4, "tie"), (27, 3, 0, "1"), (26, 4, 0, "tie"),
], ids=["all", "9_of_10", "8_of_10", "2_wins", "ties_count_against", "too_many_ties",
        "even", "all_equal", "27_of_30", "26_of_30"])
def test_a_side_is_faster_only_where_it_wins_9_in_10_pairs(
        breakeven, won_1, won_2, ties, faster):
    # a pair of equal times is won by neither side
    one = [1.0] * won_1 + [2.0] * won_2 + [1.5] * ties
    two = [2.0] * won_1 + [1.0] * won_2 + [1.5] * ties
    assert breakeven.verdict({1: one, 2: two}) == (won_1, won_2, faster)
