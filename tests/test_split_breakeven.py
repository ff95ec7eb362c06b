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
    # real run_sweep calls: equal rows on both sides, exit 0, one table row
    assert breakeven.main(["--shapes", "dense_clear_2", "--pairs", "1",
                           "--warmup", "0"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(" | ")
    assert row[:4] == ["| dense_clear_2", "2", "62.8", "1"]
    assert row[-1] in ("1 |", "2 |")


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
                        lambda package, call, workers: (1.0, [workers]))
    with pytest.raises(ValueError, match="side 2 rows differ in pair 0"):
        breakeven.measure(None, None, 2, 0)
    # equal rows: each worker count's median over the timed pairs
    monkeypatch.setattr(breakeven, "split_timed",
                        lambda package, call, workers: (workers / 10, ["row"]))
    assert breakeven.measure(None, None, 3, 1) == {1: 0.1, 2: 0.2}
