"""Golden-output regression: the CLI's outputs must stay byte-identical.

Each case reruns one sweep command and compares every CSV it writes, and
every per-curve .dat file of the --gnuplot cases, with the checked-in copy
under tests/golden/<case>/.  The manifest is not compared: it carries a
timestamp and a config hash.  A deliberate change of outputs comes with a
version bump; regenerate the files then with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys

import pytest

from rfvlc import engine
from rfvlc.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RHO1 = os.path.join(GOLDEN, "rho_access_1.conf")

# 5000 trials: two chunk indices, so the chunk-order reduction is
# covered.  Every case runs on one process and on two (two CPUs are
# reported usable and the work cap is lowered, so that these small sweeps
# split).  One prp case and one dor case also write the gnuplot files,
# which read the same table.
_COMMON = ["--trials", "5000", "--seed", "11"]
CASES = {
    "prp_default": ["prp-sweep", "--distances", "40,120,200", "--gnuplot"] + _COMMON,
    "prp_rho1": ["prp-sweep", "--distances", "40,120,200",
                 "--config", RHO1] + _COMMON,
    "rate_default": ["rate-sweep", "--distances", "50,150,250"] + _COMMON,
    "rate_rho1": ["rate-sweep", "--distances", "50,150,250",
                  "--config", RHO1] + _COMMON,
    "dor_default": ["dor-sweep", "--gnuplot"] + _COMMON,
    "dor_rho1": ["dor-sweep", "--config", RHO1] + _COMMON,
}


def _outputs(directory):
    return sorted(f for f in os.listdir(directory) if f.endswith((".csv", ".dat")))


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, workers, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    out = str(tmp_path / case)
    assert main(CASES[case] + ["--workers", str(workers), "--out", out]) == 0
    expected = os.path.join(GOLDEN, case)
    assert _outputs(out) == _outputs(expected)
    for name in _outputs(expected):
        assert _read_bytes(os.path.join(out, name)) == \
            _read_bytes(os.path.join(expected, name)), f"{case}/{name}"


if __name__ == "__main__":
    for case, argv in CASES.items():
        target = os.path.join(GOLDEN, case)
        if main(argv + ["--out", target]) != 0:
            sys.exit(f"{case}: command failed")
        os.remove(os.path.join(target, "run.manifest"))
