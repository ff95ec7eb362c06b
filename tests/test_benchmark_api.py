"""The benchmark's view of rfvlc: every name it imports exists, its set-up
probe runs, and its independent PPP oracle agrees with
metrics.prp_rf_closed_form."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rfvlc.cli
from rfvlc import ScenarioConfig, prp_rf_closed_form

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def _rfvlc_imports():
    """(file, module, name) for every `from rfvlc... import name` in benchmarks/."""
    out = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "rfvlc"):
                out.extend((path.name, node.module, alias.name) for alias in node.names)
    return out


def _load_oracle():
    spec = importlib.util.spec_from_file_location("benchmark_oracle",
                                                  BENCHMARKS / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_imports_something_from_rfvlc():
    assert {file for file, _, _ in _rfvlc_imports()} >= {"bench.py", "oracle.py"}


@pytest.mark.parametrize("file, module, name", _rfvlc_imports(),
                         ids=lambda v: str(v))
def test_benchmark_import_resolves(file, module, name):
    assert hasattr(importlib.import_module(module), name), f"{file}: {module}.{name}"


def _setup_probe():
    """The source that bench.py's measure_setup runs in a fresh interpreter."""
    tree = ast.parse((BENCHMARKS / "bench.py").read_text(encoding="utf-8"))
    setup, = (node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "measure_setup")
    probe, = (node.value.value for node in ast.walk(setup)
              if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "probe")
    return probe


@pytest.mark.parametrize("text, code", [("seed = 1\ntrials = 4096\n", 0),
                                        ("rho_access = 1.0\n", 0),
                                        ("rho_access = 2.0\n", 1)],
                         ids=["default", "dense", "invalid"])
def test_benchmark_setup_probe_runs(tmp_path, text, code):
    # measure_setup records a failed probe as a failed set-up check on
    # every workload: it must pass on the workloads' configs, and fail
    # on one that does not validate
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(text, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _setup_probe(), str(cfg)], cwd=ROOT,
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == code, proc.stderr.decode(errors="replace")[-300:]


def test_cli_keeps_the_names_the_benchmark_hooks():
    # bench.py calls rfvlc.cli.main, and its tracer wraps main, parse_config
    # and run_sweep where the CLI looks them up: in the rfvlc.cli namespace
    assert callable(rfvlc.cli.main)
    assert rfvlc.cli.parse_config is rfvlc.config.parse_config
    assert rfvlc.cli.run_sweep is rfvlc.engine.run_sweep


def test_engine_has_no_chunk_stats_job():
    # bench.py's install_tracing wraps any engine._chunk_stats_job and tallies
    # its argument as job[4] - job[3], a (distance, chunk) job tuple the engine
    # no longer builds: a function of that name would crash every traced run
    assert not hasattr(rfvlc.engine, "_chunk_stats_job")


@pytest.mark.parametrize("distance", [10.0, 25.0, 50.0, 100.0])
def test_benchmark_oracle_matches_closed_form(distance):
    # lambda * rho = 1e-2, the dense_interference workload's density
    config = dataclasses.replace(ScenarioConfig(), rho_access=1.0, distance_r=distance)
    assert _load_oracle().prp_rf_closed_form(config) == pytest.approx(
        prp_rf_closed_form(config), rel=1e-9)
