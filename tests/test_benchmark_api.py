"""The benchmark's view of rfvlc: every name it imports exists, and its
independent PPP oracle agrees with metrics.prp_rf_closed_form."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import rfvlc.cli
from rfvlc import ScenarioConfig, SweepSpec, prp_rf_closed_form, run_sweep
from rfvlc.engine import _CHUNK

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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


def test_cli_keeps_the_names_the_benchmark_hooks():
    # bench.py calls rfvlc.cli.main, and its tracer wraps main, parse_config
    # and run_sweep where the CLI looks them up: in the rfvlc.cli namespace
    assert callable(rfvlc.cli.main)
    assert rfvlc.cli.parse_config is rfvlc.config.parse_config
    assert rfvlc.cli.run_sweep is rfvlc.engine.run_sweep


def test_chunk_jobs_carry_what_the_tracer_tallies(monkeypatch):
    # bench.py's install_tracing wraps engine._chunk_stats_job and tallies
    # each job's trials as job[4] - job[3]: the chunk's start and end
    job = rfvlc.engine._chunk_stats_job
    assert callable(job)
    jobs = []
    monkeypatch.setattr(rfvlc.engine, "_chunk_stats_job",
                        lambda args: jobs.append(args) or job(args))
    spec = SweepSpec(distances=(50.0, 150.0), weathers=("clear",), modes=("la",),
                     n_trials=_CHUNK + 300, master_seed=1)
    run_sweep(ScenarioConfig(), spec, "prp")
    assert [(j[2], j[3], j[4]) for j in jobs] == [
        (point, start, min(start + _CHUNK, spec.n_trials))
        for point in range(2) for start in (0, _CHUNK)]
    assert sum(j[4] - j[3] for j in jobs) == len(spec.distances) * spec.n_trials


@pytest.mark.parametrize("distance", [10.0, 25.0, 50.0, 100.0])
def test_benchmark_oracle_matches_closed_form(distance):
    # lambda * rho = 1e-2, the dense_interference workload's density
    config = dataclasses.replace(ScenarioConfig(), rho_access=1.0, distance_r=distance)
    assert _load_oracle().prp_rf_closed_form(config) == pytest.approx(
        prp_rf_closed_form(config), rel=1e-9)
