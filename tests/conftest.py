"""Shared fixtures."""

import pytest

from rfvlc import engine


@pytest.fixture
def started_helpers(monkeypatch):
    """Record the chunk indices of every sweep helper process started, one
    list per helper."""
    started = []
    start_helper = engine._start_helper

    def recording(config, spec, metric, chunks):
        started.append(list(chunks))
        return start_helper(config, spec, metric, chunks)

    monkeypatch.setattr(engine, "_start_helper", recording)
    return started


@pytest.fixture
def forced_split(monkeypatch, started_helpers):
    """started_helpers, with any sweep let split however small its work (a
    work cap of one trial-equivalent per process); the chunk and CPU caps
    still hold."""
    monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
    return started_helpers
