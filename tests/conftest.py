import multiprocessing.process
import os

import pytest

from permshape import oracle


@pytest.fixture
def fan_outs(monkeypatch):
    """
    Record (start method, processes) for every fan-out that starts worker
    processes, the caller counted among the processes, with the host
    reporting 2 CPUs so that a 2-worker run fans out on any machine.  A
    fan-out joins its children before it returns, so one fan-out is a run
    of process starts with no join between them.
    """
    records = []
    joined = [True]  # whether the next start opens a new fan-out
    real_start = multiprocessing.process.BaseProcess.start
    real_join = multiprocessing.process.BaseProcess.join

    def recording_start(self):
        if joined[0]:
            records.append((self._start_method, 1))
            joined[0] = False
        method, processes = records[-1]
        records[-1] = (method, processes + 1)
        return real_start(self)

    def recording_join(self, *args, **kwargs):
        joined[0] = True
        return real_join(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "join", recording_join)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return records


@pytest.fixture
def no_fan_out(monkeypatch):
    """Fail the test if anything starts a worker process."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


@pytest.fixture
def split_any_size(monkeypatch):
    """Let :func:`permshape.oracle.walk` split a stream of any size."""
    monkeypatch.setattr(oracle, "_FAN_OUT_MIN_TOTAL", 0)
