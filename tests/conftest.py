import multiprocessing.context
import os

import pytest


@pytest.fixture
def pool_requests(monkeypatch):
    """
    Record (start method, processes) for every pool opened, with the host
    reporting 2 CPUs so that a 2-worker run fans out on any machine.
    """
    requests = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def recording_pool(self, processes=None, *args, **kwargs):
        requests.append((self.get_start_method(), processes))
        return real_pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", recording_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return requests


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything opens a process pool."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", refuse)
