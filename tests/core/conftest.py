"""Core-suite fixtures: shared-memory leak detection.

Every test in ``tests/core`` runs under an autouse fixture that records
each POSIX shared-memory segment the test's own process creates
(``SharedMemory(create=True)``); any of them still present in
``/dev/shm`` when the test ends — including after injected-crash tests,
where workers die without cleanup — fails the test.  Pool workers only
attach to the parent's segments, so the parent's creations are every
segment a solve owns, and a segment some other process creates
meanwhile (a second test session, a benchmark) fails nothing here.
This is the acceptance guard for the leak-proof
:class:`repro.core.supervisor.SharedTables` owner.
"""

import os
from multiprocessing import shared_memory

import pytest

_SHM_DIR = "/dev/shm"


class SegmentRecorder:
    """Names of the segments this process creates while installed."""

    def __init__(self, monkeypatch):
        self.created: list[str] = []
        init = shared_memory.SharedMemory.__init__

        def recording_init(shm, name=None, create=False, size=0, **kwargs):
            init(shm, name, create, size, **kwargs)
            if create:
                self.created.append(shm.name)

        monkeypatch.setattr(shared_memory.SharedMemory, "__init__", recording_init)

    def stranded(self) -> list[str]:
        """Recorded segments that still exist."""
        return [n for n in self.created if os.path.exists(os.path.join(_SHM_DIR, n))]


@pytest.fixture(autouse=True)
def shm_leak_guard(monkeypatch):
    """Fail any test that strands a shared-memory segment it created."""
    recorder = SegmentRecorder(monkeypatch)
    yield recorder
    leaked = recorder.stranded()
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
