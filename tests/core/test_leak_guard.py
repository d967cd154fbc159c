"""The shared-memory leak guard (``tests/core/conftest.py``) watches only
the segments this process creates."""

import os
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm to strand a segment in"
)


def test_own_stranded_segment_is_reported(shm_leak_guard):
    shm = shared_memory.SharedMemory(create=True, size=64)
    shm.close()
    try:
        assert shm_leak_guard.stranded() == [shm.name]
    finally:
        shm.unlink()
    assert shm_leak_guard.stranded() == []


def test_segment_of_another_process_is_not_reported(shm_leak_guard):
    # The child leaves its segment behind on purpose: unregistered from
    # its resource tracker, it outlives the child like another test
    # session's or a benchmark's live segment would.
    code = (
        "from multiprocessing import resource_tracker, shared_memory\n"
        "shm = shared_memory.SharedMemory(create=True, size=64)\n"
        "resource_tracker.unregister(shm._name, 'shared_memory')\n"
        "shm.close()\n"
        "print(shm.name)\n"
    )
    name = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    path = os.path.join("/dev/shm", name)
    try:
        assert os.path.exists(path)
        assert shm_leak_guard.stranded() == []
    finally:
        os.unlink(path)
