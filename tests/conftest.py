"""Shared fixtures and hypothesis strategies for the test suite.

Also hosts the suite-wide watchdog: no test may hang on a dead pool.
When the ``pytest-timeout`` plugin is installed it takes over (the
``timeout`` marker has the same shape); otherwise a SIGALRM-based
fallback enforces a per-test wall-clock budget (``REPRO_TEST_TIMEOUT``
seconds, default 600) so a regression in the supervised parallel engine
fails fast instead of wedging CI.
"""

import os
import signal
import threading

import pytest
from hypothesis import strategies as st

from repro.core.problem import Action, TTProblem

_DEFAULT_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "600"))

if os.environ.get("REPRO_TEST_MP_DEBUG"):
    # Surface multiprocessing's own lifecycle narration (fork, sentinel,
    # terminate, join) — invaluable when a pool teardown misbehaves.
    from multiprocessing import util as _mputil

    _mputil.log_to_stderr(5)


def _marker_timeout(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker and marker.args:
        return float(marker.args[0])
    return _DEFAULT_TEST_TIMEOUT


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    use_fallback = (
        not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_fallback:
        return (yield)
    seconds = _marker_timeout(item)

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded {seconds:g}s watchdog (hung pool / lost barrier?)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def tt_problems(draw, min_k=1, max_k=5, max_actions=6, integral=False):
    """Random *adequate* TT problems.

    ``integral=True`` restricts costs/weights to small integers so that
    fixed-point encodings on the bit-serial machine are exact.
    """
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    full = (1 << k) - 1
    if integral:
        weight = st.integers(min_value=1, max_value=8).map(float)
        cost = st.integers(min_value=0, max_value=8).map(float)
    else:
        weight = st.floats(min_value=0.25, max_value=8.0, allow_nan=False)
        cost = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
    weights = draw(st.lists(weight, min_size=k, max_size=k))

    n_extra = draw(st.integers(min_value=0, max_value=max_actions))
    actions = []
    for _ in range(n_extra):
        subset = draw(st.integers(min_value=1, max_value=full))
        is_test = draw(st.booleans())
        c = draw(cost)
        if is_test and (subset == full or subset == 0):
            is_test = False
        actions.append(
            Action.test(subset, c) if is_test else Action.treatment(subset, c)
        )
    # Guarantee adequacy with a covering treatment.
    actions.append(Action.treatment(full, draw(cost), name="cover"))
    return TTProblem.build(weights, actions)


@pytest.fixture
def tiny_problem():
    """The worked 3-object example used across the suite."""
    return TTProblem.build(
        weights=[3.0, 1.0, 2.0],
        actions=[
            Action.test({0, 1}, cost=1.0, name="swab"),
            Action.treatment({0}, cost=4.0, name="drugA"),
            Action.treatment({1, 2}, cost=5.0, name="drugB"),
        ],
        name="tiny",
    )
