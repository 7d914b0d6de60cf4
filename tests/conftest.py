"""A per-test time limit for the suite, on the standard library alone.

A test that runs past ``LIMIT_S`` fails where it stands: a SIGALRM handler
raises inside it, and the run goes on with the next test.  A hang inside one
C call, where no Python handler can run, is ended by faulthandler
``BACKSTOP_S`` later: it prints every thread's traceback to the terminal
and stops the run.  The limit is far above the slowest test, so it never
fires on a healthy tree.
"""

import faulthandler
import os
import signal
import sys

import pytest

LIMIT_S = 120.0
BACKSTOP_S = 60.0

# the terminal's stderr, taken before any test captures file descriptor 2
_terminal = []


def pytest_configure(config):
    _terminal.append(os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    while _terminal:
        os.close(_terminal.pop())


def _expire(signum, frame):
    pytest.fail(f"test ran past the {LIMIT_S:g} s per-test limit (tests/conftest.py)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):  # no interval timers on this platform
        yield
        return
    faulthandler.dump_traceback_later(LIMIT_S + BACKSTOP_S, exit=True, file=_terminal[0])
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        faulthandler.cancel_dump_traceback_later()
