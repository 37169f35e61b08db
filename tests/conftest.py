import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def deadline():
    """``with deadline(s):`` fails the test once its block has run s whole
    seconds (SIGALRM), so that a hang cannot stall the suite."""

    @contextmanager
    def guard(seconds: int):
        def expire(signum, frame):
            pytest.fail(f"block ran past its {seconds} s deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return guard
