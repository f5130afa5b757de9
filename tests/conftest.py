import signal

import pytest


class DeadlineExceeded(Exception):
    """Not an OSError, so that no handler under test (the CLI maps
    OSError to exit code 2) can mistake it for a rejected request."""


@pytest.fixture()
def deadline():
    """deadline(seconds) makes the test fail with DeadlineExceeded,
    rather than hang, when the code under test loops past `seconds`."""

    def expire(signum, frame):
        raise DeadlineExceeded("no answer before the test's deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
