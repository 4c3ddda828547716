import threading

import pytest


def _finishes_with(call, timeout_s=60.0):
    """Run call on a watchdog thread and return what it raised (None if
    nothing); fail if it is still running after timeout_s."""
    outcome = []

    def target():
        try:
            call()
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    watchdog = threading.Thread(target=target, daemon=True)
    watchdog.start()
    watchdog.join(timeout_s)
    assert not watchdog.is_alive(), "the call did not return"
    return outcome[0]


@pytest.fixture
def finishes_with():
    """_finishes_with, for tests of calls that must not hang."""
    return _finishes_with
