"""Test-suite configuration.

Property tests run under one derandomized hypothesis profile: every run
draws the same examples, keeps no example database, and has no per-example
deadline (CPU speed on shared machines varies too much for one).  A whole
test still has one: past ``TEST_DEADLINE_S`` it fails with TimeoutError, so
a loop that never ends (a scan past the digits that differ, say) fails the
suite instead of stalling it.
"""

import signal

import pytest

#: Seconds of wall time per test; the slowest, the CLI fuzz, takes about 4 s.
TEST_DEADLINE_S = 60

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    settings.register_profile(
        "derandomized", derandomize=True, database=None, deadline=None, max_examples=120
    )
    settings.load_profile("derandomized")


if hasattr(signal, "setitimer"):  # POSIX only

    @pytest.fixture(autouse=True)
    def deadline():
        def expire(signum, frame):
            raise TimeoutError(f"the test ran past {TEST_DEADLINE_S} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
