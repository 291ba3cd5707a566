"""Test-suite configuration.

Property tests run under one derandomized hypothesis profile: every run
draws the same examples, keeps no example database, and has no per-example
deadline (CPU speed on shared machines varies too much for one).
"""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    settings.register_profile(
        "derandomized", derandomize=True, database=None, deadline=None, max_examples=120
    )
    settings.load_profile("derandomized")
