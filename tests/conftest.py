"""Hypothesis profiles for the test suite.

`tier1`, loaded by default, derandomizes every property test and keeps no
example database, so two runs of one tree draw the same examples.
`explore` draws fresh random examples on each run:

    python -m pytest -q --hypothesis-profile=explore
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")
