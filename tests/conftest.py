"""Hypothesis profiles for the suite.

The default profile, "deterministic", derives every example from the test
itself and keeps no example database, so two runs of the suite test the
same inputs.  The "random" profile draws fresh examples on each run:

    pytest --hypothesis-profile=random
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.register_profile("random", deadline=None)
settings.load_profile("deterministic")
