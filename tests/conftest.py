"""Hypothesis profiles for the suite.

The default profile, "deterministic", derives every example from the test
itself and keeps no example database, so two runs of the suite test the
same inputs.  It does not shrink a failing example: a fault that fails
every example (a wrong `reduce_q2`, say) then fails the test at its first
example instead of running the shrinker for minutes.  The "random" profile
draws fresh examples on each run and shrinks what fails:

    pytest --hypothesis-profile=random
"""

from hypothesis import Phase, settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.register_profile("random", deadline=None)
settings.load_profile("deterministic")
