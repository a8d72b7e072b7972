"""A pytest plugin for the test runs of ``mutation_sweep.py``: a Hypothesis
profile with no shrink phase, so a property test that a mutant breaks
fails at its first failing example instead of shrinking it first.

The sweep loads it with ``-p mutation_profile``, so it is imported before
any test module, and the ``@settings`` of those modules inherit its phases.
"""

from hypothesis import Phase, settings

settings.register_profile("mutation-sweep", phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutation-sweep")
