"""Hypothesis profiles: ``--hypothesis-profile=ci`` runs the same examples
every time; without it each run draws new ones."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
