"""Test-wide settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each property from a hash of the test itself, so every run
# checks the same examples; per-test settings still choose how many
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
