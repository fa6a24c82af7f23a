"""Suite-wide pytest/hypothesis configuration.

Registers hypothesis profiles: ``dev`` (the default: derandomized, so
tier-1 draws the same examples on every checkout and its outcome does
not depend on a git-ignored ``.hypothesis/`` example database) and
``ci`` (randomized, deeper search for the nightly differential job,
which runs all of ``tests/`` — select with
``pytest --hypothesis-profile=ci``).
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=False,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.register_profile("dev", derandomize=True)
# The command line's --hypothesis-profile is applied after this file is
# imported, so it still wins.
settings.load_profile("dev")
