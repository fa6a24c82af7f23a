"""Suite-wide pytest/hypothesis configuration.

Registers hypothesis profiles: ``dev`` (the default: derandomized, so
tier-1 draws the same examples on every checkout and its outcome does
not depend on a git-ignored ``.hypothesis/`` example database) and
``ci`` (randomized, deeper search for the nightly differential job,
which runs all of ``tests/`` — select with
``pytest --hypothesis-profile=ci``).

Adds the test-only ``--kernel-backend {numpy,scalar}`` option (default
``numpy``): every test starts under that clip-kernel backend (a test
that picks its own still does).  The nightly job runs the batched-scan
differentials a second time under ``scalar``, which classifies nothing
in batch and decides no grid cell.
"""

import pytest
from hypothesis import HealthCheck, settings

from repro.geometry.kernels import set_kernel_backend

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


def pytest_addoption(parser):
    parser.addoption(
        "--kernel-backend",
        choices=("numpy", "scalar"),
        default="numpy",
        help="clip-kernel backend every test starts under",
    )


@pytest.fixture(autouse=True)
def _kernel_backend(request):
    set_kernel_backend(request.config.getoption("--kernel-backend"))
