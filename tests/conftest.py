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

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.geometry import kernels
from repro.geometry.kernels import PolygonPass, set_kernel_backend
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

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


# -- shared helpers ------------------------------------------------------------

def finest_labels(passes: PolygonPass):
    """``passes``' decided-cell grid, built now whatever the call size
    or backend (the one grid, the finest; ``labels_for`` builds it at
    the first call over ``_LABEL_MIN_POINTS`` points): how a test drives
    a tiny table through the decided branch, even with ``labels_for``
    patched."""
    if passes.labels is None:
        passes.labels = kernels._label_grid(
            passes.edges, kernels._label_geometry(passes.edges)
        )
    return passes.labels


def segments_near(batch, box) -> np.ndarray:
    """Indices of the segments of ``batch`` whose box meets ``box``: the
    brute-force box test of one geometry, the reference the broad phase
    is held to."""
    minx, miny, maxx, maxy = batch.boxes()
    return np.flatnonzero(~(
        (minx > box.max_x) | (maxx < box.min_x)
        | (miny > box.max_y) | (maxy < box.min_y)
    ))


def jittered_tiling(k: int = 3, seed: int = 7, side: float = 10.0):
    """A ``k x k`` tiling of ``[0, k side]^2`` whose polygons are not
    their boxes: every vertex strictly inside the square, and a midpoint
    on each edge, moves by up to an eighth side (a quarter of the
    vertex spacing, so every tile stays simple), and neighbours share
    each jittered vertex exactly, so the tiles still cover the square
    with no gap or overlap.  Ids ``"t<col>_<row>"``."""
    rng = np.random.default_rng(seed)
    n = 2 * k + 1  # corners and edge midpoints, per axis
    gx, gy = np.meshgrid(
        np.arange(n) * side / 2, np.arange(n) * side / 2, indexing="ij"
    )
    inner = (slice(1, n - 1), slice(1, n - 1))
    gx[inner] += rng.uniform(-side / 8, side / 8, (n - 2, n - 2))
    gy[inner] += rng.uniform(-side / 8, side / 8, (n - 2, n - 2))
    # A midpoint on the square's border slides along it only.
    for edge in (0, n - 1):
        gy[edge, 1:-1:2] += rng.uniform(-side / 8, side / 8, k)
        gx[1:-1:2, edge] += rng.uniform(-side / 8, side / 8, k)
    ring = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1))
    return {
        f"t{c}_{r}": Polygon([
            Point(float(gx[2 * c + i, 2 * r + j]), float(gy[2 * c + i, 2 * r + j]))
            for i, j in ring
        ])
        for c in range(k)
        for r in range(k)
    }


@pytest.fixture(scope="session")
def jittered_tiles():
    """:func:`jittered_tiling`'s default ``3 x 3`` tiling."""
    return jittered_tiling()
