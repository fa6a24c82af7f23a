"""Moving objects: the MOFT, trajectories and trajectory operations."""

from repro.mo.moft import (
    MOFT,
    ObjectSet,
    instants_member_mask,
    sorted_instants,
)
from repro.mo.trajectory import (
    FunctionalTrajectory,
    LinearInterpolationTrajectory,
    Trajectory,
    TrajectorySample,
)
from repro.mo.operations import (
    distance_at,
    ever_within_distance,
    first_entry_time,
    intervals_inside,
    intervals_within_distance,
    minimum_distance,
    passes_through,
    sample_instants_inside,
    stays_within,
    time_inside,
    time_within_distance,
)
from repro.mo.beads import Bead, Ellipse, Lifeline
from repro.mo.movingregion import MovingRegion
from repro.mo.io import from_csv_text, read_csv, to_csv_text, write_csv
from repro.mo.flow import FlowGrid, flow_grid_for_moft
from repro.mo.similarity import (
    discrete_frechet,
    hausdorff,
    most_similar_pair,
    sample_frechet,
    sample_hausdorff,
    similarity_matrix,
)

__all__ = [
    "MovingRegion",
    "FlowGrid",
    "flow_grid_for_moft",
    "discrete_frechet",
    "hausdorff",
    "most_similar_pair",
    "sample_frechet",
    "sample_hausdorff",
    "similarity_matrix",
    "from_csv_text",
    "read_csv",
    "to_csv_text",
    "write_csv",
    "MOFT",
    "ObjectSet",
    "instants_member_mask",
    "sorted_instants",
    "FunctionalTrajectory",
    "LinearInterpolationTrajectory",
    "Trajectory",
    "TrajectorySample",
    "distance_at",
    "ever_within_distance",
    "first_entry_time",
    "intervals_inside",
    "intervals_within_distance",
    "minimum_distance",
    "passes_through",
    "sample_instants_inside",
    "stays_within",
    "time_inside",
    "time_within_distance",
    "Bead",
    "Ellipse",
    "Lifeline",
]
