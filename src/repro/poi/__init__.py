"""Places of interest and stop/move trajectory semantics.

The follow-up paper ("Aggregation Languages for Moving Object and Places
of Interest Data", see PAPERS.md) extends the GIS dimension model with
*places of interest* — point features with an influence radius — and a
stop/move view of trajectories: a moving object alternates between
*stops* (dwelling inside a POI disc for at least a minimum duration) and
*moves* (everything in between).  This package provides:

* :func:`segment_stops_moves` — exact stop/move segmentation of a
  linearly-interpolated trajectory against a set of POI discs;
* :class:`PoiVisitStore` — summable per-(POI, granule) visit cells
  (visit counts, exact visitor sets, clipped dwell) with incremental
  maintenance, shard merge and spatial/temporal roll-up.
"""

from repro.poi.segmentation import Episode, segment_stops_moves
from repro.poi.store import PoiVisitStore

__all__ = [
    "Episode",
    "PoiVisitStore",
    "segment_stops_moves",
]
