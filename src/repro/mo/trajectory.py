"""Trajectories and trajectory samples — Definitions 5 and 6 of the paper.

* A **trajectory** (Definition 5) is the graph of a mapping
  ``t ↦ (βx(t), βy(t))`` over a time interval ``I``; for finite
  representability the paper assumes βx, βy continuous semi-algebraic.
* A **trajectory sample** (Definition 6) is a finite, strictly
  time-ordered list ``⟨(t_0, x_0, y_0), …, (t_N, x_N, y_N)⟩``.
* The **linear-interpolation trajectory** ``LIT(S)`` reconstructs a unique
  trajectory from a sample by running at constant lowest speed between
  consecutive samples.
* A trajectory over ``[t_0, t_N]`` whose endpoints coincide is **closed**.
"""

from __future__ import annotations

import abc
import bisect
import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrajectoryError
from repro.geometry.point import BoundingBox, Point
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment


class TrajectorySample:
    """A finite, strictly time-ordered list of time–space points."""

    def __init__(self, points: Iterable[Tuple[float, float, float]]) -> None:
        pts = [(float(t), float(x), float(y)) for t, x, y in points]
        if not pts:
            raise TrajectoryError("a trajectory sample needs at least one point")
        for (t0, _, _), (t1, _, _) in zip(pts, pts[1:]):
            if not t0 < t1:
                raise TrajectoryError(
                    f"sample instants must be strictly increasing; got "
                    f"{t0} then {t1}"
                )
        self._points = pts

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> Tuple[float, float, float]:
        return self._points[index]

    def piece_arrays(self) -> Tuple[np.ndarray, ...]:
        """The interpolation pieces as ``(t0, t1, x0, y0, x1, y1)`` arrays.

        Piece ``i`` runs from sample ``i`` to sample ``i + 1`` (none for
        a single-sample trajectory) — the array view the batch kernels
        take, the single-trajectory sibling of
        :meth:`repro.mo.moft.MOFT.segments`.
        """
        t, x, y = np.array(self._points, dtype=np.float64).reshape(-1, 3).T
        return t[:-1], t[1:], x[:-1], y[:-1], x[1:], y[1:]

    @property
    def times(self) -> List[float]:
        """The sampling instants, in order."""
        return [t for t, _, _ in self._points]

    @property
    def positions(self) -> List[Point]:
        """The sampled positions, in time order."""
        return [Point(x, y) for _, x, y in self._points]

    @property
    def start_time(self) -> float:
        """First sampling instant."""
        return self._points[0][0]

    @property
    def end_time(self) -> float:
        """Last sampling instant."""
        return self._points[-1][0]

    @property
    def duration(self) -> float:
        """``t_N - t_0``."""
        return self.end_time - self.start_time

    @property
    def is_closed(self) -> bool:
        """True when the first and last positions coincide."""
        _, x0, y0 = self._points[0]
        _, xn, yn = self._points[-1]
        return x0 == xn and y0 == yn

    def bbox(self) -> BoundingBox:
        """Bounding box of the sampled positions."""
        return BoundingBox.from_points(self.positions)

    def restricted(self, t_min: float, t_max: float) -> "TrajectorySample":
        """Return the sub-sample with instants in ``[t_min, t_max]``."""
        kept = [p for p in self._points if t_min <= p[0] <= t_max]
        if not kept:
            raise TrajectoryError(
                f"no sample instants in [{t_min}, {t_max}]"
            )
        return TrajectorySample(kept)

    def __repr__(self) -> str:
        return (
            f"TrajectorySample({len(self)} points over "
            f"[{self.start_time}, {self.end_time}])"
        )


class Trajectory(abc.ABC):
    """Abstract trajectory: the graph of ``t ↦ (βx(t), βy(t))`` on ``I``."""

    @property
    @abc.abstractmethod
    def time_domain(self) -> Tuple[float, float]:
        """The interval ``I = [t_min, t_max]``."""

    @abc.abstractmethod
    def position(self, t: float) -> Point:
        """The position ``(βx(t), βy(t))`` at an instant of the domain."""

    def covers(self, t: float) -> bool:
        """True when ``t`` lies in the time domain."""
        lo, hi = self.time_domain
        return lo <= t <= hi

    def sampled(self, times: Sequence[float]) -> TrajectorySample:
        """Observe the trajectory at the given instants.

        Instants outside the domain raise; this models the sampling process
        that produces MOFT tuples.
        """
        points = []
        for t in times:
            if not self.covers(t):
                raise TrajectoryError(
                    f"instant {t} outside time domain {self.time_domain}"
                )
            p = self.position(t)
            points.append((t, float(p.x), float(p.y)))
        return TrajectorySample(points)

    def image_polyline(self, num_points: int = 64) -> Polyline:
        """Approximate the image of the trajectory by a polyline."""
        if num_points < 2:
            raise TrajectoryError("image needs at least two points")
        lo, hi = self.time_domain
        if hi == lo:
            raise TrajectoryError("degenerate time domain")
        return Polyline(
            [
                self.position(lo + (hi - lo) * i / (num_points - 1))
                for i in range(num_points)
            ]
        )


class LinearInterpolationTrajectory(Trajectory):
    """``LIT(S)``: constant lowest speed between consecutive samples.

    The central reconstruction model of the paper (and of [3]): between
    ``(t_i, p_i)`` and ``(t_{i+1}, p_{i+1})`` the object moves along the
    straight segment at constant speed.
    """

    def __init__(self, sample: TrajectorySample) -> None:
        if len(sample) < 2:
            raise TrajectoryError(
                "linear interpolation needs at least two sample points"
            )
        self.sample = sample
        self._times = sample.times

    @property
    def time_domain(self) -> Tuple[float, float]:
        return (self.sample.start_time, self.sample.end_time)

    def position(self, t: float) -> Point:
        if not self.covers(t):
            raise TrajectoryError(
                f"instant {t} outside time domain {self.time_domain}"
            )
        # Find the piece [t_i, t_{i+1}] containing t.
        i = bisect.bisect_right(self._times, t) - 1
        if i >= len(self._times) - 1:
            i = len(self._times) - 2
        t0, x0, y0 = self.sample[i]
        t1, x1, y1 = self.sample[i + 1]
        # The paper's formula: x = ((t1-t)x0 + (t-t0)x1) / (t1-t0).
        w = (t - t0) / (t1 - t0)
        return Point(x0 + w * (x1 - x0), y0 + w * (y1 - y0))

    def pieces(self) -> List[Tuple[float, float, Segment]]:
        """Return the interpolation pieces as ``(t_i, t_{i+1}, segment)``.

        The segment parameter ``s ∈ [0, 1]`` corresponds affinely to time:
        ``t = t_i + s (t_{i+1} - t_i)``.  Region entry/exit *times* follow
        directly from polygon clip parameters — the workhorse of the Type-7
        (trajectory) queries.
        """
        result = []
        for (t0, x0, y0), (t1, x1, y1) in zip(self.sample, list(self.sample)[1:]):
            result.append((t0, t1, Segment(Point(x0, y0), Point(x1, y1))))
        return result

    @property
    def length(self) -> float:
        """Total length travelled (sum of piece lengths)."""
        return sum(seg.length for _, _, seg in self.pieces())

    @property
    def is_closed(self) -> bool:
        """True when the trajectory starts and ends at the same point."""
        return self.sample.is_closed

    def speed_on_piece(self, index: int) -> float:
        """Constant speed on the ``index``-th interpolation piece."""
        pieces = self.pieces()
        try:
            t0, t1, seg = pieces[index]
        except IndexError:
            raise TrajectoryError(
                f"piece index {index} out of range (have {len(pieces)})"
            ) from None
        return seg.length / (t1 - t0)

    def speed_at(self, t: float) -> float:
        """Speed at an instant (right-continuous at sample instants)."""
        if not self.covers(t):
            raise TrajectoryError(
                f"instant {t} outside time domain {self.time_domain}"
            )
        i = bisect.bisect_right(self._times, t) - 1
        if i >= len(self._times) - 1:
            i = len(self._times) - 2
        return self.speed_on_piece(i)


class FunctionalTrajectory(Trajectory):
    """A trajectory given by explicit coordinate functions βx, βy.

    Definition 5 allows any continuous (semi-algebraic) mappings; this class
    wraps arbitrary callables.  The paper's example — a quarter circle,
    ``t ↦ ((1-t²)/(1+t²), 2t/(1+t²))`` on ``[0, 1]`` — is provided by
    :meth:`quarter_circle`.
    """

    def __init__(
        self,
        beta_x: Callable[[float], float],
        beta_y: Callable[[float], float],
        domain: Tuple[float, float],
    ) -> None:
        lo, hi = domain
        if not lo < hi:
            raise TrajectoryError(
                f"time domain must be a nondegenerate interval, got {domain}"
            )
        self._beta_x = beta_x
        self._beta_y = beta_y
        self._domain = (float(lo), float(hi))

    @property
    def time_domain(self) -> Tuple[float, float]:
        return self._domain

    def position(self, t: float) -> Point:
        if not self.covers(t):
            raise TrajectoryError(
                f"instant {t} outside time domain {self.time_domain}"
            )
        return Point(self._beta_x(t), self._beta_y(t))

    @classmethod
    def quarter_circle(cls) -> "FunctionalTrajectory":
        """The paper's semi-algebraic example trajectory on ``[0, 1]``."""
        return cls(
            lambda t: (1 - t * t) / (1 + t * t),
            lambda t: 2 * t / (1 + t * t),
            (0.0, 1.0),
        )

    def linearized(self, num_pieces: int = 32) -> LinearInterpolationTrajectory:
        """Approximate by a LIT over a uniform time grid."""
        if num_pieces < 1:
            raise TrajectoryError("need at least one piece")
        lo, hi = self._domain
        times = [lo + (hi - lo) * i / num_pieces for i in range(num_pieces + 1)]
        return LinearInterpolationTrajectory(self.sampled(times))
