"""Robust low-level geometric predicates.

The paper assumes coordinates are rational numbers (Section 1.2: "The
elements in the tuples are given by rational numbers").  We therefore make
the core incidence predicates *exact* for rational inputs: every predicate
first evaluates in floating point and, when the result is too close to zero
to be trusted, re-evaluates with :class:`fractions.Fraction` arithmetic.
For inputs that are ints, Fractions, or floats (floats are binary rationals)
this two-stage scheme returns the mathematically exact sign.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Tuple

Coordinate = Tuple[float, float]

#: Relative threshold under which a floating-point determinant is re-evaluated
#: exactly.  The bound follows Shewchuk-style forward error analysis for a
#: 2x2 determinant of differences: ~4 ulps of the magnitude of the terms.
_ORIENT_EPS = 1e-12


def _exact(value: float) -> Fraction:
    """Convert a coordinate to an exact rational.

    Floats convert losslessly (binary floats are rationals); ints and
    Fractions pass through.
    """
    if isinstance(value, Rational):
        return Fraction(value)
    return Fraction(float(value))


def orientation(p: Coordinate, q: Coordinate, r: Coordinate) -> int:
    """Return the orientation of the ordered triple ``(p, q, r)``.

    Returns ``+1`` when the triple turns counter-clockwise, ``-1`` when it
    turns clockwise and ``0`` when the three points are collinear.  The
    result is exact for rational coordinates.
    """
    ax, ay = float(p[0]), float(p[1])
    bx, by = float(q[0]), float(q[1])
    cx, cy = float(r[0]), float(r[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    # Scale against the largest term involved to get a relative bound.
    magnitude = (
        abs((bx - ax) * (cy - ay)) + abs((by - ay) * (cx - ax))
    )
    if abs(det) > _ORIENT_EPS * magnitude:
        return 1 if det > 0 else -1
    # Ambiguous in floating point: fall back to exact rational arithmetic.
    exact_det = (
        (_exact(q[0]) - _exact(p[0])) * (_exact(r[1]) - _exact(p[1]))
        - (_exact(q[1]) - _exact(p[1])) * (_exact(r[0]) - _exact(p[0]))
    )
    if exact_det > 0:
        return 1
    if exact_det < 0:
        return -1
    return 0


def on_segment(p: Coordinate, a: Coordinate, b: Coordinate) -> bool:
    """Return True when point ``p`` lies on the closed segment ``[a, b]``.

    Collinearity is decided exactly; the box test then places ``p`` within
    the segment's axis-aligned extent.
    """
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_properly_intersect(
    a: Coordinate, b: Coordinate, c: Coordinate, d: Coordinate
) -> bool:
    """Return True when open segments ``(a,b)`` and ``(c,d)`` cross.

    A *proper* intersection is a single interior crossing point: endpoints
    touching or collinear overlap do not count.
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def segments_intersect(
    a: Coordinate, b: Coordinate, c: Coordinate, d: Coordinate
) -> bool:
    """Return True when closed segments ``[a,b]`` and ``[c,d]`` share a point.

    Handles all degeneracies: shared endpoints, endpoint-on-interior and
    collinear overlap.
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(c, a, b):
        return True
    if o2 == 0 and on_segment(d, a, b):
        return True
    if o3 == 0 and on_segment(a, c, d):
        return True
    if o4 == 0 and on_segment(b, c, d):
        return True
    return False


def segment_intersection_parameters(
    a: Coordinate, b: Coordinate, c: Coordinate, d: Coordinate
):
    """Solve ``a + s (b - a) = c + u (d - c)`` for the crossing parameters.

    Returns ``(s, u)`` with both in ``[0, 1]`` when the closed segments meet
    in exactly one point, or ``None`` when they are parallel (including
    collinear overlap, which has no unique crossing) or disjoint.  The
    parameters are computed exactly (as :class:`~fractions.Fraction`) when
    the float determinant is untrustworthy.
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])
    dx, dy = float(d[0]), float(d[1])
    rx, ry = bx - ax, by - ay
    qx, qy = dx - cx, dy - cy
    denom = rx * qy - ry * qx
    magnitude = abs(rx * qy) + abs(ry * qx)
    if abs(denom) <= _ORIENT_EPS * magnitude:
        # Parallel or numerically ambiguous: decide exactly.
        ea, eb = (_exact(a[0]), _exact(a[1])), (_exact(b[0]), _exact(b[1]))
        ec, ed = (_exact(c[0]), _exact(c[1])), (_exact(d[0]), _exact(d[1]))
        erx, ery = eb[0] - ea[0], eb[1] - ea[1]
        eqx, eqy = ed[0] - ec[0], ed[1] - ec[1]
        edenom = erx * eqy - ery * eqx
        if edenom == 0:
            return None
        es = ((ec[0] - ea[0]) * eqy - (ec[1] - ea[1]) * eqx) / edenom
        eu = ((ec[0] - ea[0]) * ery - (ec[1] - ea[1]) * erx) / edenom
        if 0 <= es <= 1 and 0 <= eu <= 1:
            return es, eu
        return None
    s = ((cx - ax) * qy - (cy - ay) * qx) / denom
    u = ((cx - ax) * ry - (cy - ay) * rx) / denom
    boundary_eps = 1e-9
    clearly_inside = (
        boundary_eps < s < 1 - boundary_eps and boundary_eps < u < 1 - boundary_eps
    )
    if clearly_inside:
        return s, u
    clearly_outside = (
        s < -boundary_eps or s > 1 + boundary_eps
        or u < -boundary_eps or u > 1 + boundary_eps
    )
    if clearly_outside:
        return None
    # A parameter sits on (or hair-close to) an endpoint: underflow or
    # rounding could flip the verdict, so decide exactly.
    ea, eb = (_exact(a[0]), _exact(a[1])), (_exact(b[0]), _exact(b[1]))
    ec, ed = (_exact(c[0]), _exact(c[1])), (_exact(d[0]), _exact(d[1]))
    erx, ery = eb[0] - ea[0], eb[1] - ea[1]
    eqx, eqy = ed[0] - ec[0], ed[1] - ec[1]
    edenom = erx * eqy - ery * eqx
    if edenom == 0:
        return None
    es = ((ec[0] - ea[0]) * eqy - (ec[1] - ea[1]) * eqx) / edenom
    eu = ((ec[0] - ea[0]) * ery - (ec[1] - ea[1]) * erx) / edenom
    if 0 <= es <= 1 and 0 <= eu <= 1:
        return es, eu
    return None
