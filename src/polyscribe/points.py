"""Labeled point configurations with exact rational coordinates."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .rationals import format_rational, format_vector, parse_rational, parse_vector


@dataclass(frozen=True)
class SphereRef:
    center: tuple[Fraction, ...]
    radius_squared: Fraction

    def __post_init__(self):
        if self.radius_squared <= 0:
            raise ParseError("radius_squared must be positive")


@dataclass(frozen=True)
class PointConfiguration:
    dimension: int
    points: tuple[tuple[Fraction, ...], ...]
    sphere: SphereRef | None = None
    claimed_faces: tuple[frozenset[int], ...] | None = None
    # (sphere, face-solve kernel) of the last sphere a geometry face test
    # asked about; a test against another sphere object replaces it.
    _kernel: tuple | None = field(default=None, init=False, compare=False,
                                  repr=False)

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.dimension:
                raise ParseError(f"point {p} does not have dimension {self.dimension}")
        if len(set(self.points)) != len(self.points):
            raise ParseError("points must be distinct")
        if self.sphere is not None and len(self.sphere.center) != self.dimension:
            raise ParseError("sphere center dimension mismatch")
        if self.claimed_faces is not None:
            n = len(self.points)
            for f in self.claimed_faces:
                if any(not 0 <= i < n for i in f):
                    raise ParseError(f"claimed face {sorted(f)} has an index out of range")

    @property
    def n_points(self) -> int:
        return len(self.points)


def parse_points_json(text: str) -> PointConfiguration:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict) or "dimension" not in raw or "coordinates" not in raw:
        raise ParseError("point file must contain 'dimension' and 'coordinates'")
    d = raw["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError(f"'dimension' must be a positive integer, got {d!r}")
    if not isinstance(raw["coordinates"], list):
        raise ParseError("'coordinates' must be a list")
    pts = tuple(parse_vector(row) for row in raw["coordinates"])
    sphere = None
    s = raw.get("sphere")
    if s is not None:
        if not isinstance(s, dict) or "center" not in s or "radius_squared" not in s:
            raise ParseError("'sphere' must contain 'center' and 'radius_squared'")
        sphere = SphereRef(parse_vector(s["center"]), parse_rational(s["radius_squared"]))
    claimed = None
    faces = raw.get("faces")
    if faces is not None:
        if not (isinstance(faces, list) and all(
                isinstance(f, list) and all(isinstance(i, int) and not isinstance(i, bool)
                                            for i in f) for f in faces)):
            raise ParseError("'faces' must be a list of lists of point indices")
        claimed = tuple(frozenset(f) for f in faces)
    return PointConfiguration(d, pts, sphere, claimed)


def serialize_points_json(pc: PointConfiguration) -> str:
    data = {
        "dimension": pc.dimension,
        "coordinates": [format_vector(p) for p in pc.points],
    }
    if pc.sphere is not None:
        data["sphere"] = {
            "center": format_vector(pc.sphere.center),
            "radius_squared": format_rational(pc.sphere.radius_squared),
        }
    if pc.claimed_faces is not None:
        data["faces"] = [sorted(f) for f in pc.claimed_faces]
    return json.dumps(data, indent=1) + "\n"
