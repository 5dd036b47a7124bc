from fractions import Fraction as F

import pytest

from polyscribe.errors import ParseError
from polyscribe.points import (PointConfiguration, SphereRef, parse_points_json,
                               serialize_points_json)


def test_roundtrip(cube_points):
    pc = PointConfiguration(3, cube_points.points, cube_points.sphere,
                            (frozenset({0, 1, 2, 3}),))
    again = parse_points_json(serialize_points_json(pc))
    assert again.points == pc.points
    assert again.sphere == pc.sphere
    assert again.claimed_faces == pc.claimed_faces


def test_validation():
    with pytest.raises(ParseError):
        PointConfiguration(2, ((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(ParseError):
        PointConfiguration(3, ((F(0), F(0)),))
    with pytest.raises(ParseError):
        SphereRef((F(0),), F(0))
    with pytest.raises(ParseError):
        parse_points_json("{}")
    with pytest.raises(ParseError):
        parse_points_json("not json")
