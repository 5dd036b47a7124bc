"""Exception hierarchy shared across the package."""


class PolyscribeError(Exception):
    """Base class for all library errors."""


class MapValidationError(PolyscribeError):
    """A combinatorial map failed validation."""


class EdgeNotInTwoFaces(MapValidationError):
    def __init__(self, edge, count):
        self.edge = tuple(edge)
        self.count = count
        super().__init__(f"edge {self.edge} appears in {count} faces, expected 2")


class EulerViolation(MapValidationError):
    def __init__(self, v, e, f):
        self.v, self.e, self.f = v, e, f
        super().__init__(f"Euler relation violated: V-E+F = {v}-{e}+{f} = {v - e + f} != 2")


class NotThreeConnected(MapValidationError):
    def __init__(self, connectivity, cutset):
        self.connectivity = connectivity
        self.cutset = set(cutset) if cutset is not None else None
        super().__init__(
            f"graph is only {connectivity}-connected (cutset {sorted(self.cutset) if self.cutset else '?'})"
        )


class DegenerateFace(MapValidationError):
    def __init__(self, face_index, face, reason):
        self.face_index = face_index
        self.face = list(face)
        super().__init__(f"face #{face_index} {self.face}: {reason}")


class ParseError(PolyscribeError):
    """Malformed input file or coordinate string."""


class BudgetExceeded(PolyscribeError):
    """An exact search would exceed its configured budget."""

    def __init__(self, what, needed, budget):
        self.what = what
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what}: needs {needed}, budget {budget}")


class DegenerateSpan(PolyscribeError):
    """Point configuration does not affinely span the stated dimension."""


class PointInsideBall(PolyscribeError):
    """Visibility cap requested for a point not strictly outside the unit ball."""


class DegenerateConfiguration(PolyscribeError):
    """Cap system too degenerate for the exact ply computation."""


class MonteCarloOnly(PolyscribeError):
    """Exact ply depth is only available in dimension 3."""
