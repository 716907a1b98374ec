"""Certified distance intervals with method tags."""

from dataclasses import dataclass, field

from .errors import KCat0Error


@dataclass(frozen=True)
class DistanceInterval:
    """Certified bounds [lo, hi] on a Kobayashi distance, with method tags."""

    lo: float
    hi: float
    methods: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not (self.lo <= self.hi + 1e-12):
            raise KCat0Error(f"inconsistent interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(value: float, *tags: str) -> "DistanceInterval":
        return DistanceInterval(value, value, frozenset(tags))

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def with_tags(self, *tags: str) -> "DistanceInterval":
        return DistanceInterval(self.lo, self.hi, self.methods | frozenset(tags))

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "methods": sorted(self.methods)}

