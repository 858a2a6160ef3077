"""Four-dimensional resource capacity arithmetic (vcpu, memory, storage, bandwidth)."""

from __future__ import annotations

from dataclasses import dataclass

DIMENSIONS = ("vcpu", "memory", "storage", "bandwidth")

# Which capacity dimensions each resource kind may carry.
KIND_DIMENSIONS = {
    "compute": ("vcpu", "memory"),
    "storage": ("storage",),
    "network": ("bandwidth",),
}


@dataclass(frozen=True)
class CapacityVector:
    """Componentwise capacity amounts. Negative components are allowed so the
    vector can also represent signed deltas."""

    vcpu: float = 0
    memory: float = 0
    storage: float = 0
    bandwidth: float = 0

    def __add__(self, other: "CapacityVector") -> "CapacityVector":
        return CapacityVector(
            self.vcpu + other.vcpu,
            self.memory + other.memory,
            self.storage + other.storage,
            self.bandwidth + other.bandwidth,
        )

    def __sub__(self, other: "CapacityVector") -> "CapacityVector":
        return CapacityVector(
            self.vcpu - other.vcpu,
            self.memory - other.memory,
            self.storage - other.storage,
            self.bandwidth - other.bandwidth,
        )

    def __neg__(self) -> "CapacityVector":
        return CapacityVector(-self.vcpu, -self.memory, -self.storage, -self.bandwidth)

    def scaled(self, factor: float) -> "CapacityVector":
        return CapacityVector(
            self.vcpu * factor,
            self.memory * factor,
            self.storage * factor,
            self.bandwidth * factor,
        )

    def get(self, dimension: str) -> float:
        if dimension not in DIMENSIONS:
            raise KeyError(dimension)
        return getattr(self, dimension)

    def covers(self, other: "CapacityVector") -> bool:
        """True when every component is >= the corresponding one in `other`."""
        return (self.vcpu >= other.vcpu and self.memory >= other.memory
                and self.storage >= other.storage
                and self.bandwidth >= other.bandwidth)

    def deficient_dimensions(self, required: "CapacityVector") -> list:
        return [d for d in DIMENSIONS if self.get(d) < required.get(d)]

    def is_zero(self) -> bool:
        return (self.vcpu == 0 and self.memory == 0 and self.storage == 0
                and self.bandwidth == 0)

    def restricted(self, kind: str) -> "CapacityVector":
        """Zero out every dimension not belonging to the resource kind."""
        dims = KIND_DIMENSIONS[kind]
        return CapacityVector(**{d: self.get(d) for d in dims})

    def as_dict(self) -> dict:
        return {d: _num(self.get(d)) for d in DIMENSIONS}

    @classmethod
    def from_dict(cls, data: dict) -> "CapacityVector":
        unknown = set(data) - set(DIMENSIONS)
        if unknown:
            raise ValueError("unknown capacity dimensions: %s" % sorted(unknown))
        return cls(**{d: data.get(d, 0) for d in DIMENSIONS})


def _num(value: float):
    """Collapse integral floats to int so serialized output is stable."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


ZERO = CapacityVector()
