"""Four-dimensional resource capacity arithmetic (vcpu, memory, storage, bandwidth)."""

from __future__ import annotations

from typing import NamedTuple

DIMENSIONS = ("vcpu", "memory", "storage", "bandwidth")

# Which capacity dimensions each resource kind may carry.
KIND_DIMENSIONS = {
    "compute": ("vcpu", "memory"),
    "storage": ("storage",),
    "network": ("bandwidth",),
}

# Each dimension's component index, and the indexes each kind keeps.
_INDEX = {d: i for i, d in enumerate(DIMENSIONS)}
_KIND_INDEXES = {k: [_INDEX[d] for d in dims] for k, dims in KIND_DIMENSIONS.items()}


class CapacityVector(NamedTuple):
    """Componentwise capacity amounts. Negative components are allowed so the
    vector can also represent signed deltas. A tuple, as it is cheap to
    build: `+` and `-` work componentwise, and `*` would repeat it."""

    vcpu: float = 0
    memory: float = 0
    storage: float = 0
    bandwidth: float = 0

    def __add__(self, other: "CapacityVector") -> "CapacityVector":
        return tuple.__new__(CapacityVector, (
            self.vcpu + other.vcpu,
            self.memory + other.memory,
            self.storage + other.storage,
            self.bandwidth + other.bandwidth,
        ))

    def __sub__(self, other: "CapacityVector") -> "CapacityVector":
        return tuple.__new__(CapacityVector, (
            self.vcpu - other.vcpu,
            self.memory - other.memory,
            self.storage - other.storage,
            self.bandwidth - other.bandwidth,
        ))

    def scaled(self, factor: float) -> "CapacityVector":
        return tuple.__new__(CapacityVector, [v * factor for v in self])

    def get(self, dimension: str) -> float:
        return self[_INDEX[dimension]]

    def covers(self, other: "CapacityVector") -> bool:
        """True when every component is >= the corresponding one in `other`."""
        sv, sm, ss, sb = self
        ov, om, os_, ob = other
        return sv >= ov and sm >= om and ss >= os_ and sb >= ob

    def deficient_dimensions(self, required: "CapacityVector") -> list:
        return [d for d in DIMENSIONS if self.get(d) < required.get(d)]

    def is_zero(self) -> bool:
        return not any(self)

    def restricted(self, kind: str) -> "CapacityVector":
        """Zero out every dimension not belonging to the resource kind."""
        values = [0, 0, 0, 0]
        for i in _KIND_INDEXES[kind]:
            values[i] = self[i]
        return tuple.__new__(CapacityVector, values)

    def as_dict(self) -> dict:
        return dict(zip(DIMENSIONS, map(_num, self)))


def _num(value: float):
    """Collapse integral floats to int. `canonical_json` collapses them
    itself; `as_dict()` needs this for its `%s` text, which
    `NoFeasibleLevelError`'s message holds and a DrpaDecision payload
    carries."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


ZERO = CapacityVector()
