"""Core belief-function machinery.

Frames of discernment, basic belief assignments over the power set,
the classic combination rules (Dempster / conjunctive / disjunctive)
and the Jaccard-weighted distance between two bodies of evidence.

Subsets of a frame are plain ints interpreted as bitmasks: bit ``i`` set
means the ``i``-th hypothesis belongs to the subset.  ``0`` is the empty
set and ``2**n - 1`` is the whole frame.  Intersection, union and
cardinality are then single bit operations.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from .errors import (
    DuplicateSubset,
    FrameMismatch,
    InvalidSubset,
    NegativeMass,
    NonFiniteMass,
    SumNotOne,
    TotalConflict,
)

__all__ = [
    "MASS_SUM_TOLERANCE",
    "INTERNAL_TOLERANCE",
    "MAX_FRAME_SIZE",
    "Frame",
    "MassFunction",
    "combine_conjunctive",
    "combine_disjunctive",
    "combine_dempster",
    "global_conflict",
    "jaccard",
    "jousselme_distance",
]

# Separates user data-entry error (construction) from numerical drift
# (identities between computed results).
MASS_SUM_TOLERANCE = 1e-9
INTERNAL_TOLERANCE = 1e-12

MAX_FRAME_SIZE = 16


class _Frozen:
    """What a frozen dataclass would give the package's value classes, without
    importing ``dataclasses`` (and ``inspect`` through it) into any command.
    Fields are set once, in ``__init__``; ``==``, ``hash``, ``repr``, pickling
    and ``_replace`` read the fields named in ``__match_args__``, so a field
    left out of it, such as ``MessageFrame.frame``, is derived."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def _set(self, *values: object) -> None:
        # Several times slower than inline stores: for classes built once per call.
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _replace(self, **changes: object):
        """A copy with ``changes`` made, built (so checked) again through
        ``__init__``, which refuses an unknown field with ``TypeError``."""
        return type(self)(**{**dict(zip(self.__match_args__, self._astuple())), **changes})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # a mappingproxy neither pickles nor deep-copies
        return type(self), tuple([dict(v) if type(v) is MappingProxyType else v for v in self._astuple()])


class Frame(_Frozen):
    """An ordered frame of discernment: named, mutually exclusive hypotheses.

    Immutable after construction and safe to share between threads;
    ``full_set`` is the bitmask of the whole frame.
    """

    __slots__ = ("labels", "full_set", "_positions")
    __match_args__ = ("labels",)

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a frame needs at least one hypothesis")
        if len(labels) > MAX_FRAME_SIZE:
            raise ValueError(
                f"frame has {len(labels)} hypotheses, maximum is {MAX_FRAME_SIZE}"
            )
        positions: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not isinstance(label, str) or not label:
                raise ValueError(f"hypothesis {i} is not a non-empty string")
            if label in positions:
                raise ValueError(f"duplicate hypothesis name {label!r}")
            positions[label] = i
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "full_set", (1 << len(labels)) - 1)
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Frame({list(self.labels)!r})"

    def subset(self, members: Iterable[str]) -> int:
        """Bitmask for the subset holding the given hypothesis names."""
        mask = 0
        for label in members:
            try:
                mask |= 1 << self._positions[label]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise InvalidSubset(
                    f"{label!r} is not a hypothesis of {self!r}"
                ) from None
        return mask

    def singleton(self, label: str) -> int:
        return self.subset((label,))

    def members(self, subset: int) -> tuple[str, ...]:
        """Hypothesis names of a subset, in frame order."""
        self.check_subset(subset)
        return tuple(
            label for i, label in enumerate(self.labels) if subset >> i & 1
        )

    def check_subset(self, subset: int) -> None:
        if not isinstance(subset, int) or subset < 0 or subset > self.full_set:
            raise InvalidSubset(
                f"subset {subset!r} is not a valid mask for a frame of size "
                f"{len(self.labels)}"
            )

    def subsets(self) -> range:
        """All subset masks, empty set through full frame."""
        return range(self.full_set + 1)


class MassFunction:
    """A basic belief assignment: positive masses on subsets, summing to one.

    Only focal elements (strictly positive mass) are stored; zero-mass
    entries are dropped at construction.  Instances are immutable.  The
    focal sets are kept as one ascending tuple and their masses as a
    parallel tuple: two small tuples take half the memory of a dict.

    ``assignments`` may be a mapping from subset masks to masses or an
    iterable of ``(subset, mass)`` pairs.  Validation raises
    :class:`InvalidSubset`, :class:`NonFiniteMass`, :class:`NegativeMass`,
    :class:`DuplicateSubset` or :class:`SumNotOne`; masses are checked,
    never renormalized, and stored as floats.  NaN, an infinity, a
    ``bool``, a non-number and an integer past the float range are each a
    :class:`NonFiniteMass`.  Finite, non-negative masses summing to one
    leave at least one focal element, so an empty assignment is a
    :class:`SumNotOne`.
    """

    __slots__ = ("_frame", "_sets", "_masses")

    def __init__(
        self,
        frame: Frame,
        assignments: Mapping[int, float] | Iterable[tuple[int, float]],
    ):
        if type(assignments) is not list and isinstance(assignments, Mapping):
            assignments = assignments.items()
        full = frame.full_set
        sets: list[int] = []
        masses: list[float] = []
        largest = -1  # the largest subset so far: a larger one is new
        seen: set[int] | None = None  # built once a subset arrives out of order
        for subset, mass in assignments:
            if type(subset) is not int or not 0 <= subset <= full:
                frame.check_subset(subset)  # raises, or passes an int subclass
            if type(mass) is not float:
                mass = _real_mass(mass, subset)
            if not 0.0 <= mass < math.inf:  # false for NaN, an infinity or a negative
                if not math.isfinite(mass):
                    raise NonFiniteMass(f"mass {mass!r} on subset {subset:#b}")
                raise NegativeMass(f"mass {mass!r} on subset {subset:#b}")
            if subset > largest:
                largest = subset
            elif seen is None:
                seen = set(sets)
            if seen is not None:
                if subset in seen:
                    raise DuplicateSubset(f"subset {subset:#b} assigned twice")
                seen.add(subset)
            sets.append(subset)
            masses.append(mass)
        try:
            total = math.fsum(masses)
        except OverflowError:  # finite masses whose sum leaves the float range
            raise SumNotOne("masses sum past the float range, expected 1") from None
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise SumNotOne(f"masses sum to {total!r}, expected 1")
        # Sorted storage gives every downstream loop a deterministic order;
        # generated bbas and thread files already list subsets ascending.  A
        # sum of one leaves at least one positive mass to unzip.
        if seen is not None or 0.0 in masses:  # -0.0 as well
            sets, masses = zip(*sorted((s, m) for s, m in zip(sets, masses) if m > 0.0))
        self._frame = frame
        self._sets = tuple(sets)
        self._masses = tuple(masses)

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        """Total ignorance: all mass on the whole frame."""
        return cls(frame, {frame.full_set: 1.0})

    @property
    def frame(self) -> Frame:
        return self._frame

    def mass(self, subset: int) -> float:
        """Mass on a subset; zero for non-focal subsets."""
        self._frame.check_subset(subset)
        i = bisect_left(self._sets, subset)
        if i < len(self._sets) and self._sets[i] == subset:
            return self._masses[i]
        return 0.0

    def focal_sets(self) -> tuple[int, ...]:
        """The focal sets, ascending."""
        return self._sets

    def masses(self) -> tuple[float, ...]:
        """The focal sets' masses, in ``focal_sets()`` order."""
        return self._masses

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self._sets, self._masses)

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self._sets, self._masses))

    def __len__(self) -> int:
        return len(self._sets)

    def _share_sets(self, shared: dict[tuple[int, ...], tuple[int, ...]]) -> None:
        """Point ``focal_sets()`` at ``shared``'s equal tuple, adding this
        bba's own when ``shared`` has none yet.  The value is unchanged, so
        no answer, ``==`` or ``repr`` moves; a thread's bbas then hold one
        tuple per distinct focal pattern instead of one each."""
        self._sets = shared.setdefault(self._sets, self._sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return (self._frame, self._sets, self._masses) == (
            other._frame, other._sets, other._masses
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(self._frame.members(s)) or '∅'}}}: {m:.6g}"
            for s, m in self.items()
        )
        return f"MassFunction({parts})"


def _real_mass(mass: object, subset: int) -> float:
    """A mass that is not a ``float`` as one, or ``NonFiniteMass``."""
    if isinstance(mass, bool) or not isinstance(mass, numbers.Real):
        raise NonFiniteMass(
            f"mass on subset {subset:#b} is a {type(mass).__name__}, not a real number"
        )
    try:
        return float(mass)
    except OverflowError:
        raise NonFiniteMass(f"mass on subset {subset:#b} is past the float range") from None


def _require_same_frame(m1: MassFunction, m2: MassFunction) -> None:
    if m1.frame is not m2.frame and m1.frame != m2.frame:
        raise FrameMismatch(f"{m1.frame!r} vs {m2.frame!r}")


def _combine(m1: MassFunction, m2: MassFunction, op) -> dict[int, float]:
    """Accumulate products of focal-pair masses under a subset operator."""
    _require_same_frame(m1, m2)
    out: dict[int, float] = {}
    for s1, v1 in m1.items():
        for s2, v2 in m2.items():
            key = op(s1, s2)
            out[key] = out.get(key, 0.0) + v1 * v2
    return out


def combine_conjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Unnormalized conjunctive combination; may place mass on the empty set."""
    return MassFunction(m1.frame, _combine(m1, m2, lambda a, b: a & b))


def combine_disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Disjunctive combination: products accumulate on unions of focal sets."""
    return MassFunction(m1.frame, _combine(m1, m2, lambda a, b: a | b))


def global_conflict(m1: MassFunction, m2: MassFunction) -> float:
    """Total product mass falling on the empty set under conjunction."""
    return _combine(m1, m2, lambda a, b: a & b).get(0, 0.0)


def combine_dempster(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Normalized conjunctive combination (the orthogonal sum).

    Distributes the conjunctive result over non-empty subsets, scaling by
    ``1 / (1 - k)`` where ``k`` is the mass the conjunction puts on the
    empty set.  Raises :class:`TotalConflict` when ``k`` is 1 within
    ``INTERNAL_TOLERANCE``.
    """
    combined = _combine(m1, m2, lambda a, b: a & b)
    k = combined.pop(0, 0.0)
    if 1.0 - k <= INTERNAL_TOLERANCE:
        raise TotalConflict(f"sources fully contradict (conflict mass {k!r})")
    scale = 1.0 / (1.0 - k)
    return MassFunction(m1.frame, {s: v * scale for s, v in combined.items()})


def jaccard(a: int, b: int) -> float:
    """Jaccard similarity of two subset masks.

    ``|a & b| / |a | b|``, with the convention that two empty sets are
    perfectly similar (1) while an empty set against a non-empty one has
    no overlap (0).
    """
    if a == 0 and b == 0:
        return 1.0
    return (a & b).bit_count() / (a | b).bit_count()


def jousselme_distance(m1: MassFunction, m2: MassFunction) -> float:
    """Jaccard-weighted distance between two mass functions, in [0, 1].

    Square root of half the quadratic form of the mass difference under
    the Jaccard similarity matrix.  The difference vector is non-zero only
    on the union of focal sets, so the form is evaluated over those
    entries directly (bit-identical to the dense matrix product, without
    materializing 2^n terms).
    """
    _require_same_frame(m1, m2)
    delta = dict(m1.items())
    for s, v in m2.items():
        delta[s] = delta.get(s, 0.0) - v
    entries = sorted(delta.items())
    total = 0.0
    for i, (si, vi) in enumerate(entries):
        total += vi * vi  # diagonal similarity is always 1
        for sj, vj in entries[i + 1 :]:
            total += 2.0 * vi * vj * jaccard(si, sj)
    squared = 0.5 * total
    if squared < 0.0:
        if squared < -INTERNAL_TOLERANCE:
            raise ArithmeticError(
                f"quadratic form produced {squared!r}; inputs are corrupt"
            )
        squared = 0.0
    return math.sqrt(squared)
