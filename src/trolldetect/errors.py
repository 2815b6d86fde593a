"""Exception types shared across the package."""


class BeliefError(Exception):
    """Base class for every error raised by this package."""


class InvalidSubset(BeliefError):
    """A subset mask or label does not belong to the frame."""


class NonFiniteMass(BeliefError):
    """A mass is not a finite real number: NaN, an infinity, a bool, a
    non-number, or a number past the float range."""


class NegativeMass(BeliefError):
    """A mass assignment carries a negative value."""


class DuplicateSubset(BeliefError):
    """The same subset appears twice in a mass assignment."""


class SumNotOne(BeliefError):
    """The masses of an assignment do not sum to one."""


class FrameMismatch(BeliefError):
    """Two mass functions defined over different frames were combined."""


class TotalConflict(BeliefError):
    """Dempster combination is undefined: the sources fully contradict."""


class InvalidThread(BeliefError):
    """A thread violates its structural invariants (ranks, roster, frames)."""


class RankOutOfBounds(BeliefError):
    """A message rank does not exist."""


class UnknownUser(BeliefError):
    """A user id is not part of the thread roster."""


class SameUser(BeliefError):
    """A message was compared against its own author's history."""


class NoPriorMessages(BeliefError):
    """The referenced user has no messages before the given rank."""


class Degenerate(BeliefError):
    """Clustering is impossible: too few items or no spread in the values."""


class InvalidSpec(BeliefError):
    """A simulation scenario is malformed."""


class MassOutOfRange(BeliefError):
    """A pinned dominant mass lies outside the open interval (0, 1)."""
