"""Belief-function evidence library and conflict-based troll detection.

The :mod:`trolldetect.belief` layer is a small, standalone Dempster-Shafer
toolkit (frames, mass functions, combination rules, distance).  On top of
it, :mod:`trolldetect.pipeline` scores every user of a discussion thread
by how much their messages conflict with what was posted before, and
:mod:`trolldetect.clustering` separates trolls from normal users.
"""

__version__ = "0.1.0"

from .belief import (
    Frame,
    MassFunction,
    combine_conjunctive,
    combine_dempster,
    combine_disjunctive,
    global_conflict,
    jaccard,
    jousselme_distance,
)
from .clustering import Partition2, kmeans2
from .conflict import (
    conflict,
    inclusion_degree,
    inclusion_index,
    symmetric_inclusion,
)
from .pipeline import (
    ConflictReport,
    analyze,
    message_conflict,
    message_conflict_per_user,
    user_conflict,
)
from .simulate import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    ScriptEntry,
    example1,
    example2,
    generate,
    pin_masses,
)
from .thread import (
    Message,
    MessageFrame,
    Thread,
    load_thread,
    thread_from_dict,
    thread_to_dict,
    thread_to_json,
)
from . import errors

__all__ = [
    "__version__",
    "Frame",
    "MassFunction",
    "combine_conjunctive",
    "combine_dempster",
    "combine_disjunctive",
    "global_conflict",
    "jaccard",
    "jousselme_distance",
    "inclusion_index",
    "inclusion_degree",
    "symmetric_inclusion",
    "conflict",
    "MessageFrame",
    "Message",
    "Thread",
    "thread_from_dict",
    "thread_to_dict",
    "thread_to_json",
    "load_thread",
    "ConflictReport",
    "message_conflict_per_user",
    "message_conflict",
    "user_conflict",
    "analyze",
    "Partition2",
    "kmeans2",
    "ScenarioSpec",
    "ScriptEntry",
    "generate",
    "pin_masses",
    "example1",
    "example2",
    "BUILTIN_SCENARIOS",
    "errors",
]
