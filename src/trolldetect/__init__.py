"""Belief-function evidence library and conflict-based troll detection.

The :mod:`trolldetect.belief` layer is a small, standalone Dempster-Shafer
toolkit (frames, mass functions, combination rules, distance).  On top of
it, :mod:`trolldetect.pipeline` scores every user of a discussion thread
by how much their messages conflict with what was posted before, and
:mod:`trolldetect.clustering` separates trolls from normal users.

Each export loads its module on first access (PEP 562), so a command
imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports from the package
_EXPORTS = {
    "belief": (
        "Frame", "MassFunction", "combine_conjunctive", "combine_dempster",
        "combine_disjunctive", "global_conflict", "jaccard", "jousselme_distance",
    ),
    "conflict": ("inclusion_index", "inclusion_degree", "symmetric_inclusion", "conflict"),
    "thread": (
        "MessageFrame", "Message", "Thread", "thread_from_dict", "thread_to_dict",
        "thread_to_json", "load_thread",
    ),
    "pipeline": (
        "ConflictReport", "message_conflict_per_user", "message_conflict",
        "user_conflict", "analyze",
    ),
    "clustering": ("Partition2", "kmeans2"),
    "simulate": (
        "ScenarioSpec", "ScriptEntry", "generate", "pin_masses", "example1",
        "example2", "BUILTIN_SCENARIOS",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "errors", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


# Loaded at once: importing the submodule ``trolldetect.conflict`` (as
# ``pipeline`` does) binds it over the package attribute ``conflict``, so
# the function must be bound after that import, not on first access.
# belief and errors come with it and hold no dataclasses.
from . import errors  # noqa: E402

for _name in (*_EXPORTS["belief"], *_EXPORTS["conflict"]):
    __getattr__(_name)
del _name
