"""The package's public names: one table, loaded on first access."""

import importlib.util
import json
from pathlib import Path

import pytest

import trolldetect
import trolldetect.cli as cli

from helpers import CLI_NAMES, run_python

EXPORTS = {
    "__version__", "errors",
    "Frame", "MassFunction", "combine_conjunctive", "combine_dempster",
    "combine_disjunctive", "global_conflict", "jaccard", "jousselme_distance",
    "inclusion_index", "inclusion_degree", "symmetric_inclusion", "conflict",
    "MessageFrame", "Message", "Thread", "thread_from_dict", "thread_to_dict",
    "thread_to_json", "load_thread",
    "ConflictReport", "message_conflict_per_user", "message_conflict",
    "user_conflict", "analyze",
    "Partition2", "kmeans2",
    "ScenarioSpec", "ScriptEntry", "generate", "pin_masses", "example1",
    "example2", "BUILTIN_SCENARIOS",
}


def test_all_lists_every_export_once():
    assert len(trolldetect.__all__) == len(EXPORTS) == 35
    assert set(trolldetect.__all__) == EXPORTS


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_each_export_resolves_to_its_module_object(name):
    value = getattr(trolldetect, name)
    if name in ("__version__", "errors"):
        return
    module = __import__(f"trolldetect.{trolldetect._MODULE_OF[name]}", fromlist=[name])
    assert value is getattr(module, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from trolldetect import *", namespace)
    assert EXPORTS <= set(namespace)
    assert namespace["conflict"] is trolldetect.conflict


def test_dir_lists_the_exports():
    assert EXPORTS <= set(dir(trolldetect))


@pytest.mark.parametrize(
    "module, name",
    [(trolldetect, "nope"), (cli, "nope"), (cli, "_EXPORTS")],
    ids=["trolldetect", "cli", "cli-_EXPORTS"],
)
def test_unknown_attribute_raises_attribute_error(module, name):
    # cli resolves only the package's exports, not every package attribute.
    with pytest.raises(AttributeError, match=f"'{module.__name__}' has no attribute '{name}'"):
        getattr(module, name)


def test_cli_lazy_names_resolve():
    # bench/tracing.py reads and rebinds these on the cli module.  Exported
    # names come from the package's table, the helpers from cli's own.
    for name in CLI_NAMES:
        value = getattr(cli, name)
        if name in trolldetect.__all__:
            assert value is getattr(trolldetect, name), name
        else:
            module = __import__(f"trolldetect.{cli._HELPERS[name]}", fromlist=[name])
            assert value is getattr(module, name), name


def test_every_name_the_bench_traces_resolves_to_a_callable():
    # bench/tracing.py rebinds these; a missing one breaks only ``--trace 1``.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, attr, _, _ in tracing.PATCHES:
        assert callable(getattr(module, attr)), (module.__name__, attr)


def test_pyproject_version_is_the_package_version():
    # pip reads the first; --version and the files the CLI writes, the second.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with path.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == trolldetect.__version__


def test_exports_load_on_first_access_and_conflict_stays_the_function():
    script = """
import json, sys
import trolldetect
before = sorted(sys.modules)
trolldetect.Thread
after_thread = sorted(sys.modules)
import trolldetect.pipeline
print(json.dumps([before, after_thread, callable(trolldetect.conflict),
                  trolldetect.conflict is sys.modules["trolldetect.conflict"].conflict]))
"""
    result = run_python(script)
    assert result.returncode == 0, result.stderr
    before, after_thread, is_callable, is_function = json.loads(result.stdout)
    lazy = {"trolldetect.thread", "trolldetect.simulate", "trolldetect.pipeline", "trolldetect.clustering"}
    assert not lazy & set(before)
    assert lazy & set(after_thread) == {"trolldetect.thread"}
    assert is_callable and is_function
