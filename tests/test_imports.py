"""Import hygiene and the lazy public surface.

Every package ``__init__`` of :mod:`repro` exports its names lazily
(:mod:`repro._lazy`) and the CLI imports a command's modules inside the
command, so a start that only serves queries loads none of the batch
layers.  These tests pin both halves: what a start loads, and that
every exported name still resolves the way an eager ``__init__`` made
it resolve.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import choices
from repro.cli import build_parser

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules no query-serving start needs: numpy (the CPM kernels), the
#: Chapter-4 analysis, the report and the topology generator.
_HEAVY = ("numpy", "repro.analysis", "repro.report", "repro.topology")

#: The exported names that equal a submodule of their package.
_COLLIDING = {
    ("repro.core", "overlap"),
    ("repro.baselines", "eagle"),
    ("repro.graph", "degeneracy"),
    ("repro.analysis", "community_graph"),
}

_PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, prefix="repro.")
    if info.ispkg
)


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter over this tree; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "start",
    [
        "import repro",
        "import repro.query.server",
        "import repro.cli; repro.cli.build_parser()",
    ],
)
def test_start_loads_no_batch_layer(start):
    loaded = _fresh(
        f"{start}\nimport json, sys\n"
        f"print(json.dumps(sorted(set(sys.modules) & set({list(_HEAVY)!r}))))"
    )
    assert json.loads(loaded) == []


@pytest.mark.parametrize("package", _PACKAGES)
class TestPublicSurface:
    def test_every_export_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            getattr(module, name)
            assert name in listed, name

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            module.no_such_export
        assert not hasattr(module, "no_such_export")

    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)


def test_colliding_names_survive_their_submodule_import():
    """An export named like a submodule of its package stays the export
    after that submodule is imported — in a fresh interpreter, where the
    submodule import comes first."""
    found = json.loads(
        _fresh(
            "import importlib, json, pkgutil, types\n"
            "found = []\n"
            f"for package in {_PACKAGES!r}:\n"
            "    module = importlib.import_module(package)\n"
            "    submodules = {i.name for i in pkgutil.iter_modules(module.__path__)}\n"
            "    for name in sorted(submodules & set(module.__all__)):\n"
            "        importlib.import_module(f'{package}.{name}')\n"
            "        value = getattr(module, name)\n"
            "        ok = callable(value) and not isinstance(value, types.ModuleType)\n"
            "        found.append([package, name, ok])\n"
            "print(json.dumps(found))\n"
        )
    )
    assert _COLLIDING <= {(package, name) for package, name, _ in found}
    assert all(ok for *_, ok in found), found


def test_documented_names_resolve():
    """The names docs/api.md promises, from the modules it names."""
    for name in (
        "run_cpm", "CPMResult", "save_result", "load_result", "open_session",
        "load_session", "EdgeDelta", "CPMUpdate", "CommunityChange", "CPMSession",
    ):
        assert name in repro.__all__
        getattr(repro, name)
    for name in ("build_query_artifact", "load_query_artifact", "RESULT_SCHEMA_VERSION"):
        getattr(importlib.import_module("repro.api"), name)


def _option(command: list[str], flag: str):
    """The argparse action of ``flag`` on the parser of ``command``."""
    parser = build_parser()
    for name in command:
        subparsers = next(a for a in parser._actions if a.dest.endswith("command"))
        parser = subparsers.choices[name]
    return next(a for a in parser._actions if flag in a.option_strings)


class TestParserChoices:
    """Each parser choice is its one constant in :mod:`repro.choices`."""

    def test_kernel(self):
        for command in (["communities"], ["query", "build"], ["export"]):
            action = _option(command, "--kernel")
            assert action.metavar == "{" + ",".join(("auto", *choices.KERNELS)) + "}"

    def test_session_kernel(self):
        action = _option(["session", "open"], "--kernel")
        assert action.metavar == "{" + ",".join(("auto", *choices.SESSION_KERNELS)) + "}"

    def test_analysis_engine(self):
        for command in (["tree"], ["paper"], ["query", "build"]):
            assert _option(command, "--analysis-engine").choices == list(choices.ENGINES)

    def test_top(self):
        assert _option(["query", "lookup"], "--top").choices == list(choices.TOP_METRICS)

    def test_implementing_modules_share_the_constant(self):
        from repro.analysis.engine import ENGINES
        from repro.core.lightweight import KERNELS, resolve_kernel
        from repro.incremental.session import SESSION_KERNELS
        from repro.query.engine import TOP_METRICS

        assert KERNELS is choices.KERNELS
        assert resolve_kernel is choices.resolve_kernel
        assert SESSION_KERNELS is choices.SESSION_KERNELS
        assert ENGINES is choices.ENGINES
        assert TOP_METRICS is choices.TOP_METRICS
