"""What a fresh interpreter loads, and the lazy package surfaces.

``repro``, ``repro.harness``, ``repro.uarch`` and ``repro.workloads``
serve their public names and their submodules from a name-to-module
table, importing the defining module on first use.  These tests check
that every listed name still resolves as the eager imports resolved it,
and that importing what the speed benchmark imports, or the command
line, leaves unloaded the modules that a figure run never uses.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAZY = ("repro", "repro.harness", "repro.uarch", "repro.workloads")

#: Modules set-up never runs: none may load with the benchmark's imports.
UNUSED_AT_SETUP = (
    "repro.analysis",
    "repro.harness.reporting",
    "repro.harness.expectations",
    "repro.harness.sweep",
    "repro.harness.export",
    "repro.harness.cli",
    "repro.uarch.accounting",
    "repro.uarch.observers",
    "repro.workloads.analysis",
    "repro.workloads.generator",
    "multiprocessing",
)

#: What the command line needs besides: its own module and the reports.
CLI_MODULES = ("repro.harness.cli", "repro.harness.reporting")

PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
import perfbench.layers, perfbench.workloads

def loaded():
    return sorted(sys.modules)

before = loaded()
from repro.harness import campaign
from repro.isa import assemble
program = assemble("li r1, 3\\nloop: addi r2, r2, 5\\nsubi r1, r1, 1\\n"
                   "bnez r1, loop\\nputint r2\\nhalt", name="loop")
campaign.run_site_campaign(program, runs=4, jobs=1, use_analysis_cache=False)
print(json.dumps([before, loaded()]))
"""


CLI_PROBE = """
import json, sys
sys.path[:0] = [{src!r}]
from repro.harness import cli

before = sorted(sys.modules)
cli.main(["--scale", "200", "--no-cache", "--jobs", "1", "figure", "fig2"])
print(json.dumps([before, sorted(sys.modules)]))
"""


def _is_unused(name: str) -> bool:
    return any(name == mod or name.startswith(mod + ".")
               for mod in UNUSED_AT_SETUP)


#: Gates that attach an observer to every harness run, and so load its
#: module; the guards are about a plain run.
OBSERVER_GATES = ("REPRO_CHECK_INVARIANTS", "REPRO_PROFILE")


def _probe(code: str, cwd) -> list:
    env = {name: value for name, value in os.environ.items()
           if name not in OBSERVER_GATES}
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class TestFreshInterpreter:
    @pytest.fixture(scope="class")
    def loaded(self):
        return _probe(PROBE.format(src=str(ROOT / "src"), root=str(ROOT)),
                      ROOT)

    @pytest.fixture(scope="class")
    def cli_loaded(self, tmp_path_factory):
        return _probe(CLI_PROBE.format(src=str(ROOT / "src")),
                      tmp_path_factory.mktemp("cli"))

    def test_benchmark_imports_load_no_unused_module(self, loaded):
        before, _ = loaded
        assert [name for name in before if _is_unused(name)] == []
        assert "repro.harness.campaign" in before

    def test_site_campaign_loads_the_analyzer(self, loaded):
        before, after = loaded
        assert "repro.analysis" not in before
        assert "repro.analysis" in after

    def test_command_line_figure_loads_no_unused_module(self, cli_loaded):
        before, after = cli_loaded
        for name in CLI_MODULES:
            assert name in before
        assert [name for name in after
                if _is_unused(name) and name not in CLI_MODULES] == []


def _definers(name: str, value) -> list:
    """The loaded ``repro`` modules, packages left out, that bind
    ``name`` to ``value``."""
    return [
        mod_name for mod_name, mod in list(sys.modules.items())
        if mod_name.startswith("repro.") and mod is not None
        and not hasattr(mod, "__path__")
        and vars(mod).get(name, _MISSING) is value
    ]


_MISSING = object()


@pytest.mark.parametrize("package", LAZY)
class TestLazySurface:
    def test_every_name_resolves_to_its_defining_object(self, package):
        module = importlib.import_module(package)
        assert module.__all__
        for name in module.__all__:
            value = getattr(module, name)
            assert name in dir(module)
            if name == "quick_compare":  # defined by the package itself
                continue
            definers = _definers(name, value)
            assert definers, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ in definers, name

    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_submodules_resolve_after_a_fresh_package_import(self, package):
        code = (
            f"import json, pkgutil, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            f"import {package} as pkg\n"
            f"names = [m.name for m in pkgutil.iter_modules(pkg.__path__)]\n"
            f"print(json.dumps([getattr(pkg, name).__name__ "
            f"for name in names]))\n"
        )
        resolved = _probe(code, ROOT)
        assert resolved
        assert all(name.startswith(package + ".") for name in resolved)
        if package == "repro":
            assert _probe(
                f"import json, sys\nsys.path.insert(0, "
                f"{str(ROOT / 'src')!r})\nimport repro\n"
                f"print(json.dumps(repro.uarch.Stats.__module__))", ROOT,
            ) == "repro.uarch.stats"

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


def test_sampled_jobs_have_no_entry_point_of_their_own():
    # A whole sampled job runs through ParallelRunner.run like any other.
    from repro.harness import parallel
    from repro.uarch import sampling

    import repro.harness

    for name in ("run_sampled_jobs", "expand_sampled_job"):
        assert name not in repro.harness.__all__
        assert not hasattr(parallel, name)
    for name in ("selection", "selections"):
        assert not hasattr(parallel.ParallelRunner(jobs=1), name)
    assert not hasattr(sampling.WarmSweep, "result")


def test_quick_compare_runs_on_its_own_imports():
    import repro

    report = repro.quick_compare("gcc", scale=400)
    assert report.startswith("benchmark 'gcc' (400 dynamic instructions):")
    assert "REESE+2 ALUs IPC" in report
