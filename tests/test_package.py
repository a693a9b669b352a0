"""The package's import contract: lazy exports, lean CLI imports, patchable CLI names."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pubtfp
import pubtfp.cli
from pubtfp.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PARADOX_FILE = SCENARIO_DIR / "paradoxes.yaml"
SIMULATION_FILE = SCENARIO_DIR / "simulate_tech_progress.yaml"

SUBMODULES = ("technology", "efficiency", "measurement", "paradoxes", "accounting", "scenario_io")

# the names a tracer patches on pubtfp.cli, with the subcommand that calls each
TRACED_NAMES = {
    "load_scenarios": "paradox",
    "run_all": "paradox",
    "load_simulation": "simulate",
    "simulate_sna_panel": "simulate",
    "write_panel": "simulate",
    "ingest_panel": "accounting",
    "build_indices": "accounting",
    "write_indices": "accounting",
}
DEFERRED_NAMES = (*TRACED_NAMES, "Tolerances")


def python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on the package under test."""
    package_root = str(Path(pubtfp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    proc = python(code + f"\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    return eval(proc.stdout.splitlines()[-1])


def home_module(name: str):
    """The submodule whose own __all__ lists the name; errors has no __all__."""
    homes = [
        module
        for module in (importlib.import_module(f"pubtfp.{m}") for m in SUBMODULES)
        if name in getattr(module, "__all__", ())
    ]
    assert len(homes) <= 1, (name, homes)
    return homes[0] if homes else importlib.import_module("pubtfp.errors")


class TestExports:
    def test_every_exported_name_is_its_home_modules_object(self):
        names = [name for name in pubtfp.__all__ if name != "__version__"]
        assert len(names) == len(set(names)) == 74
        for name in names:
            assert getattr(pubtfp, name) is getattr(home_module(name), name), name

    def test_star_import_binds_every_name_in_a_fresh_interpreter(self):
        proc = python(
            "import pubtfp\n"
            "namespace = {}\n"
            "exec('from pubtfp import *', namespace)\n"
            "print(sorted(set(pubtfp.__all__) - set(namespace)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_dir_lists_every_exported_name(self):
        assert set(pubtfp.__all__) <= set(dir(pubtfp))

    def test_version_is_a_plain_global(self):
        assert vars(pubtfp)["__version__"] == "0.1.0"

    def test_submodules_import_by_name_in_a_fresh_interpreter(self):
        # the submodule fallback runs only while the attribute is missing
        proc = python(
            "import sys\n"
            "from pubtfp import paradoxes, technology\n"
            "assert paradoxes is sys.modules['pubtfp.paradoxes']\n"
            "assert technology is sys.modules['pubtfp.technology']"
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_names_are_attribute_errors(self):
        assert not hasattr(pubtfp, "no_such_name")
        assert not hasattr(pubtfp.cli, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            pubtfp.no_such_name  # noqa: B018


class TestLeanImports:
    def test_importing_the_cli_loads_no_yaml_and_no_solvers(self):
        heavy = ("yaml", "pubtfp.paradoxes", "pubtfp.accounting", "pubtfp.scenario_io")
        assert loaded_after("import pubtfp.cli", heavy) == []

    def test_importing_the_package_loads_no_submodule(self):
        modules = tuple(f"pubtfp.{m}" for m in (*SUBMODULES, "errors", "cli"))
        assert loaded_after("import pubtfp", ("yaml", *modules)) == []

    def test_report_loads_no_yaml(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert main(["paradox", "--input", str(PARADOX_FILE), "--output", str(report)]) == 0
        capsys.readouterr()
        code = (
            "from pubtfp.cli import main\n"
            f"assert main(['report', '--input', {str(report)!r}]) == 0"
        )
        heavy = ("yaml", "pubtfp.scenario_io", "pubtfp.paradoxes", "pubtfp.efficiency")
        assert loaded_after(code, heavy) == []

    def test_accounting_loads_no_yaml(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        assert main(["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)]) == 0
        capsys.readouterr()
        code = (
            "from pubtfp.cli import main\n"
            f"assert main(['accounting', '--input', {str(panel)!r},"
            f" '--output', {str(tmp_path / 'indices.csv')!r}]) == 0"
        )
        heavy = ("yaml", "pubtfp.scenario_io", "pubtfp.paradoxes", "pubtfp.efficiency")
        assert loaded_after(code, heavy) == []


class TestPatchableCliNames:
    """A replacement set on pubtfp.cli from outside is what main calls."""

    @pytest.fixture
    def argv(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        assert main(["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)]) == 0
        capsys.readouterr()
        return {
            "paradox": ["paradox", "--input", str(PARADOX_FILE), "--output", str(tmp_path / "r.csv")],
            "simulate": ["simulate", "--input", str(SIMULATION_FILE), "--output", str(panel)],
            "accounting": ["accounting", "--input", str(panel), "--output", str(tmp_path / "i.csv")],
        }

    @pytest.mark.parametrize("when", ["before-first-call", "after-first-call"])
    @pytest.mark.parametrize("name", sorted(TRACED_NAMES))
    def test_main_calls_the_patched_name(self, monkeypatch, capsys, argv, name, when):
        # start from an interpreter's state: no deferred name bound yet
        for deferred in DEFERRED_NAMES:
            monkeypatch.delitem(vars(pubtfp.cli), deferred, raising=False)
        command = argv[TRACED_NAMES[name]]
        if when == "after-first-call":
            assert main(command) == 0
        original = getattr(pubtfp.cli, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pubtfp.cli, name, spy)
        assert main(command) == 0
        assert len(calls) == 1
        capsys.readouterr()
