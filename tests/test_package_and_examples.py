"""Package-level checks and example-script smoke tests."""

import ast
import os
import subprocess
import sys

import pytest

import repro
from repro.version import __version__

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
EXAMPLE_FILES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


class TestPackage:
    def test_version_exported(self):
        assert repro.__version__ == __version__
        assert __version__.count(".") == 2

    def test_top_level_subpackages_importable(self):
        import repro.analysis
        import repro.attacks
        import repro.axnn
        import repro.circuits
        import repro.datasets
        import repro.defenses
        import repro.experiments
        import repro.models
        import repro.multipliers
        import repro.nn
        import repro.quantization
        import repro.robustness

        assert repro.analysis and repro.robustness

    def test_public_init_exports_resolve(self):
        # every name advertised in __all__ must exist on the module
        import repro.analysis as analysis
        import repro.attacks as attacks
        import repro.axnn as axnn
        import repro.defenses as defenses
        import repro.experiments as experiments
        import repro.models as models
        import repro.multipliers as multipliers
        import repro.nn as nn
        import repro.robustness as robustness

        for module in (
            analysis, attacks, axnn, defenses, experiments, models, multipliers, nn,
            robustness,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestExamples:
    def test_expected_examples_present(self):
        assert "quickstart.py" in EXAMPLE_FILES
        assert len(EXAMPLE_FILES) >= 5

    @pytest.mark.parametrize("filename", EXAMPLE_FILES)
    def test_example_parses_and_has_docstring_and_main(self, filename):
        path = os.path.join(EXAMPLES_DIR, filename)
        with open(path) as handle:
            source = handle.read()
        tree = ast.parse(source)
        assert ast.get_docstring(tree), f"{filename} is missing a module docstring"
        function_names = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "main" in function_names, f"{filename} must define main()"

    @pytest.mark.parametrize("filename", EXAMPLE_FILES)
    def test_example_help_runs(self, filename):
        # running with --help exercises the import block and argparse wiring
        # without paying for training
        result = subprocess.run(
            [sys.executable, os.path.join(EXAMPLES_DIR, filename), "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "usage" in result.stdout.lower()


class TestCliEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--version"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert __version__ in result.stdout
