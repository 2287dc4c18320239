"""Packaging smoke tests: the public surface a release promises."""

import importlib
import subprocess
import sys

import pytest


class TestPublicSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.10.0"

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module", [
        "repro.addresses", "repro.analysis", "repro.bead", "repro.bqt",
        "repro.core", "repro.fcc", "repro.geo", "repro.isp",
        "repro.lint",
        "repro.longitudinal", "repro.obs", "repro.persist", "repro.stats",
        "repro.synth", "repro.tabular", "repro.usac",
    ])
    def test_subpackage_all_exports_resolve(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} lacks a module docstring"
        for name in getattr(imported, "__all__", []):
            assert getattr(imported, name, None) is not None, \
                f"{module}.{name}"

    def test_cli_entry_point(self):
        from repro.cli import main

        assert callable(main)

    def test_main_module_exists(self):
        assert importlib.util.find_spec("repro.__main__") is not None

    def test_cli_imports_without_scipy(self):
        """scipy is only needed by the correlation experiments: the
        CLI must import where it is not installed."""
        code = ("import sys; sys.modules['scipy'] = None; "
                "import repro.cli; "
                "assert sys.modules['scipy'] is None")
        completed = subprocess.run([sys.executable, "-c", code],
                                   capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
