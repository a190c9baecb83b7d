"""Smoke tests: the shipped examples must run end to end.

The examples are documentation as much as code, so a refactor that breaks
them should fail the test suite.  Every example's ``main()`` runs in-process
here, and each test checks a line of what it prints.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    """Import an example script as a module without executing its __main__ guard."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesAreRunnable:
    def test_examples_directory_contents(self):
        expected = {
            "quickstart.py",
            "jamming_attack.py",
            "sparse_network_recovery.py",
            "baseline_comparison.py",
        }
        present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert expected <= present

    def test_quickstart_runs(self, capsys):
        module = load_example("quickstart")
        module.main()
        output = capsys.readouterr().out
        assert "after SR recovery" in output
        assert "holes remaining        : 0" in output
        assert "analytical model" in output

    def test_sparse_network_recovery_runs(self, capsys):
        module = load_example("sparse_network_recovery")
        module.main()
        output = capsys.readouterr().out
        assert "dual-path" in output.lower()
        assert "holes remaining       : 0" in output

    def test_jamming_attack_runs(self, capsys):
        load_example("jamming_attack").main()
        output = capsys.readouterr().out
        assert "holes after the first jamming attack" in output
        assert table_row(output, "SR")[-1] == "0.00"

    def test_baseline_comparison_runs(self, capsys):
        """The one example that runs VF and SMART: both restore full coverage."""
        load_example("baseline_comparison").main()
        output = capsys.readouterr().out
        assert table_row(output, "VF")[-1] == "0.0"
        assert table_row(output, "SMART")[-1] == "0.0"


def table_row(output: str, scheme: str) -> list:
    """The fields of the results-table line of ``scheme`` (``holes_left`` is last)."""
    rows = [
        fields
        for fields in map(str.split, output.splitlines())
        if fields[:1] == [scheme] and fields[-1].replace(".", "", 1).isdigit()
    ]
    assert len(rows) == 1, f"expected one {scheme} row in:\n{output}"
    return rows[0]
