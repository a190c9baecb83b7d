"""The import surface: a command loads only what it uses, and never networkx.

Every package ``__init__`` resolves its ``__all__`` lazily, so importing one
module loads only that module's own imports, and networkx (an optional
dependency behind the two graph builders of ``repro.grid.connectivity``)
stays out of every runtime path.  Each check runs in a fresh interpreter,
because the test process itself has long since imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGES = (
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.grid",
    "repro.network",
    "repro.serve",
    "repro.sim",
    "repro.viz",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(statements: str) -> set:
    """Names in ``sys.modules`` after running ``statements`` in a fresh interpreter."""
    code = statements + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return set(json.loads(run_fresh(code).splitlines()[-1]))


def closed_loop_imports() -> str:
    """The ``from repro... import`` statements of ``perfbench/closed_loop.py``."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "closed_loop.py").read_text())
    statements = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
    ]
    assert statements, "closed_loop.py no longer imports repro; update this test"
    return "\n".join(statements)


@pytest.mark.parametrize(
    "statements",
    ["import repro", "import repro.cli", "import repro.serve.server", closed_loop_imports()],
    ids=["repro", "repro.cli", "repro.serve.server", "perfbench-closed-loop"],
)
def test_entry_points_do_not_import_networkx(statements):
    loaded = loaded_after(statements)
    assert "repro" in loaded
    assert "networkx" not in loaded


def test_import_repro_loads_no_command_modules():
    loaded = loaded_after("import repro")
    for module in (
        "repro.experiments.fuzz",
        "repro.experiments.differential",
        "repro.experiments.broker",
        "repro.experiments.catalog",
        "repro.serve.server",
    ):
        assert module not in loaded


def test_every_exported_name_resolves_and_is_listed():
    report = json.loads(
        run_fresh(
            f"""
            import importlib, json
            missing = {{}}
            for package in {PACKAGES!r}:
                module = importlib.import_module(package)
                listed = set(dir(module))
                missing[package] = [
                    name for name in module.__all__
                    if name not in listed or getattr(module, name, None) is None
                ]
            print(json.dumps(missing))
            """
        )
    )
    assert report == {package: [] for package in PACKAGES}


def test_star_import_binds_every_name():
    out = run_fresh(
        """
        import repro
        namespace = {}
        exec("from repro import *", namespace)
        print(sorted(set(repro.__all__) - set(namespace)))
        print(len(repro.__all__))
        """
    )
    unbound, count = out.splitlines()
    assert unbound == "[]"
    assert int(count) > 40


def test_a_submodule_resolves_as_a_package_attribute():
    out = run_fresh(
        """
        import repro.core
        print(round(repro.core.analysis.expected_movements(12, 19), 4))
        """
    )
    assert out.strip() == "2.0139"


def test_every_module_imports_first():
    """No import cycle depends on which module a process loads first."""
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).replace(".__init__", "")
        for path in (SRC / "repro").rglob("*.py")
    )
    out = run_fresh(
        f"""
        import importlib, sys
        failures = []
        for name in {modules!r}:
            for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception as error:
                failures.append(f"{{name}}: {{type(error).__name__}}: {{error}}")
        print(failures)
        """
    )
    assert out.strip() == "[]"


def test_a_closed_loop_run_imports_nothing_after_set_up():
    """The spec-to-record path loads its modules at import, outside any timed region."""
    out = run_fresh(
        closed_loop_imports()
        + """
import sys, tempfile
from pathlib import Path
from repro.experiments.lifetime import SMOKE_CONFIG
before = set(sys.modules)
with tempfile.TemporaryDirectory() as directory:
    figures.run_section5_experiment(
        spare_values=(4,),
        config=ScenarioConfig(columns=4, rows=4, deployed_count=60, seed=1),
        trials=1,
        cache=RunCache(Path(directory)),
    )
run_lifetime_experiment(config=SMOKE_CONFIG, trials=1, max_rounds=20).format()
print(sorted(set(sys.modules) - before))
"""
    )
    assert out.strip() == "[]"


NETWORKX_BLOCKED = 'import sys\nsys.modules["networkx"] = None\n'


def test_quickstart_runs_without_networkx():
    out = run_fresh(
        NETWORKX_BLOCKED
        + """
import runpy
runpy.run_path("examples/quickstart.py", run_name="__main__")
"""
    )
    assert "head overlay connected : True" in out


def test_lifetime_smoke_runs_without_networkx():
    out = run_fresh(
        NETWORKX_BLOCKED
        + """
from repro.experiments.lifetime import run_lifetime_smoke
print(run_lifetime_smoke())
"""
    )
    assert out.strip() == "[]"
