"""The names the benchmark harness reads from the library stay in place.

perfbench/tracing.py wraps the functions in its TARGETS, perfbench/run.py
calls kernels.backend_name, and BENCHMARK.json times the import of each
module named by an ``import.<module>_s`` metric.  A name the library
drops is reported as absent instead of measured, so each must stay.  The
test reads those files and runs none of the harness.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_targets():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _import_metric_modules():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer"] if m["name"].startswith("import.")]
    return [name[len("import."):-len("_s")] for name in names]


def test_every_traced_function_is_a_callable_of_its_module():
    targets = _traced_targets()
    assert targets
    missing = [
        f"{module}.{fn}"
        for module, functions in targets.items()
        for fn in functions
        if not callable(getattr(importlib.import_module(f"rumin_eta.{module}"), fn, None))
    ]
    assert not missing


def test_the_kernel_backend_has_a_name():
    from rumin_eta import kernels

    assert isinstance(kernels.backend_name(), str)


def test_importing_the_cli_loads_every_module_an_import_metric_times():
    modules = _import_metric_modules()
    assert "rumin_eta.cli" in modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import json, sys, rumin_eta.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert not [m for m in modules if m not in loaded]
