"""Properties of the source tree: what the package imports, and the names
the benchmark's tracer wraps."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vericov"


def test_runtime_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "vericov" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, module))
    assert foreign == []


def test_benchmark_tracer_bindings_resolve():
    # perfbench/spans.py wraps these functions at these module bindings;
    # a binding that disappears breaks the benchmark's traced run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _span in spans.BINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.BINDINGS
    assert missing == []
