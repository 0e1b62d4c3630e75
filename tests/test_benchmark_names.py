"""The package names that the benchmark reads still exist.

``perfbench/layers.py`` takes ``len()`` of the module-level caches in
``CACHES`` on every benchmark pass and wraps the functions in ``TARGETS`` on
a traced one, each by module and attribute name, and
``perfbench/workloads.py`` calls the package through module attributes
(``freealg.theta_word``) and names it imports.  A package change that
renames or deletes one of them would crash every benchmark run; here it
fails a test instead.  ``layers.py`` is imported as the benchmark's own
tests import it, with ``perfbench/`` on ``sys.path``, and only read;
``workloads.py`` is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_package_name_the_benchmark_reads_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    caches = [(mod, attr) for mod, attr in layers.CACHES if mod.startswith("iquantum.")]
    targets = [t for t in layers.TARGETS if t.module.startswith("iquantum.")]
    assert caches and targets
    for mod, attr in caches:
        assert isinstance(len(getattr(importlib.import_module(mod), attr)), int), (mod, attr)
    for t in targets:
        owner = importlib.import_module(t.module)
        if t.owner is not None:
            owner = getattr(owner, t.owner)
        assert callable(getattr(owner, t.attr)), (t.module, t.owner, t.attr)


def test_every_package_name_the_workloads_read_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "iquantum":
            modules.update((a.asname or a.name, f"iquantum.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("iquantum."):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    assert {"cli", "freealg", "iuea", "klr", "qring", "shapes"} <= set(modules)
    assert ("iquantum.freealg", "theta_word") in names and ("iquantum.standard", "STANDARD") in names
    for mod, attr in sorted(names):
        assert hasattr(importlib.import_module(mod), attr), (mod, attr)
