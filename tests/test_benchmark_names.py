"""The package names that the benchmark reads still exist.

``perfbench/layers.py`` takes ``len()`` of the module-level caches in
``CACHES`` on every benchmark pass and wraps the functions in ``TARGETS`` on
a traced one, each by module and attribute name.  A package change that
renames or deletes one of them would crash every benchmark run; here it
fails a test instead.  The file is imported as the benchmark's own tests
import it, with ``perfbench/`` on ``sys.path``, and only read.
"""

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
