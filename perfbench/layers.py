"""The package layers the traced run wraps, and the per-layer metrics.

Layers are the modules ``qring``, ``satake``, ``freealg``, ``iuea``,
``shapes``, ``klr`` and ``cli``.  ``TARGETS`` names the functions wrapped
in each; ``PER_LAYER`` lists every metric with its unit and the workloads it
is measured on, which the tests use to check that each one records a call.
Cache sizes are read from outside with ``len()``; nothing here needs a hook
inside the package, and nothing imports it at module load.
"""

from __future__ import annotations

import sys

from tracer import SPAN, Target

# Workloads a metric is expected to be nonzero on.
PAIRING, SHAPE, OPERATOR, CLI = "pairing_sweep", "shape_series", "operator_products", "cli_cold"

CACHES = (
    ("iquantum.freealg", "_WORD_PAIR_CACHE"),
    ("iquantum.klr", "_PSI_CACHE"),
    ("iquantum.klr", "_ENTRY_CACHE"),
    ("iquantum.klr", "_ELEM_CACHE"),
    ("iquantum.klr", "_FIELDS"),
)


def _count(extra: dict, key: str, n: int) -> None:
    extra[key] = extra.get(key, 0) + n


def _ratq(extra, args, kwargs, out):
    den = args[2] if len(args) > 2 else kwargs.get("den")
    _count(extra, "monomial_den", den is None or len(den.c) == 1)


def _word_pair(extra, args, kwargs, out):
    # calls that reach the memo table; the others return before the lookup
    _, wx, wy = args
    _count(extra, "lookups", bool(wx) and len(wx) == len(wy) and sorted(wx) == sorted(wy))


def _shapes_out(extra, args, kwargs, out):
    _count(extra, "shapes_out", len(out))


SYMPY_FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)

TARGETS = [
    Target("iquantum.qring", "__init__", "qring.RatQ", owner="RatQ", observe=_ratq),
    Target("iquantum.qring", "_poly_gcd", "qring._poly_gcd"),
    Target("iquantum.qring", "expand", "qring.expand"),
    Target("iquantum.satake", "apply_word", "satake.apply_word"),
    Target("iquantum.freealg", "_word_pair", "freealg._word_pair", observe=_word_pair),
    Target("iquantum.freealg", "pair", "freealg.pair"),
    Target("iquantum.freealg", "_derivation", "freealg.derivation"),
    Target("iquantum.iuea", "b_word", "iuea.b_word", SPAN),
    Target("iquantum.iuea", "act_b", "iuea.act_b"),
    Target("iquantum.iuea", "ipair", "iuea.ipair", SPAN),
    Target("iquantum.iuea", "iserre_check", "iuea.iserre_check", SPAN),
    Target("iquantum.shapes", "enumerate_shapes", "shapes.enumerate_shapes", observe=_shapes_out),
    Target("iquantum.shapes", "degree", "shapes.degree"),
    Target("iquantum.shapes", "_assemble", "shapes._assemble"),
    Target("iquantum.klr", "mul", "klr.mul", SPAN),
    Target("iquantum.klr", "_expand_psi", "klr._expand_psi"),
    Target("iquantum.klr", "_extract", "klr._extract"),
    *(
        Target("sympy.polys.fields", op, "klr.sympy_field", owner="FracElement")
        for op in SYMPY_FIELD_OPS
    ),
    Target("iquantum.cli", "run", "cli.run", SPAN),
]

# (metric, unit, workloads it must be nonzero on)
PER_LAYER = (
    ("qring.RatQ.calls", "count", (PAIRING, SHAPE)),
    ("qring.RatQ.self_s", "s", (PAIRING, SHAPE)),
    ("qring.RatQ.monomial_den_frac", "ratio", (PAIRING, SHAPE)),
    ("qring._poly_gcd.calls", "count", (PAIRING, SHAPE)),
    ("qring._poly_gcd.self_s", "s", (PAIRING, SHAPE)),
    ("qring.expand.calls", "count", (SHAPE,)),
    ("qring.expand.self_s", "s", (SHAPE,)),
    ("satake.apply_word.calls", "count", (PAIRING, SHAPE)),
    ("satake.apply_word.self_s", "s", (PAIRING, SHAPE)),
    ("freealg._word_pair.calls", "count", (PAIRING, SHAPE)),
    ("freealg._word_pair.self_s", "s", (PAIRING, SHAPE)),
    ("freealg._word_pair.hit_frac", "ratio", (PAIRING, SHAPE)),
    ("freealg.pair.self_s", "s", (PAIRING, SHAPE)),
    ("freealg.derivation.calls", "count", (PAIRING,)),
    ("freealg.derivation.self_s", "s", (PAIRING,)),
    ("iuea.b_word.calls", "count", (PAIRING,)),
    ("iuea.b_word.self_s", "s", (PAIRING,)),
    ("iuea.act_b.calls", "count", (PAIRING,)),
    ("iuea.act_b.self_s", "s", (PAIRING,)),
    ("iuea.ipair.self_s", "s", (PAIRING,)),
    ("iuea.iserre_check.self_s", "s", (PAIRING,)),
    ("shapes.enumerate_shapes.calls", "count", (SHAPE, PAIRING)),
    ("shapes.enumerate_shapes.self_s", "s", (SHAPE, PAIRING)),
    ("shapes.enumerate_shapes.shapes_out", "count", (SHAPE, PAIRING)),
    ("shapes.degree.calls", "count", (SHAPE, PAIRING)),
    ("shapes.degree.self_s", "s", (SHAPE, PAIRING)),
    ("shapes._assemble.self_s", "s", (SHAPE, PAIRING)),
    ("klr.mul.calls", "count", (OPERATOR,)),
    ("klr.mul.self_s", "s", (OPERATOR,)),
    ("klr._expand_psi.calls", "count", (OPERATOR,)),
    ("klr._expand_psi.self_s", "s", (OPERATOR,)),
    ("klr._expand_psi.hit_frac", "ratio", (OPERATOR,)),
    ("klr._extract.calls", "count", (OPERATOR,)),
    ("klr._extract.self_s", "s", (OPERATOR,)),
    ("klr.sympy_field.self_s", "s", (OPERATOR,)),
    ("klr.cache_entries", "count", (OPERATOR,)),
    ("cli.interpreter_s", "s", (CLI,)),
    ("cli.import_s", "s", (CLI, PAIRING, SHAPE, OPERATOR)),
    ("cli.run.self_s", "s", (CLI,)),
    ("trace.overhead_s", "s", (PAIRING, SHAPE, OPERATOR, CLI)),
)


def cache_sizes() -> dict[str, int]:
    """``len()`` of every module-level cache, keyed ``module.NAME``."""
    out = {}
    for mod, name in CACHES:
        m = sys.modules.get(mod)
        out[f"{mod.split('.')[-1]}.{name}"] = len(getattr(m, name)) if m else 0
    return out


def merge_totals(into: dict, more: dict) -> None:
    """Add one set of ``Tracer.totals()`` rows into another."""
    for name, row in more.items():
        dst = into.setdefault(name, {"calls": 0, "self_s": 0.0, "extra": {}})
        dst["calls"] += row["calls"]
        dst["self_s"] += row["self_s"]
        for k, v in row["extra"].items():
            dst["extra"][k] = dst["extra"].get(k, 0) + v


def layer_metrics(totals: dict, growth: dict, final: dict, cli_s: dict, overhead_s: float) -> dict:
    """Every ``PER_LAYER`` metric from tracer totals, cache growth over the
    run, final cache sizes, the cli timings and the tracing overhead.  A
    metric with nothing to measure on a workload reads 0."""

    def row(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "extra": {}})

    def frac(num, den):
        return num / den if den else 0.0

    vals = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            vals[name] = row(layer)[stat]
    ratq = row("qring.RatQ")
    vals["qring.RatQ.monomial_den_frac"] = frac(ratq["extra"].get("monomial_den", 0), ratq["calls"])
    lookups = row("freealg._word_pair")["extra"].get("lookups", 0)
    vals["freealg._word_pair.hit_frac"] = frac(
        lookups - growth.get("freealg._WORD_PAIR_CACHE", 0), lookups
    )
    psi = row("klr._expand_psi")["calls"]
    vals["klr._expand_psi.hit_frac"] = frac(psi - growth.get("klr._PSI_CACHE", 0), psi)
    vals["shapes.enumerate_shapes.shapes_out"] = row("shapes.enumerate_shapes")["extra"].get(
        "shapes_out", 0
    )
    vals["klr.cache_entries"] = sum(v for k, v in final.items() if k.startswith("klr."))
    vals["cli.interpreter_s"] = cli_s.get("interpreter_s", 0.0)
    vals["cli.import_s"] = cli_s.get("import_s", 0.0)
    vals["trace.overhead_s"] = overhead_s
    return {name: {"value": vals[name], "unit": unit} for name, unit, _ in PER_LAYER}
