"""Command line front end: JSON config ingestion and subcommand dispatch.

A config is a JSON document::

    {
      "nodes": ["1", "2"],
      "cartan": [[2, -1], [-1, 2]],
      "d": [1, 1],
      "tau": {"1": "2", "2": "1"},
      "varsigma": {"1": 1, "2": 0},
      "orientation": {"1 2": 1},            # optional, arrow counts
      "weights": {"L0": {"lam": {}, "parity": {}}},
      "sign_convention": "body",            # optional, see klr.geometric_qtable
      "N": 20                               # optional truncation order
    }

Words on the command line are whitespace-separated node names with an
optional divided-power suffix, e.g. ``"1^(2) 2"``.  --config takes a file
path or one of the built-in names (split_a1, diag_a1a1, qs_a2, qs_a3,
split_a2).  Exit codes: 0 all checks passed, 1 a computed mismatch or a
rejected computed result, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from . import cache_stats, iuea, klr, selftest, shapes
from .qring import RatQ, qfact
from .satake import (
    IWeight,
    SatakeDatum,
    format_dpword,
    make_datum,
    make_iweight,
    orbit_reps,
    parse_dpword,
    to_word,
    validate,
    weight_sweep,
)
from .standard import STANDARD, builtin_weights


class ConfigError(Exception):
    """A schema or invariant violation, located by a dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"config error at {path}: {message}" if path else f"config error: {message}")


@dataclass
class Config:
    datum: SatakeDatum
    weights: dict[str, IWeight]
    orientation: dict[tuple[str, str], int] | None
    sign_convention: str | None
    order: int
    warnings: tuple[str, ...]


_TOP_KEYS = {"nodes", "cartan", "d", "tau", "varsigma", "orientation", "weights", "sign_convention", "N"}


def _need(obj, key, kind):
    if key not in obj:
        raise ConfigError("", f"missing required key {key!r}")
    val = obj[key]
    if not isinstance(val, kind):
        raise ConfigError(key, f"expected {kind.__name__}")
    return val


def _node_map(obj, nodes, path, kind):
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected object")
    out = {}
    for k, v in obj.items():
        if k not in nodes:
            raise ConfigError(f"{path}.{k}", "not a declared node")
        if not isinstance(v, kind) or isinstance(v, bool):
            raise ConfigError(f"{path}.{k}", f"expected {kind.__name__}")
        out[k] = v
    return out


MAX_ORDER = 1000

# Cold-call timings on a 2-core machine (CHANGES.md): iserre --all on a
# two-node datum takes 0.7 s at a_12 = a_21 = -4, 1.4 s at -6 and 5 s at -8,
# since the relation has degree 1 - a_ij; |a_ij| <= 4 holds for every finite
# and affine Cartan matrix.
MAX_CARTAN = 4
# RatQ reads numerators densely from their lowest exponent, so the cost is
# linear in |lam|: bkl takes 0.7 s at 10^3 and 7 s at 10^6, and the heaviest
# 8-letter pair 1.4 s at 10^3 and 2.3 s at 10^4.
MAX_LAM = 1000
# Degrees scale with d, and so does the cost of a long pair: cold, the
# heaviest 8-letter pair (|lam| = 1000) took 1.6-1.7 s at d = 1, 1.3-2.1 s
# at 4, 2.4-2.8 s at 10 and 10-12 s at 100 on a loaded 2-core machine, and
# over a minute at 1000 (CHANGES.md).  d_i <= 4 holds for every finite and
# affine Cartan matrix with symmetrizers of gcd 1.
MAX_D = 4


def _check_order(order) -> int:
    """The truncation order rule, for the config's N and the --N flag alike."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ValueError("truncation order must be a positive int")
    if order > MAX_ORDER:
        raise ValueError(f"truncation order must be at most {MAX_ORDER}")
    return order


def _located(path: str, make, *args):
    """make(*args), with a ValueError or TypeError it raises reported at path."""
    try:
        return make(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(text: str) -> Config:
    """Parse and validate a JSON config; errors carry dotted field paths."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown key")

    nodes_raw = _need(raw, "nodes", list)
    if not nodes_raw:
        raise ConfigError("nodes", "must not be empty")
    nodes = []
    for k, n in enumerate(nodes_raw):
        if not isinstance(n, str) or not n:
            raise ConfigError(f"nodes[{k}]", "node names are nonempty strings")
        if n in nodes:
            raise ConfigError(f"nodes[{k}]", f"duplicate node {n!r}")
        nodes.append(n)

    cartan = _need(raw, "cartan", list)
    if len(cartan) != len(nodes):
        raise ConfigError("cartan", f"need {len(nodes)} rows")
    for r, row in enumerate(cartan):
        if not isinstance(row, list) or len(row) != len(nodes):
            raise ConfigError(f"cartan[{r}]", f"need a row of {len(nodes)} integers")
        for c, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"cartan[{r}][{c}]", "expected int")
            if r != c and abs(v) > MAX_CARTAN:
                raise ConfigError(
                    f"cartan[{r}][{c}]",
                    f"off-diagonal |a| = {abs(v)}; at most {MAX_CARTAN} is supported",
                )

    d = _need(raw, "d", list)
    if len(d) != len(nodes) or any(not isinstance(v, int) or isinstance(v, bool) for v in d):
        raise ConfigError("d", f"need {len(nodes)} integers")
    for k, v in enumerate(d):
        if v > MAX_D:
            raise ConfigError(f"d[{k}]", f"symmetrizer {v}; at most {MAX_D} is supported")

    tau = _node_map(_need(raw, "tau", dict), nodes, "tau", str)
    for i in nodes:
        if i not in tau:
            raise ConfigError(f"tau.{i}", "missing entry")
        if tau[i] not in nodes:
            raise ConfigError(f"tau.{i}", f"{tau[i]!r} is not a declared node")
    varsigma = _node_map(_need(raw, "varsigma", dict), nodes, "varsigma", int)
    for i in nodes:
        if i not in varsigma:
            raise ConfigError(f"varsigma.{i}", "missing entry")

    orientation = None
    if "orientation" in raw:
        if not isinstance(raw["orientation"], dict):
            raise ConfigError("orientation", "expected object")
        orientation = {}
        for key, count in raw["orientation"].items():
            parts = key.split()
            if len(parts) != 2 or parts[0] not in nodes or parts[1] not in nodes:
                raise ConfigError(f"orientation.{key}", 'keys are "i j" node pairs')
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ConfigError(f"orientation.{key}", "arrow count must be a nonnegative int")
            orientation[(parts[0], parts[1])] = count

    convention = raw.get("sign_convention")
    if "sign_convention" in raw and convention not in ("body", "intro"):
        raise ConfigError("sign_convention", 'must be "body" or "intro"')
    order = _located("N", _check_order, raw.get("N", 20))

    datum = _located("datum", make_datum, nodes, cartan, d, tau, varsigma)
    diags = validate(datum)
    problems = [m for m in diags if not m.startswith("warning:")]
    if problems:
        raise ConfigError("datum", "; ".join(problems))
    if orientation is not None:
        _located("orientation", klr.edge_counts, datum, orientation)

    weights_raw = _need(raw, "weights", dict)
    weights = {}
    for name, entry in weights_raw.items():
        path = f"weights.{name}"
        if not isinstance(entry, dict) or set(entry) - {"lam", "parity"}:
            raise ConfigError(path, 'expected an object with keys "lam" and "parity"')
        lam = _node_map(entry.get("lam", {}), nodes, f"{path}.lam", int)
        for i, v in lam.items():
            if abs(v) > MAX_LAM:
                raise ConfigError(
                    f"{path}.lam.{i}", f"|lam| = {abs(v)}; at most {MAX_LAM} is supported"
                )
        par = _node_map(entry.get("parity", {}), nodes, f"{path}.parity", int)
        weights[name] = _located(path, make_iweight, datum, lam, par)

    return Config(
        datum=datum,
        weights=weights,
        orientation=orientation,
        sign_convention=convention,
        order=order,
        warnings=tuple(m for m in diags if m.startswith("warning:")),
    )


def _builtin_config(name: str) -> str | None:
    """The JSON config of a built-in datum, with its ``builtin_weights``."""
    make = STANDARD.get(name)
    if make is None:
        return None
    datum = make()
    return json.dumps(
        {
            "nodes": list(datum.nodes),
            "cartan": [[datum.a[(i, j)] for j in datum.nodes] for i in datum.nodes],
            "d": [datum.d[i] for i in datum.nodes],
            "tau": datum.tau,
            "varsigma": datum.varsigma,
            "weights": {
                name: {"lam": lam, "parity": parity}
                for name, (lam, parity) in builtin_weights(datum).items()
            },
        }
    )


def load_config(arg: str) -> Config:
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except FileNotFoundError:
        builtin = _builtin_config(arg)
        if builtin is None:
            raise ConfigError(
                "", f"{arg!r} is neither a readable file nor a built-in config name"
            ) from None
        return parse_config(builtin)
    except OSError as exc:
        raise ConfigError("", f"cannot read {arg!r}: {exc}") from None


def _weight(cfg: Config, name: str) -> IWeight:
    if name not in cfg.weights:
        raise ConfigError(f"weights.{name}", "no weight of that name in the config")
    return cfg.weights[name]


def _fmt_iweight(lw: IWeight) -> str:
    parts = [f"{i}={v}" for i, v in lw.lam] + [f"par({i})={p}" for i, p in lw.par]
    return "{" + ", ".join(parts) + "}" if parts else "{zero}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _pair_normalizer(datum: SatakeDatum, dp) -> RatQ:
    """Product of the q-factorials that relate a divided-power word to its
    plain expansion.  Only defined away from involution-fixed nodes; the
    factorials are bar-invariant, so the correction is the same on either
    side of the sesquilinear pairing."""
    c = RatQ.one()
    for i, n in dp:
        if n > 1:
            if datum.tau[i] == i:
                raise ValueError(
                    f"the shape route needs plain letters at the involution-fixed "
                    f"node {i!r}; rewrite {i}^({n}) without a suffix"
                )
            c = c * RatQ(qfact(n, datum.qi(i)))
    return c


# Two 8-letter words on qs_a2 take about 1 s in pair; two of 10 letters run
# past a minute, most of it on the shape route.
MAX_WORD = 8


def _parse_word(text: str, datum: SatakeDatum):
    """A command-line word, at most MAX_WORD letters once divided powers
    are expanded; the letters are counted without expanding them."""
    dp = parse_dpword(text, datum)
    n = sum(k for _, k in dp)
    if n > MAX_WORD:
        raise ValueError(f"word {text!r} has {n} letters; at most {MAX_WORD} are supported")
    return dp


# The shape route enumerates every matching of the two words.  Two 7-letter
# words of one fixed-node letter have 13!! = 135135 of them and take about
# 1.4 s in pair on a 2-core machine; two of 8 letters have 15!! = 2027025
# and run for minutes.  On the built-in data no pair of words within
# MAX_WORD has a count in between.
MAX_SHAPES = 200000


def _check_shapes(datum: SatakeDatum, top, bottom, mode: str = "all") -> None:
    """Refuse a pair of words with more than MAX_SHAPES matchings before any
    is enumerated."""
    n = shapes.shape_count(datum, top, bottom, mode)
    if n > MAX_SHAPES:
        raise ValueError(f"the two words have {n} shapes; at most {MAX_SHAPES} are supported")


def _cmd_pair(cfg: Config, args) -> int:
    datum = cfg.datum
    dp_i = _parse_word(args.i, datum)
    dp_j = _parse_word(args.j, datum)
    _check_shapes(datum, to_word(dp_i), to_word(dp_j))
    lw = _weight(cfg, args.lam)
    norm = _pair_normalizer(datum, dp_i) * _pair_normalizer(datum, dp_j)
    shape_val = shapes.pair_b(datum, to_word(dp_i), to_word(dp_j), lw) / norm
    rec_val = iuea.ipair(
        datum, iuea.b_word(datum, dp_i, lw), iuea.b_word(datum, dp_j, lw)
    )
    match = shape_val == rec_val
    if args.json:
        _emit(
            {
                "i": format_dpword(dp_i),
                "j": format_dpword(dp_j),
                "lambda": args.lam,
                "shape_sum": str(shape_val),
                "recursion": str(rec_val),
                "match": match,
            }
        )
    else:
        print(f"i = {format_dpword(dp_i)}")
        print(f"j = {format_dpword(dp_j)}")
        print(f"shape sum = {shape_val}")
        print(f"recursion = {rec_val}")
        print(f"match = {_fmt_bool(match)}")
    return 0 if match else 1


# iserre --all takes about 6 ms per weight on qs_a2 and 15 ms on qs_a3, so
# 1000 weights take seconds.
MAX_SWEEP = 1000


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise ValueError(f"range must look like -3..3, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _sweep(datum: SatakeDatum, lo: int, hi: int) -> list[IWeight]:
    """weight_sweep over [lo, hi], refused before it is built when it would
    hold more than MAX_SWEEP weights or a lam beyond MAX_LAM."""
    reps, fixed = orbit_reps(datum)
    size = (hi - lo + 1) ** len(reps) * 2 ** len(fixed)
    if size > MAX_SWEEP:
        raise ValueError(
            f"--lambda-range {lo}..{hi} gives {size} weights; at most {MAX_SWEEP} are supported"
        )
    reach = max(abs(lo), abs(hi))
    if reps and reach > MAX_LAM:
        raise ValueError(
            f"--lambda-range {lo}..{hi} gives |lam| = {reach}; at most {MAX_LAM} is supported"
        )
    return weight_sweep(datum, lo, hi)


def _cmd_iserre(cfg: Config, args) -> int:
    datum = cfg.datum
    if args.all:
        jobs = [(i, j) for i in datum.nodes for j in datum.nodes if i != j]
    else:
        if not args.i or not args.j:
            raise ValueError("iserre needs --all or both --i and --j")
        for n in (args.i, args.j):
            if n not in datum.nodes:
                raise ValueError(f"unknown node {n!r}")
        jobs = [(args.i, args.j)]
    if args.lambda_range:
        sweep = _sweep(datum, *_parse_range(args.lambda_range))
    elif args.lam:
        sweep = [_weight(cfg, args.lam)]
    else:
        raise ValueError("iserre needs --lambda NAME or --lambda-range LO..HI")
    rows = []
    ok_all = True
    for i, j in jobs:
        for lw in sweep:
            res = iuea.iserre_check(datum, i, j, lw)
            ok_all = ok_all and res.equal
            rows.append((i, j, lw, res.equal))
    if args.json:
        _emit(
            {
                "rows": [
                    {"i": i, "j": j, "lambda": _fmt_iweight(lw), "equal": eq}
                    for i, j, lw, eq in rows
                ],
                "all_equal": ok_all,
            }
        )
    else:
        for i, j, lw, eq in rows:
            print(f"i={i} j={j} lambda={_fmt_iweight(lw)} equal={_fmt_bool(eq)}")
        print(f"all equal = {_fmt_bool(ok_all)}")
    return 0 if ok_all else 1


def _cmd_bkl(cfg: Config, args) -> int:
    datum = cfg.datum
    i = args.i
    if i not in datum.nodes:
        raise ValueError(f"unknown node {i!r}")
    if datum.tau[i] == i:
        raise ValueError(f"node {i!r} is fixed by the involution; pick a moved node")
    lw = _weight(cfg, args.lam)
    m = 1 - datum.a[(i, datum.tau[i])]
    coeffs = [(n, iuea.f_coeff(datum, n, m, i, lw)) for n in range(m + 1)]
    total = iuea.bkl_sum(datum, i, lw)
    closed = iuea.bkl_product_form(datum, i, lw)
    match = total == closed
    if args.json:
        _emit(
            {
                "i": i,
                "lambda": args.lam,
                "m": m,
                "f": [{"n": n, "value": str(v)} for n, v in coeffs],
                "alternating_sum": str(total),
                "product_form": str(closed),
                "match": match,
            }
        )
    else:
        for n, v in coeffs:
            print(f"f[{n},{m}] = {v}")
        print(f"alternating sum = {total}")
        print(f"product form = {closed}")
        print(f"match = {_fmt_bool(match)}")
    return 0 if match else 1


def _cmd_grdim(cfg: Config, args) -> int:
    datum = cfg.datum
    order = cfg.order if args.N is None else _check_order(args.N)
    if args.end:
        series = shapes.end_grdim(datum, order)
        if args.json:
            _emit({"end_series": str(series), "order": order})
        else:
            print(f"end series = {series}")
        return 0
    if args.lam is None:
        raise ValueError("grdim needs --lambda NAME (or --end)")
    lw = _weight(cfg, args.lam)
    top = to_word(_parse_word(args.i, datum))
    bottom = to_word(_parse_word(args.j, datum))
    _check_shapes(datum, top, bottom)
    try:
        series = shapes.hom_rank(datum, top, bottom, lw, order)
    except ValueError as exc:
        print(f"rank series rejected: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit(
            {
                "i": " ".join(top),
                "j": " ".join(bottom),
                "lambda": args.lam,
                "order": order,
                "series": str(series),
            }
        )
    else:
        print(f"rank series = {series}")
    return 0


def _fmt_arcs(arcs) -> str:
    return " ".join(f"{p}:{q}" for p, q in arcs) if arcs else "-"


def _cmd_shapes(cfg: Config, args) -> int:
    datum = cfg.datum
    top = to_word(_parse_word(args.i, datum))
    bottom = to_word(_parse_word(args.j, datum))
    _check_shapes(datum, top, bottom, args.mode)
    lw = _weight(cfg, args.lam)
    found = shapes.enumerate_shapes(datum, top, bottom, args.mode)
    rows = [
        (sh, shapes.degree(datum, sh, lw))
        for sh in sorted(found, key=lambda s: (s.cups, s.caps, s.props))
    ]
    if args.json:
        _emit(
            {
                "count": len(rows),
                "shapes": [
                    {
                        "cups": [list(a) for a in sh.cups],
                        "caps": [list(a) for a in sh.caps],
                        "props": [list(a) for a in sh.props],
                        "degree": deg,
                    }
                    for sh, deg in rows
                ],
            }
        )
    else:
        for k, (sh, deg) in enumerate(rows):
            print(
                f"[{k}] cups={_fmt_arcs(sh.cups)} caps={_fmt_arcs(sh.caps)} "
                f"props={_fmt_arcs(sh.props)} degree={deg}"
            )
        print(f"count = {len(rows)}")
    return 0


# The bound was set when products of mixed colors went through the twisted
# group algebra and took minutes on seven strands.  Straightened in the
# polynomial ring, the longest crossing after six dots takes about 0.01 s
# through ``run`` on six strands of e(2 1 1 1 1 1), 0.02 s on e(1 2 1 2 1 2)
# and 0.025 s on one color, e(1 1 1 1 1 1) (cold CPU in a fresh process);
# in process it takes 0.03-0.09 s on seven (e(1 1 1 1 1 1 2),
# e(1 2 1 2 1 2 1) with 2142 terms) and 0.26-0.35 s on eight
# (e(1 2 1 2 1 2 1 2), 4427 terms) on a 2-vCPU machine; the bound stays
# until it is derived again from such timings.
MAX_STRANDS = 6
# A product's terms can grow with every factor (the square of a crossing of
# two colors is a polynomial in the dots): 150 factors of "s1 ; s3 ; s5" on
# e(1 2 1 2 1 2) give 17576 terms and take about 5.5 s in process on a
# 2-vCPU machine, where a mul costs about 6-9 us per term (15 s and about
# 20 us per term through the twisted group algebra).  So the factors after
# e(word) and the terms after each product are both bounded; the bounds
# were set when the products inside both took at most 1.4 s cold.
MAX_FACTORS = 64
MAX_TERMS = 1000


def _parse_klr_expr(text: str, qt) -> klr.KLRElem:
    """Parse 'e(1 2) ; x1 ; s1' style products, multiplying downward.

    Every factor keeps the strand count of the head e(word), since each
    product needs matching boundary words, so the strand bound is checked
    there; the factor count is checked before any product and the term count
    after each.
    """
    factors = [f.strip() for f in text.split(";")]
    head = re.fullmatch(r"e\(([^)]*)\)", factors[0]) if factors else None
    if head is None:
        raise ValueError("expression must start with an idempotent e(word)")
    word = tuple(head.group(1).split())
    if len(word) > MAX_STRANDS:
        raise ValueError(f"e(...) has {len(word)} strands; at most {MAX_STRANDS} are supported")
    if len(factors) - 1 > MAX_FACTORS:
        raise ValueError(
            f"expression has {len(factors) - 1} factors after e(...); "
            f"at most {MAX_FACTORS} are supported"
        )
    for tok in word:
        if tok not in qt.datum.nodes:
            raise ValueError(f"unknown node {tok!r} in e(...)")
    cur = klr.e(word)
    for k, tok in enumerate(factors[1:], 1):
        m = re.fullmatch(r"e\(([^)]*)\)", tok)
        if m:
            nxt = klr.e(tuple(m.group(1).split()))
        elif re.fullmatch(r"x\d+", tok):
            cur_word = cur.bottom
            nxt = klr.dot(cur_word, int(tok[1:]))
        elif re.fullmatch(r"s\d+", tok):
            r = int(tok[1:])
            w2 = list(cur.bottom)
            if not 1 <= r <= len(w2) - 1:
                raise ValueError(f"crossing position {r} outside word of length {len(w2)}")
            w2[r - 1], w2[r] = w2[r], w2[r - 1]
            nxt = klr.crossing(tuple(w2), r)
        else:
            raise ValueError(f"unrecognized factor {tok!r}; use e(word), xK, or sK")
        cur = klr.mul(qt, cur, nxt)
        if len(cur.terms) > MAX_TERMS:
            raise ValueError(
                f"the product of e(...) and {k} factors has {len(cur.terms)} terms; "
                f"at most {MAX_TERMS} are supported"
            )
    return cur


def _cmd_klr(cfg: Config, args) -> int:
    qt = klr.geometric_qtable(
        cfg.datum, orientation=cfg.orientation, sign_convention=cfg.sign_convention
    )
    try:
        elem = _parse_klr_expr(args.expr, qt)
    except ArithmeticError as exc:
        print(f"normal form rejected: {exc}", file=sys.stderr)
        return 1
    degs = sorted(elem.degrees(cfg.datum))
    if args.json:
        terms = [
            {"perm": list(b.perm), "dots": list(b.dots), "coeff": c}
            for b, c in sorted(elem.terms.items(), key=lambda it: (it[0].perm, it[0].dots))
        ]
        _emit(
            {
                "top": list(elem.top),
                "bottom": list(elem.bottom),
                "terms": terms,
                "degrees": degs,
            }
        )
    else:
        print(f"top = {' '.join(elem.top) or '-'}")
        print(f"bottom = {' '.join(elem.bottom) or '-'}")
        print(f"normal form = {elem}")
        print(f"degrees = {' '.join(str(d) for d in degs) if degs else '-'}")
    return 0


def _cmd_selftest(cfg, args) -> int:
    timing = (lambda line: print(line, file=sys.stderr)) if args.timings else None
    results = []
    for k, (title, ok, detail) in enumerate(selftest.checks(timing), start=1):
        results.append({"title": title, "ok": ok, "detail": detail})
        if not args.json:
            status = "pass" if ok else "FAIL"
            print(f"[{k:2d}/{len(selftest.CRITERIA)}] {status}  {title}: {detail}")
    ok_all = all(r["ok"] for r in results)
    if args.json:
        _emit({"checks": results, "ok": ok_all})
    else:
        print("selftest: all checks passed" if ok_all else "selftest: FAILED")
    if args.cache_stats:
        print(json.dumps(cache_stats(), sort_keys=True), file=sys.stderr)
    return 0 if ok_all else 1


_HANDLERS = {
    "pair": _cmd_pair,
    "iserre": _cmd_iserre,
    "bkl": _cmd_bkl,
    "grdim": _cmd_grdim,
    "shapes": _cmd_shapes,
    "klr": _cmd_klr,
    "selftest": _cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iquantum",
        description="Exact computations for quasi-split iquantum groups.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument(
            "--config",
            required=True,
            help="config file path or a built-in name (split_a1, qs_a2, ...)",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("pair", help="pairing of two words by both algorithms")
    common(p)
    p.add_argument("--i", default="", help="top word, e.g. '2 1' or '1^(2)'")
    p.add_argument("--j", default="", help="bottom word")
    p.add_argument("--lambda", dest="lam", required=True, help="weight name from the config")

    p = sub.add_parser("iserre", help="sweep the straightening relation")
    common(p)
    p.add_argument("--i", default=None)
    p.add_argument("--j", default=None)
    p.add_argument("--all", action="store_true", help="all ordered node pairs")
    p.add_argument("--lambda", dest="lam", default=None, help="weight name from the config")
    p.add_argument("--lambda-range", default=None, help="orbit coordinate range, e.g. -3..3")

    p = sub.add_parser("bkl", help="straightening coefficients and their closed form")
    common(p)
    p.add_argument("--i", required=True, help="a node moved by the involution")
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("grdim", help="graded rank series")
    common(p)
    p.add_argument("--i", default="", help="top word")
    p.add_argument("--j", default="", help="bottom word")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--end", action="store_true", help="empty-word endomorphism series")
    p.add_argument("--N", type=int, default=None, help="truncation order (default from config)")

    p = sub.add_parser("shapes", help="list boundary matchings with degrees")
    common(p)
    p.add_argument("--i", default="", help="top word")
    p.add_argument("--j", default="", help="bottom word")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mode", choices=shapes.MODES, default="all")

    p = sub.add_parser("klr", help="normal form of a diagram product")
    common(p)
    p.add_argument(
        "--expr", required=True, help="product such as 'e(1 2) ; x1 ; s1', applied downward"
    )

    p = sub.add_parser("selftest", help="run the full cross-check suite")
    p.set_defaults(config=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--timings",
        action="store_true",
        help="wall seconds and garbage collections per check, on stderr",
    )
    p.add_argument(
        "--cache-stats",
        action="store_true",
        help="memo hits, misses and sizes after the checks, one JSON line on stderr",
    )
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # keep "--lambda-range -3..3" parseable despite the leading dash; every
    # occurrence is glued to its value, so the last one wins as usual
    k = 0
    while k < len(argv) - 1:
        if argv[k] == "--lambda-range":
            argv[k : k + 2] = [f"--lambda-range={argv[k + 1]}"]
        k += 1
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = None if args.config is None else load_config(args.config)
        for line in cfg.warnings if cfg else ():
            print(line, file=sys.stderr)
        return _HANDLERS[args.cmd](cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
