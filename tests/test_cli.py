"""Config diagnostics, subcommand output, and exit codes."""

import gc
import json
import os
import re
import subprocess
import sys
import time

import pytest

import iquantum
from iquantum import cli, klr, selftest, shapes
from iquantum.qring import PowerSeriesTrunc
from iquantum.standard import STANDARD


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_config_builtin():
    cfg = cli.parse_config(cli._builtin_config("qs_a2"))
    assert cfg.datum.nodes == ("1", "2")
    assert cfg.sign_convention is None
    assert cfg.order == 20
    assert set(cfg.weights) == {"L0", "L1"}
    assert cfg.weights["L1"].lam_of("1") == 1


@pytest.mark.parametrize("name", list(STANDARD))
def test_builtin_config_is_the_registry_datum(name):
    cfg = cli.parse_config(cli._builtin_config(name))
    assert cfg.datum == STANDARD[name]()
    assert cfg.sign_convention is None
    assert cfg.warnings == ()


def test_parse_config_split_varsigma():
    cfg = cli.parse_config(cli._builtin_config("split_a1"))
    assert cfg.datum.varsigma["1"] == -1


def test_parse_config_json_error():
    with pytest.raises(cli.ConfigError) as ei:
        cli.parse_config("{not json")
    assert "not valid JSON" in str(ei.value)


def base_config():
    return json.loads(cli._builtin_config("qs_a2"))


def test_parse_config_paths():
    # each patch updates the qs_a2 config, missing drops its key, and a
    # patch that is not a dict replaces the whole document
    missing = object()
    checks = [
        ([1, 2], "", "top level must be an object"),
        (dict(nodes=missing), "", "missing required key 'nodes'"),
        (dict(nodes="1 2"), "nodes", "expected list"),
        (dict(nodes=[]), "nodes", "must not be empty"),
        (dict(nodes=[1, "2"]), "nodes[0]", "nonempty strings"),
        (dict(nodes=["1", "1"]), "nodes[1]", "duplicate node '1'"),
        (dict(tau={"1": "9", "2": "1"}), "tau.1", "not a declared node"),
        (dict(tau={"1": "2"}), "tau.2", "missing entry"),
        (dict(varsigma={"1": 1}), "varsigma.2", "missing entry"),
        (dict(sign_convention="magic"), "sign_convention", '"body" or "intro"'),
        (dict(sign_convention=None), "sign_convention", '"body" or "intro"'),
        (dict(cartan=[[2, -1]]), "cartan", "need 2 rows"),
        (dict(cartan=[[2, -1], [-1]]), "cartan[1]", "need a row of 2 integers"),
        (dict(cartan=[[2, -1], [-1, "2"]]), "cartan[1][1]", "expected int"),
        (dict(d=[1]), "d", "need 2 integers"),
        (dict(d=[5, 5]), "d[0]", "symmetrizer 5; at most 4 is supported"),
        (dict(orientation=[["1", "2"]]), "orientation", "expected object"),
        (dict(orientation={"1 9": 1}), "orientation.1 9", "node pairs"),
        (dict(orientation={"1 2": -1}), "orientation.1 2", "nonnegative int"),
        # the arrow counts are checked against the Cartan matrix
        (
            dict(orientation={"1 2": 3}),
            "orientation",
            "orientation of (1, 2) has 3+0 edges, expected 1",
        ),
        (dict(N=0), "N", "positive int"),
        (dict(bogus=3), "bogus", "unknown key"),
        # breaking the varsigma sum rule is a datum-level invariant
        (dict(varsigma={"1": 0, "2": 0}), "datum", "varsigma sum rule"),
        (
            dict(weights={"W": {"lam": {}, "parity": {}, "mu": {}}}),
            "weights.W",
            'keys "lam" and "parity"',
        ),
        (
            dict(weights={"W": {"lam": {"1": 1001}, "parity": {}}}),
            "weights.W.lam.1",
            "|lam| = 1001; at most 1000 is supported",
        ),
        (dict(weights={"W": {"lam": 3}}), "weights.W.lam", "expected object"),
        (dict(weights={"W": {"lam": []}}), "weights.W.lam", "expected object"),
        (dict(weights={"W": {"lam": "x"}}), "weights.W.lam", "expected object"),
        (dict(weights={"W": {"parity": 3}}), "weights.W.parity", "expected object"),
        (dict(weights={"W": {"parity": []}}), "weights.W.parity", "expected object"),
        (dict(weights={"W": {"parity": "x"}}), "weights.W.parity", "expected object"),
    ]
    for patch, path, message in checks:
        doc = patch
        if isinstance(patch, dict):
            doc = {k: v for k, v in {**base_config(), **patch}.items() if v is not missing}
        with pytest.raises(cli.ConfigError) as ei:
            cli.parse_config(json.dumps(doc))
        assert ei.value.path == path, (patch, ei.value.path)
        assert message in ei.value.message, (patch, ei.value.message)


def test_parse_config_weight_errors_name_the_node():
    doc = json.loads(cli._builtin_config("split_a1"))
    doc["weights"]["BAD"] = {"lam": {}, "parity": {}}
    with pytest.raises(cli.ConfigError) as ei:
        cli.parse_config(json.dumps(doc))
    assert ei.value.path == "weights.BAD"
    assert "node 1" in ei.value.message

    doc = json.loads(cli._builtin_config("split_a1"))
    doc["weights"]["W"] = {"lam": {"1": 1}, "parity": {"1": 0}}
    with pytest.raises(cli.ConfigError) as ei:
        cli.parse_config(json.dumps(doc))
    assert ei.value.path == "weights.W"


def test_pair_output_and_determinism(capsys):
    argv = ("pair", "--config", "qs_a2", "--i", "2 1", "--j", "", "--lambda", "L0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "match = true" in out
    code2, out2, _ = run_cli(capsys, *argv)
    assert (code2, out2) == (code, out)


def test_pair_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "pair", "--config", "qs_a2", "--i", "2 1", "--j", "", "--lambda", "L0",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["shape_sum"] == doc["recursion"]
    assert json.dumps(doc, sort_keys=True) == out.strip()


def test_pair_divided_power_words(capsys):
    # at a node moved by the involution the divided power is a plain
    # q-factorial rescaling and both routes still agree exactly
    code, out, _ = run_cli(
        capsys,
        "pair", "--config", "qs_a2", "--i", "1^(2)", "--j", "1 1", "--lambda", "L0",
    )
    assert code == 0
    assert "i = 1^(2)" in out
    assert "match = true" in out
    # at a fixed node there is no factorial bridge to the plain word
    code, _, err = run_cli(
        capsys,
        "pair", "--config", "split_a1", "--i", "1^(2)", "--j", "", "--lambda", "L0",
    )
    assert code == 2
    assert "plain letters" in err


def test_iserre_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        "iserre", "--config", "diag_a1a1", "--all", "--lambda-range", "-1..1",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "all equal = true"


def test_iserre_repeated_lambda_range_last_wins(capsys):
    argv = ("iserre", "--config", "qs_a2", "--i", "1", "--j", "2")
    code, out, err = run_cli(
        capsys, *argv, "--lambda-range", "-1..1", "--lambda-range", "-2..2"
    )
    assert code == 0, err
    assert len(out.splitlines()) == 6
    assert (code, out) == run_cli(capsys, *argv, "--lambda-range", "-2..2")[:2]


def test_iserre_single_pair_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "iserre", "--config", "qs_a2", "--i", "1", "--j", "2", "--lambda", "L1",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_equal"] is True
    assert len(doc["rows"]) == 1


def test_bkl(capsys):
    code, out, _ = run_cli(capsys, "bkl", "--config", "qs_a2", "--i", "1", "--lambda", "L1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2
    assert len(doc["f"]) == 3
    assert doc["match"] is True
    # a fixed node cannot carry the coefficient formulas
    code, _, err = run_cli(capsys, "bkl", "--config", "split_a1", "--i", "1", "--lambda", "L0")
    assert code == 2
    assert "fixed" in err


def test_grdim_end_series(capsys):
    code, out, _ = run_cli(capsys, "grdim", "--config", "split_a1", "--end", "--N", "10")
    assert code == 0
    assert out.strip() == "end series = +1*q^0 +1*q^2 +1*q^4 +2*q^6 +2*q^8 +3*q^10"


@pytest.mark.parametrize("flag", ["-3", "0"])
def test_grdim_order_flag_follows_the_config_rule(capsys, flag):
    code, out, err = run_cli(capsys, "grdim", "--config", "split_a1", "--end", "--N", flag)
    assert code == 2 and out == ""
    assert err.strip() == "error: truncation order must be a positive int"


def test_truncation_order_is_bounded(capsys):
    assert cli._check_order(cli.MAX_ORDER) == cli.MAX_ORDER
    over = str(cli.MAX_ORDER + 1)
    code, out, err = run_cli(capsys, "grdim", "--config", "split_a1", "--end", "--N", over)
    assert code == 2 and out == ""
    assert err.strip() == "error: truncation order must be at most 1000"
    doc = base_config()
    doc["N"] = cli.MAX_ORDER + 1
    with pytest.raises(cli.ConfigError) as ei:
        cli.parse_config(json.dumps(doc))
    assert ei.value.path == "N"
    assert "at most 1000" in ei.value.message


@pytest.mark.parametrize("token", ["1^(x)", "1^()", "1^(2.5)"])
def test_pair_rejects_a_non_integer_multiplicity(capsys, token):
    code, out, err = run_cli(
        capsys, "pair", "--config", "qs_a2", "--i", token, "--j", "1", "--lambda", "L0"
    )
    assert code == 2 and out == ""
    assert err.strip() == f"error: malformed divided-power suffix in {token!r}"


def _collect_twice():
    gc.collect()
    gc.collect()
    return True, "0 fail"


@pytest.fixture
def collector_off():
    """No automatic collection, so a check counts exactly its own."""
    gc.disable()
    yield
    gc.enable()


def test_selftest_timings_go_to_stderr_only(capsys, monkeypatch, collector_off):
    fake = (("first check", lambda: (True, "3 agree")), ("second check", _collect_twice))
    monkeypatch.setattr(selftest, "CRITERIA", fake)
    callbacks = list(gc.callbacks)
    for extra in ([], ["--json"]):
        code, plain_out, plain_err = run_cli(capsys, "selftest", *extra)
        assert code == 0 and plain_err == ""
        code, timed_out, timed_err = run_cli(capsys, "selftest", *extra, "--timings")
        assert code == 0
        assert timed_out == plain_out
        assert re.sub(r"\d+\.\d\d s", "T s", timed_err).splitlines() == [
            "[ 1/2] T s  first check  (gc: 0 in T s)",
            "[ 2/2] T s  second check  (gc: 2 in T s)",
        ]
        assert gc.callbacks == callbacks
        if not extra:
            # both streams count the criteria that run
            assert plain_out.splitlines() == [
                "[ 1/2] pass  first check: 3 agree",
                "[ 2/2] pass  second check: 0 fail",
                "selftest: all checks passed",
            ]


CACHE_NAMES = {
    "freealg._WORD_PAIR_CACHE",
    "iuea._B_WORD_MEMO",
    "shapes._ARC_MEMO",
    "shapes._SHAPE_MEMO",
    "klr._STEP_MEMO",
    "klr._REWORD_MEMO",
    "klr._PSI_CACHE",
    "klr._ENTRY_CACHE",
    "klr._ELEM_CACHE",
    "klr._FIELDS",
}


def test_selftest_cache_stats_go_to_stderr_only(capsys, monkeypatch):
    cfg = cli.parse_config(cli._builtin_config("qs_a2"))

    def shape_check():
        value = shapes.pair_b(cfg.datum, ("1", "2", "1"), ("2", "1", "1"), cfg.weights["L1"])
        return True, str(value)

    fake = (("first check", lambda: (True, "3 agree")), ("shape check", shape_check))
    monkeypatch.setattr(selftest, "CRITERIA", fake)
    for extra in ([], ["--json"]):
        iquantum.clear_caches()
        code, plain_out, plain_err = run_cli(capsys, "selftest", *extra)
        assert code == 0 and plain_err == ""
        iquantum.clear_caches()
        code, counted_out, counted_err = run_cli(capsys, "selftest", *extra, "--cache-stats")
        assert code == 0
        assert counted_out == plain_out
        lines = counted_err.splitlines()
        assert len(lines) == 1
        stats = json.loads(lines[0])
        assert set(stats) == CACHE_NAMES == set(iquantum.cache_stats())
        assert all(set(v) == {"hits", "misses", "size"} for v in stats.values())
        arcs = stats["shapes._ARC_MEMO"]
        assert arcs["misses"] == arcs["size"] > 0 and arcs["hits"] > 0


def test_grdim_word_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "grdim", "--config", "qs_a2", "--i", "1", "--j", "1", "--lambda", "L0",
        "--N", "6",
    )
    assert code == 0
    assert out.strip() == "rank series = +1*q^0 +1*q^2 +1*q^4 +1*q^6"
    code, out, _ = run_cli(
        capsys,
        "grdim", "--config", "qs_a2", "--i", "1", "--j", "1", "--lambda", "L0",
        "--N", "6", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "i": "1",
        "j": "1",
        "lambda": "L0",
        "order": 6,
        "series": "+1*q^0 +1*q^2 +1*q^4 +1*q^6",
    }


def test_grdim_reports_a_rejected_rank_series(capsys, monkeypatch):
    # a series with a negative coefficient cannot count basis elements
    monkeypatch.setattr(shapes, "expand", lambda f, how, n: PowerSeriesTrunc(n, {0: -1}))
    code, out, err = run_cli(
        capsys, "grdim", "--config", "qs_a2", "--i", "1 2", "--j", "1 2", "--lambda", "L0"
    )
    assert (code, out) == (1, "")
    assert err == "rank series rejected: negative coefficient -1 at q^0 in a rank series\n"


def test_shapes_listing(capsys):
    code, out, _ = run_cli(
        capsys,
        "shapes", "--config", "qs_a2", "--i", "1 2", "--j", "1 2", "--lambda", "L0",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert sorted(sh["degree"] for sh in doc["shapes"]) == [0, 2]


def test_klr_normal_forms(capsys):
    code, out, _ = run_cli(capsys, "klr", "--config", "split_a1", "--expr", "e(1 1) ; s1 ; s1")
    assert code == 0
    assert "normal form = 0" in out
    code, out, _ = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", "e(1 2) ; x1 ; s1")
    assert code == 0
    assert "normal form = (+1)*[x2^1 s(1)]" in out
    assert "degrees = 3" in out


def test_klr_bad_expressions(capsys):
    code, _, err = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", "x1 ; s1")
    assert code == 2 and "idempotent" in err
    code, _, err = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", "e(1 2) ; y3")
    assert code == 2 and "unrecognized factor" in err
    code, _, err = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", "e(1) ; e(2)")
    assert code == 2


def test_klr_reports_a_rejected_normal_form(capsys, monkeypatch):
    # a failed invariant of the straightening is a computed rejection, not a
    # usage error: a reduced word that does not spell the crossing leaves
    # the product's strands on the wrong colors
    monkeypatch.setattr(klr, "_lexmin_word", lambda p: ())
    code, out, err = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", "e(1 2) ; x1 ; s1")
    assert (code, out) == (1, "")
    assert err == "normal form rejected: mismatched strand colors in straightening\n"


def test_klr_strand_count_is_bounded(capsys):
    assert cli.MAX_STRANDS == 6
    word = " ".join(["1"] * (cli.MAX_STRANDS + 1))
    code, out, err = run_cli(capsys, "klr", "--config", "split_a1", "--expr", f"e({word}) ; s1")
    assert code == 2 and out == ""
    assert err.strip() == "error: e(...) has 7 strands; at most 6 are supported"
    word = " ".join(["1"] * cli.MAX_STRANDS)
    code, out, _ = run_cli(capsys, "klr", "--config", "split_a1", "--expr", f"e({word}) ; x5 ; s5")
    assert code == 0 and "normal form = (+1)*[e] + (+1)*[x6^1 s(5)]" in out


@pytest.mark.parametrize("cmd", ["pair", "shapes", "grdim"])
def test_word_length_is_bounded(capsys, monkeypatch, cmd):
    assert cli.MAX_WORD == 8
    to_word = cli.to_word

    def bounded(dp):
        # the bound must hold before a word is expanded: 10^11 letters
        # would exhaust memory
        if sum(n for _, n in dp) > cli.MAX_WORD:
            raise MemoryError("expanded a word longer than MAX_WORD")
        return to_word(dp)

    monkeypatch.setattr(cli, "to_word", bounded)
    # nine letters once the divided powers are expanded, and 10^11
    for long, n in (("1^(5) 2^(4)", 9), ("1^(99999999999)", 99999999999)):
        for flag_i, flag_j in ((long, "1"), ("1", long)):
            code, out, err = run_cli(
                capsys, cmd, "--config", "qs_a2", "--i", flag_i, "--j", flag_j, "--lambda", "L0"
            )
            assert code == 2 and out == ""
            assert err.strip() == f"error: word {long!r} has {n} letters; at most 8 are supported"
    datum = STANDARD["qs_a2"]()
    assert cli._parse_word("1^(4) 2^(3) 1", datum) == (("1", 4), ("2", 3), ("1", 1))


@pytest.mark.parametrize("cmd", ["pair", "shapes", "grdim"])
def test_shape_count_is_bounded(capsys, cmd):
    assert cli.MAX_SHAPES == 200000
    eight = " ".join(["1"] * 8)  # 16 points at one fixed node: 15!! matchings
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, cmd, "--config", "split_a1", "--i", eight, "--j", eight, "--lambda", "L1"
    )
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.strip() == "error: the two words have 2027025 shapes; at most 200000 are supported"
    datum = STANDARD["split_a1"]()
    cli._check_shapes(datum, ("1",) * 7, ("1",) * 7)  # 13!! = 135135 is allowed
    cli._check_shapes(datum, ("1",) * 8, ("1",) * 8, "cup_cap_free")  # 8! = 40320


def test_lambda_range_sweep_is_bounded(capsys):
    assert cli.MAX_SWEEP == 1000
    for name, rng, size in (("qs_a2", "-500..500", 1001), ("qs_a3", "-250..250", 1002)):
        code, out, err = run_cli(
            capsys, "iserre", "--config", name, "--all", "--lambda-range", rng
        )
        assert code == 2 and out == ""
        assert err.strip() == (
            f"error: --lambda-range {rng} gives {size} weights; at most 1000 are supported"
        )
    code, _, err = run_cli(
        capsys, "iserre", "--config", "qs_a2", "--all", "--lambda-range", "-4000..4000"
    )
    assert code == 2 and "8001 weights" in err
    assert len(cli._sweep(STANDARD["qs_a2"](), -500, 499)) == 1000
    assert len(cli._sweep(STANDARD["qs_a3"](), -250, 249)) == 1000
    # no tau-orbit of two nodes: the range does not enter the count
    assert len(cli._sweep(STANDARD["split_a2"](), -4000, 4000)) == 4


def _cold_cli(*argv):
    """python -m iquantum argv in a child with a 30 s timeout and a 2 GB
    address-space limit, so an unbounded input fails the test instead of
    stalling the suite or exhausting memory."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(iquantum.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "iquantum", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=30,
        preexec_fn=limit,
    )


def test_weight_size_is_bounded(tmp_path, capsys):
    # unbounded, |lam| = 10^8 ends in a MemoryError after about 15 s
    assert cli.MAX_LAM == 1000
    doc = base_config()
    doc["weights"] = {"W": {"lam": {"1": -(10**8)}, "parity": {}}}
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    proc = _cold_cli("bkl", "--config", str(path), "--i", "1", "--lambda", "W")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "config error at weights.W.lam.1: |lam| = 100000000; at most 1000 is supported"
    )
    proc = _cold_cli("iserre", "--config", "qs_a2", "--all", "--lambda-range", "99999999..99999999")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "error: --lambda-range 99999999..99999999 gives |lam| = 99999999; "
        "at most 1000 is supported"
    )
    # at the bound
    doc["weights"] = {"W": {"lam": {"1": -1000}, "parity": {}}}
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "bkl", "--config", str(path), "--i", "1", "--lambda", "W")
    assert code == 0 and out
    code, out, _ = run_cli(
        capsys,
        "iserre", "--config", "qs_a2", "--i", "1", "--j", "2", "--lambda-range", "1000..1000",
    )
    assert code == 0 and out


def test_symmetrizer_is_bounded(tmp_path, capsys):
    # unbounded, d = 10^8 runs past a minute, since degrees scale with d
    assert cli.MAX_D == 4
    doc = json.loads(cli._builtin_config("split_a1"))
    path = tmp_path / "d.json"
    doc["d"] = [10**8]
    path.write_text(json.dumps(doc))
    proc = _cold_cli("pair", "--config", str(path), "--i", "1", "--j", "1", "--lambda", "L0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "config error at d[0]: symmetrizer 100000000; at most 4 is supported"
    )
    # at the bound
    doc["d"] = [4]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "pair", "--config", str(path), "--i", "1", "--j", "1", "--lambda", "L0"
    )
    assert code == 0 and "match = true" in out


def test_cartan_entries_are_bounded(tmp_path, capsys):
    # unbounded, a_12 = a_21 = -120 runs for minutes
    assert cli.MAX_CARTAN == 4
    doc = base_config()
    path = tmp_path / "edge.json"
    doc.update(cartan=[[2, -120], [-120, 2]], varsigma={"1": 120, "2": 0})
    path.write_text(json.dumps(doc))
    proc = _cold_cli("bkl", "--config", str(path), "--i", "1", "--lambda", "L1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "config error at cartan[0][1]: off-diagonal |a| = 120; at most 4 is supported"
    )
    # one past the bound, which alone would still answer in about a second
    doc.update(cartan=[[2, -5], [-5, 2]], varsigma={"1": 5, "2": 0})
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "bkl", "--config", str(path), "--i", "1", "--lambda", "L1")
    assert code == 2 and out == ""
    assert err.strip() == (
        "config error at cartan[0][1]: off-diagonal |a| = 5; at most 4 is supported"
    )
    # at the bound: the relation of degree 5 on both ordered pairs
    doc.update(cartan=[[2, -4], [-4, 2]], varsigma={"1": 4, "2": 0})
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "iserre", "--config", str(path), "--all", "--lambda", "L1")
    assert code == 0 and out.count("equal=true") == 2 and "all equal = true" in out


def test_klr_factors_and_terms_are_bounded(capsys):
    # unbounded, these 150 factors take about 21 s and 240 run past 120 s
    assert cli.MAX_FACTORS == 64 and cli.MAX_TERMS == 1000
    head = "e(1 2 1 2 1 2)"
    proc = _cold_cli("klr", "--config", "qs_a2", "--expr", head + " ; s1 ; s3 ; s5" * 50)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "error: expression has 150 factors after e(...); at most 64 are supported"
    )
    code, out, err = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", head + " ; x1" * 65)
    assert code == 2 and out == "" and "65 factors" in err
    code, out, _ = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", head + " ; x1" * 64)
    assert code == 0 and "x1^64" in out
    # within the factor bound, the terms pass the bound at the 58th factor
    expr = head + " ; s1 ; s3 ; s5" * 21 + " ; s1"
    code, out, err = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", expr)
    assert code == 2 and out == ""
    assert err.strip() == (
        "error: the product of e(...) and 58 factors has 1100 terms; at most 1000 are supported"
    )
    # at both bounds: 1000 terms from the 54th factor on, 64 factors
    expr = head + " ; s1 ; s3 ; s5" * 18 + " ; x1" * 10
    code, out, _ = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", expr)
    assert code == 0 and out.count("*[") == 1000


def test_usage_and_config_errors(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    code, _, err = run_cli(capsys, "pair", "--config", "nosuch.json", "--i", "", "--j", "", "--lambda", "L0")
    assert code == 2 and "nosuch.json" in err
    code, _, err = run_cli(capsys, "pair", "--config", "qs_a2", "--i", "7", "--j", "", "--lambda", "L0")
    assert code == 2 and "unknown node" in err
    code, _, err = run_cli(capsys, "pair", "--config", "qs_a2", "--i", "", "--j", "", "--lambda", "NOPE")
    assert code == 2 and ei_path_in(err, "weights.NOPE")
    code, _, err = run_cli(capsys, "iserre", "--config", "qs_a2", "--all")
    assert code == 2
    # selftest runs on the built-in data alone and takes no config
    code, out, err = run_cli(capsys, "selftest", "--config", "qs_a2")
    assert code == 2 and out == ""
    assert err.endswith("error: unrecognized arguments: --config qs_a2\n")
    for argv, message in [
        (("iserre", "--config", "qs_a2", "--all", "--lambda-range", "1to3"),
         "error: range must look like -3..3, got '1to3'"),
        (("iserre", "--config", "qs_a2", "--all", "--lambda-range", "3..1"),
         "error: empty range '3..1'"),
        (("iserre", "--config", "qs_a2", "--i", "1", "--lambda", "L0"),
         "error: iserre needs --all or both --i and --j"),
        (("iserre", "--config", "qs_a2", "--i", "1", "--j", "9", "--lambda", "L0"),
         "error: unknown node '9'"),
        (("bkl", "--config", "qs_a2", "--i", "9", "--lambda", "L0"),
         "error: unknown node '9'"),
        (("grdim", "--config", "qs_a2", "--i", "1", "--j", "1"),
         "error: grdim needs --lambda NAME (or --end)"),
        # an empty --config is a path like any other, not "no config"
        (("grdim", "--config", "", "--end"),
         "config error: '' is neither a readable file nor a built-in config name"),
        # a weight the config lacks names the config section to fix
        (("bkl", "--config", "qs_a2", "--i", "1", "--lambda", "NOPE"),
         "config error at weights.NOPE: no weight of that name in the config"),
        (("klr", "--config", "qs_a2", "--expr", "e(1 9)"),
         "error: unknown node '9' in e(...)"),
        (("klr", "--config", "qs_a2", "--expr", "e(1 2) ; s2"),
         "error: crossing position 2 outside word of length 2"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.strip()) == (2, "", message), argv


def ei_path_in(err, path):
    return path in err


def test_config_file_loading(tmp_path, capsys):
    doc = base_config()
    doc["N"] = 6
    path = tmp_path / "own.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "grdim", "--config", str(path), "--i", "1", "--j", "1", "--lambda", "L0"
    )
    assert code == 0
    assert out.strip().endswith("+1*q^6")


def test_config_warnings_go_to_stderr(tmp_path, capsys):
    # two tau-fixed nodes whose Cartan entries differ mod 2: a warning only
    doc = {
        "nodes": ["1", "2"],
        "cartan": [[2, -1], [-2, 2]],
        "d": [2, 1],
        "tau": {"1": "1", "2": "2"},
        "varsigma": {"1": -1, "2": -1},
        "weights": {"L0": {"lam": {}, "parity": {"1": 0, "2": 0}}},
    }
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "grdim", "--config", str(path), "--end", "--N", "4")
    assert code == 0
    assert out == "end series = +1*q^0 +1*q^2 +2*q^4\n"
    assert err == (
        "warning: a[1,2] and a[2,1] differ mod 2 between tau-fixed nodes; "
        "2-category parameters need not exist\n"
    )


def test_klr_reads_the_config_orientation(tmp_path, capsys):
    doc = base_config()
    doc["orientation"] = {"2 1": 1}
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc))
    expr = "e(1 2) ; s1 ; s1"
    cfg = cli.load_config(str(path))
    assert cfg.orientation == {("2", "1"): 1}
    qt = klr.geometric_qtable(cfg.datum, orientation=cfg.orientation)
    once = klr.mul(qt, klr.e(("1", "2")), klr.crossing(("2", "1"), 1))
    want = klr.mul(qt, once, klr.crossing(("1", "2"), 1))
    code, out, _ = run_cli(capsys, "klr", "--config", str(path), "--expr", expr)
    assert code == 0 and f"normal form = {want}\n" in out
    # the default orientation, 1 -> 2, gives the opposite sign
    code, default, _ = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", expr)
    assert code == 0 and default != out
    assert "normal form = (-1)*[x2^1] + (+1)*[x1^1]" in default


def test_a_config_without_a_convention_gets_the_usable_one(tmp_path, capsys):
    # qs_a3 fixes its middle node and swaps the ends, so "body" is unusable
    doc = json.loads(cli._builtin_config("qs_a3"))
    assert "sign_convention" not in doc
    path = tmp_path / "qs_a3.json"
    argv = ("klr", "--config", str(path), "--expr", "e(1 2 3) ; s1 ; s2")
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    path.write_text(json.dumps({**doc, "sign_convention": "intro"}))
    assert run_cli(capsys, *argv) == (0, out, "")
    path.write_text(json.dumps({**doc, "sign_convention": "body"}))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("convention 'body' is unusable for this datum\n")


def test_every_subcommand_checks_the_orientation(tmp_path, capsys):
    doc = base_config()
    doc["orientation"] = {"1 2": 3}
    path = tmp_path / "three_arrows.json"
    path.write_text(json.dumps(doc))
    message = "config error at orientation: orientation of (1, 2) has 3+0 edges, expected 1\n"
    for argv in [
        ("pair", "--i", "1", "--j", "1", "--lambda", "L0"),
        ("grdim", "--end"),
        ("klr", "--expr", "e(1 2)"),
    ]:
        code, out, err = run_cli(capsys, argv[0], "--config", str(path), *argv[1:])
        assert (code, out, err) == (2, "", message), argv


def test_module_entry_point():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(os.path.abspath(iquantum.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "iquantum", "grdim", "--config", "split_a1", "--end", "--N", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("end series =")
