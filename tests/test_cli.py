"""What the contract record cannot hold about the command line.

``tests/test_contract.py`` replays every plain call, an argv with its
stdout, stderr and exit code, byte for byte.  This module keeps the rest:
``parse_config`` and the bound helpers called as a library, subcommands
run with a package function patched, children run under an address-space
limit and a timeout, a wall-time bound, a config text that is not JSON,
argparse's own usage error and the ``python -m iquantum`` entry point.
"""

import gc
import json
import re
import subprocess
import sys
import time

import pytest

import iquantum
from iquantum import cli, klr, selftest, shapes
from iquantum.qring import PowerSeriesTrunc
from iquantum.standard import STANDARD
from small_data import child_env


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


def test_parse_config_json_error():
    with pytest.raises(cli.ConfigError) as ei:
        cli.parse_config("{not json")
    assert "not valid JSON" in str(ei.value)


def base_config():
    return json.loads(cli._builtin_config("qs_a2"))


def test_parse_config_paths():
    # each patch updates the qs_a2 config; the patches of the contract's
    # CONFIG_ERRORS and BOUND_CONFIGS are replayed there, and its None
    # drops a key, so sign_convention = None is checked here
    checks = [
        (dict(tau={"1": "9", "2": "1"}), "tau.1", "not a declared node"),
        (dict(sign_convention="magic"), "sign_convention", '"body" or "intro"'),
        (dict(sign_convention=None), "sign_convention", '"body" or "intro"'),
        (dict(cartan=[[2, -1], [-1, "2"]]), "cartan[1][1]", "expected int"),
        (dict(d=[1]), "d", "need 2 integers"),
        (dict(orientation={"1 9": 1}), "orientation.1 9", "node pairs"),
        (dict(N=0), "N", "positive int"),
        (dict(N=cli.MAX_ORDER + 1), "N", "at most 1000"),
        (dict(bogus=3), "bogus", "unknown key"),
        # breaking the varsigma sum rule is a datum-level invariant
        (dict(varsigma={"1": 0, "2": 0}), "datum", "varsigma sum rule"),
        (dict(weights={"W": {"lam": 3}}), "weights.W.lam", "expected object"),
        (dict(weights={"W": {"lam": []}}), "weights.W.lam", "expected object"),
        (dict(weights={"W": {"lam": "x"}}), "weights.W.lam", "expected object"),
        (dict(weights={"W": {"parity": 3}}), "weights.W.parity", "expected object"),
        (dict(weights={"W": {"parity": []}}), "weights.W.parity", "expected object"),
        (dict(weights={"W": {"parity": "x"}}), "weights.W.parity", "expected object"),
    ]
    for patch, path, message in checks:
        with pytest.raises(cli.ConfigError) as ei:
            cli.parse_config(json.dumps({**base_config(), **patch}))
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


def test_truncation_order_is_bounded():
    assert cli._check_order(cli.MAX_ORDER) == cli.MAX_ORDER


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


def _rejected_series():
    raise ValueError("negative coefficient -1 at q^2 in a rank series")


def _rejected_normal_form():
    raise ArithmeticError("mismatched strand colors in straightening")


def test_selftest_reports_a_check_that_raises_as_failed(capsys, monkeypatch):
    # a rejected computed result is a failed check with exit 1, not a usage
    # error, and the checks after it still run
    fake = (
        ("first check", lambda: (True, "3 agree")),
        ("series check", _rejected_series),
        ("product check", _rejected_normal_form),
        ("last check", lambda: (True, "1 agrees")),
    )
    monkeypatch.setattr(selftest, "CRITERIA", fake)
    series = "ValueError: negative coefficient -1 at q^2 in a rank series"
    product = "ArithmeticError: mismatched strand colors in straightening"
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[ 1/4] pass  first check: 3 agree",
        f"[ 2/4] FAIL  series check: {series}",
        f"[ 3/4] FAIL  product check: {product}",
        "[ 4/4] pass  last check: 1 agrees",
        "selftest: FAILED",
    ]
    code, out, err = run_cli(capsys, "selftest", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "checks": [
            {"title": "first check", "ok": True, "detail": "3 agree"},
            {"title": "series check", "ok": False, "detail": series},
            {"title": "product check", "ok": False, "detail": product},
            {"title": "last check", "ok": True, "detail": "1 agrees"},
        ],
        "ok": False,
    }


CACHE_NAMES = {
    "freealg._WORD_PAIR_CACHE",
    "iuea._B_WORD_MEMO",
    "shapes._ARC_MEMO",
    "shapes._SHAPE_MEMO",
    "klr._STEP_MEMO",
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


def test_grdim_reports_a_rejected_rank_series(capsys, monkeypatch):
    # a series with a negative coefficient cannot count basis elements
    monkeypatch.setattr(shapes, "expand", lambda f, how, n: PowerSeriesTrunc(n, {0: -1}))
    code, out, err = run_cli(
        capsys, "grdim", "--config", "qs_a2", "--i", "1 2", "--j", "1 2", "--lambda", "L0"
    )
    assert (code, out) == (1, "")
    assert err == "rank series rejected: negative coefficient -1 at q^0 in a rank series\n"


def test_klr_reports_a_rejected_normal_form(capsys, monkeypatch):
    # a failed invariant of the straightening is a computed rejection, not a
    # usage error: a reduced word that does not spell the crossing leaves
    # the product's strands on the wrong colors
    monkeypatch.setattr(klr, "_lexmin_word", lambda p: ())
    code, out, err = run_cli(capsys, "klr", "--config", "qs_a2", "--expr", "e(1 2) ; x1 ; s1")
    assert (code, out) == (1, "")
    assert err == "normal form rejected: mismatched strand colors in straightening\n"


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


def test_lambda_range_sweep_is_bounded():
    assert cli.MAX_SWEEP == 1000
    assert len(cli._sweep(STANDARD["qs_a2"](), -500, 499)) == 1000
    assert len(cli._sweep(STANDARD["qs_a3"](), -250, 249)) == 1000
    # no tau-orbit of two nodes: the range does not enter the count
    assert len(cli._sweep(STANDARD["split_a2"](), -4000, 4000)) == 4


def _cold_cli(*argv):
    """python -m iquantum argv in a child with a 30 s timeout and a 2 GB
    address-space limit, so an unbounded input fails the test instead of
    stalling the suite or exhausting memory.  The child finds the package
    where this process imported it from."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "iquantum", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
        preexec_fn=limit,
    )


def test_weight_size_is_bounded(tmp_path):
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


def test_symmetrizer_is_bounded(tmp_path):
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


def test_cartan_entries_are_bounded(tmp_path):
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


def test_klr_factors_and_terms_are_bounded():
    # unbounded, these 150 factors take about 21 s and 240 run past 120 s
    assert cli.MAX_FACTORS == 64 and cli.MAX_TERMS == 1000
    head = "e(1 2 1 2 1 2)"
    proc = _cold_cli("klr", "--config", "qs_a2", "--expr", head + " ; s1 ; s3 ; s5" * 50)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "error: expression has 150 factors after e(...); at most 64 are supported"
    )


def test_usage_and_config_errors(capsys):
    # argparse's own message; the subcommands' are in the contract record
    code, out, _ = run_cli(capsys, "frobnicate")
    assert (code, out) == (2, "")


def test_module_entry_point():
    proc = _cold_cli("grdim", "--config", "split_a1", "--end", "--N", "4")
    assert proc.returncode == 0
    assert proc.stdout.startswith("end series =")
