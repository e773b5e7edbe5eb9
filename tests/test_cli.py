"""CLI behaviour: formats, determinism, exit codes, cache workflow."""

import ast
import inspect
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import primetail
from primetail import Tuple, singular_series
from primetail.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return out.strip("\n").split("\n")


def test_singular_json(capsys):
    code, out, _ = run_cli(capsys, "singular", "--tuple", "0,2")
    assert code == 0
    header, rec = (json.loads(l) for l in lines_of(out))
    assert header["subcommand"] == "singular"
    assert header["tuple"] == "0,2"
    assert rec["value"] == pytest.approx(1.3203236317, abs=1e-9)
    assert rec["error_radius"] <= 1e-9
    assert rec["prime_limit"] == 8
    assert rec["admissible"] is True


def test_singular_unsorted_input_normalized(capsys):
    _, out, _ = run_cli(capsys, "singular", "--tuple", "6,2,0")
    header, rec = (json.loads(l) for l in lines_of(out))
    assert rec["tuple"] == "0,2,6"


def test_twelve_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "singular", "--tuple", "0,2")
    assert '"value":1.32032363169' in out


def test_jensen_flag(capsys):
    _, out, _ = run_cli(capsys, "singular", "--tuple", "0,2", "--jensen")
    rec = json.loads(lines_of(out)[1])
    assert rec["jensen_bound"] >= rec["value"]


def test_tkh_negative_seed_exits_2_naming_it(capsys):
    code, out, err = run_cli(capsys, "tkh", "--k", "3", "--h", "20", "--mode", "mc", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: need seed >= 0\n")


def test_byte_identical_reruns(capsys):
    argv = ("tkh", "--k", "3", "--h", "200", "--mode", "mc",
            "--samples", "300", "--seed", "5", "--threads", "3")
    a = run_cli(capsys, *argv)
    b = run_cli(capsys, *argv)
    assert a == b and a[0] == 0


def test_tkh_exact_k1(capsys):
    code, out, _ = run_cli(capsys, "tkh", "--k", "1", "--h", "10")
    rec = json.loads(lines_of(out)[1])
    assert rec["mode"] == "exact"
    assert rec["value_or_mean"] == 10
    assert rec["normalized"] == 1
    assert rec["samples"] is None


def test_tkh_auto_switches_to_mc(capsys):
    code, out, _ = run_cli(capsys, "tkh", "--k", "10", "--h", "100",
                           "--samples", "200", "--seed", "9")
    assert code == 0
    rec = json.loads(lines_of(out)[1])
    assert rec["mode"] == "mc"
    assert rec["samples"] == 200 and rec["seed"] == 9
    scale = math.factorial(10) * math.comb(100, 10)
    assert rec["tkh_estimate"] == pytest.approx(scale * rec["value_or_mean"], rel=1e-9)


def test_tkh_auto_is_exact_where_tkh_exact_fits(capsys):
    # 9999 anchored rows fit tkh_exact's budget, though 2! C(10000, 2) > 10^7
    code, out, _ = run_cli(capsys, "tkh", "--k", "2", "--h", "10000")
    assert code == 0
    assert '"mode":"exact"' in out
    _, exact, _ = run_cli(capsys, "tkh", "--k", "2", "--h", "10000", "--mode", "exact")
    assert out == exact  # the header echoes the resolved mode, so it matches too


def test_tkh_auto_k_above_h_is_zero(capsys):
    code, out, _ = run_cli(capsys, "tkh", "--k", "5", "--h", "3")
    assert code == 0
    rec = json.loads(lines_of(out)[1])
    assert rec["mode"] == "exact" and rec["value_or_mean"] == 0


@pytest.mark.parametrize("argv", [("--k", "171", "--h", "171"), ("--k", "170", "--h", "172", "--mode", "exact")])
def test_tkh_exact_past_float_factorial_prints(capsys, argv):
    # every row is inadmissible, so T = 0, while k! and h^k are past the float range
    code, out, err = run_cli(capsys, "tkh", *argv)
    assert (code, err) == (0, "")
    rec = json.loads(lines_of(out)[1])
    k, h = rec["k"], rec["h"]
    assert rec["mode"] == "exact"
    assert rec["value_or_mean"] == 0 and rec["normalized"] == 0
    # no row contributes a value, a radius or a rounding, so the error is an exact 0
    assert rec["error"] == 0 and '"error":0,' in lines_of(out)[1]


@pytest.mark.parametrize("k, h", [(120, 500), (300, 400)], ids=["k120-h500", "k300-h400"])
def test_tkh_mc_past_float_range_prints(capsys, k, h):
    # k! C(h,k) is past the float range; no sample is admissible, so the mean and T are 0
    code, out, err = run_cli(capsys, "tkh", "--k", str(k), "--h", str(h), "--mode", "mc", "--samples", "100")
    assert (code, err) == (0, "")
    rec = json.loads(lines_of(out)[1])
    assert rec["mode"] == "mc"
    assert rec["value_or_mean"] == rec["normalized"] == rec["tkh_estimate"] == 0


def test_tkh_threads_recorded(capsys):
    _, out, _ = run_cli(capsys, "tkh", "--k", "2", "--h", "30", "--mode", "mc",
                        "--samples", "150", "--seed", "1", "--threads", "4")
    rec = json.loads(lines_of(out)[1])
    assert rec["workers"] == 4


def test_moments_small_x(capsys):
    code, out, _ = run_cli(capsys, "moments", "--x", "10", "--h", "2", "--r-max", "2")
    assert code == 0
    rows = [json.loads(l) for l in lines_of(out)[1:]]
    assert [r["r"] for r in rows] == [1, 2]
    assert rows[0]["empirical"] == 0.9
    assert rows[1]["empirical"] == 1.1
    assert list(rows[0]) == ["x", "h", "lambda", "lambda_eff", "r", "empirical",
                             "predicted", "ratio", "predicted_eff", "ratio_eff"]


def test_moments_tsv(capsys):
    code, out, _ = run_cli(capsys, "moments", "--x", "1000", "--h", "5",
                           "--r-max", "2", "--format", "tsv")
    ls = lines_of(out)
    assert ls[0].startswith("# {")
    assert ls[1] == "# x\th\tlambda\tlambda_eff\tr\tempirical\tpredicted\tratio\tpredicted_eff\tratio_eff"
    assert len(ls) == 4
    assert ls[2].split("\t")[4] == "1"


def test_moments_lambda_resolves_h(capsys):
    _, out, _ = run_cli(capsys, "moments", "--x", "100", "--lambda", "1", "--r-max", "1")
    header = json.loads(lines_of(out)[0])
    assert header["h"] == pytest.approx(math.log(100), rel=1e-12)


def test_h_lambda_mutually_exclusive(capsys):
    code, _, err = run_cli(capsys, "moments", "--x", "100", "--h", "5",
                           "--lambda", "1", "--r-max", "1")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "moments", "--x", "100", "--r-max", "1")
    assert code == 2


def test_tail_rows(capsys):
    code, out, _ = run_cli(capsys, "tail", "--x", "1000", "--h", "7", "--k-max", "3")
    rows = [json.loads(l) for l in lines_of(out)[1:]]
    assert [r["k"] for r in rows] == [0, 1, 2, 3]
    assert rows[0]["I_count"] == 1000
    assert list(rows[0]) == ["x", "h", "lambda", "lambda_eff", "k", "I_count", "pi_k_count",
                             "poisson_tail", "corollary_bound", "poisson_tail_eff",
                             "corollary_bound_eff"]
    assert rows[0]["corollary_bound"] is None
    assert rows[1]["corollary_bound"] > 0
    assert all(r["poisson_tail_eff"] <= 1.0 for r in rows)


def test_hl_single(capsys):
    code, out, _ = run_cli(capsys, "hl", "--tuple", "0,2", "--x", "1000")
    rec = json.loads(lines_of(out)[1])
    assert rec["hits"] == 35
    assert rec["prediction"] > 0
    assert list(rec) == ["tuple", "x", "hits", "prediction", "abs_error", "normalized",
                         "normalized_alt", "lambda_form_error"]
    assert rec["tuple"] == "0,2"


@pytest.mark.parametrize("tup", ["0,2,6,8,12,18,20", "0,2,6,8,12,18,20,26,30,32"])
def test_hl_large_k_prediction(capsys, li_oracle, tup):
    code, out, err = run_cli(capsys, "hl", "--tuple", tup, "--x", "1000000")
    assert code == 0, err
    rec = json.loads(lines_of(out)[1])
    H = Tuple.parse(tup)
    want = singular_series(H, target_error=None).value * li_oracle([10 ** 6], H.k)[0]
    assert rec["prediction"] == pytest.approx(want, rel=1e-7)


def test_hl_sweep_tsv_columns(capsys):
    code, out, _ = run_cli(capsys, "hl", "--tuple", "0,2", "--x", "100",
                           "--sweep", "100:200:50", "--format", "tsv")
    ls = lines_of(out)
    # the columns are the keys of the JSON rows, in their order
    assert ls[1] == ("# tuple\tx\thits\tprediction\tabs_error\tnormalized\tnormalized_alt"
                     "\tlambda_form_error")
    assert len(ls) == 5  # header, columns, three checkpoints
    cells = [l.split("\t") for l in ls[2:]]
    assert all(len(c) == 8 and c[0] == "0,2" for c in cells)
    assert [c[1] for c in cells] == ["100", "150", "200"]
    _, js, _ = run_cli(capsys, "hl", "--tuple", "0,2", "--x", "100", "--sweep", "100:200:50")
    for c, l in zip(cells, lines_of(js)[1:]):
        assert float(c[7]) == json.loads(l)["lambda_form_error"]


def test_hl_fourteen_tuple_exits_0(capsys):
    # the smallest admissible 14-tuple: its S(H) radius, 2.1e-8, is above 1e-9 li_k(x), and hl
    # prints the prediction from the radius it propagates without refusing
    tup = "0,2,6,8,12,18,20,26,30,32,36,42,48,50"
    code, out, err = run_cli(capsys, "hl", "--tuple", tup, "--x", "100000")
    assert (code, err) == (0, "")
    rec = json.loads(lines_of(out)[1])
    assert rec["hits"] == 1
    assert rec["prediction"] == pytest.approx(singular_series(Tuple.parse(tup)).value
                                              * primetail.li_k(100000, 14), rel=1e-12)


def test_hl_sweep_sieves_only_to_the_checkpoints(tmp_path, capsys):
    # with --sweep the checkpoints are all that is reported, so --x may lie
    # far beyond the table
    path = str(tmp_path / "t.pkt")
    assert run_cli(capsys, "sieve-cache", "--limit", "300", "--out", path)[0] == 0
    code, out, err = run_cli(capsys, "hl", "--tuple", "0,2", "--x", "1000000000",
                             "--sweep", "100:200:50", "--cache", path)
    assert code == 0, err
    assert [json.loads(l)["x"] for l in lines_of(out)[1:]] == [100, 150, 200]


@pytest.mark.parametrize("tup, limit", [("0,1,1000004", 18), (f"0,{2 ** 63 - 1}", 8)])
def test_singular_inadmissible_prime_limit(capsys, tup, limit):
    # ruled out at p <= k, so no difference is factored and the limit is 2k^2
    code, out, _ = run_cli(capsys, "singular", "--tuple", tup)
    assert code == 0
    rec = json.loads(lines_of(out)[1])
    assert (rec["value"], rec["prime_limit"], rec["admissible"]) == (0.0, limit, False)


def test_selberg_record(capsys):
    code, out, _ = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "100000",
                           "--epsilon", "0.1")
    rec = json.loads(lines_of(out)[1])
    assert rec["actual"] <= rec["theorem_bound"]
    assert rec["G_z"] > 0 and 0 < rec["W_z"] < 1
    assert rec["alpha1"] == 3
    # epsilon is echoed by the header, not repeated in the record
    assert list(rec) == ["tuple", "x", "z", "G_z", "W_z", "raw_bound", "theorem_bound", "actual",
                         "ratio_actual_over_bound", "alpha1", "L_estimate", "correction_term"]


def test_selberg_gamma_table(capsys):
    code, out, _ = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "10000",
                           "--z", "50", "--gamma-table", "100,1000")
    rows = [json.loads(l) for l in lines_of(out)[1:]]
    assert len(rows) == 3
    assert rows[1]["z"] == 100 and rows[2]["z"] == 1000
    assert rows[1]["gamma_ratio"] > 0


SELBERG_GAMMA_STDOUT = """\
{"subcommand":"selberg","format":"json","tuple":"0,2,6","x":100000,"z":240,"epsilon":null}
{"tuple":"0,2,6","x":100000,"z":240,"G_z":47.7495113875,"W_z":0.00296578898271,\
"raw_bound":2.20801358568e+12,"theorem_bound":10407.635032,"actual":259,\
"ratio_actual_over_bound":0.024885576714,"alpha1":4,"L_estimate":4.81014682178,\
"correction_term":2.98314785551}
{"tuple":"0,2,6","z":1000,"gamma_ratio":0.259282627283}
{"tuple":"0,2,6","z":10000,"gamma_ratio":0.328062577848}
{"tuple":"0,2,6","z":100000,"gamma_ratio":0.387589791207}
{"tuple":"0,2,6","z":1000000,"gamma_ratio":0.438213590018}
"""


def test_selberg_gamma_table_bytes_pinned(capsys):
    # a change of the G(z) or W(z) kernel must not move a printed digit
    code, out, _ = run_cli(capsys, "selberg", "--tuple", "0,2,6", "--x", "100000", "--z", "240",
                           "--gamma-table", "1000,10000,100000,1000000")
    assert code == 0
    assert out == SELBERG_GAMMA_STDOUT


@pytest.mark.parametrize("extra", [("--z", "100000002"),
                                   ("--z", "240", "--gamma-table", "1000,100000002")])
def test_selberg_z_over_prime_budget_exits_3(capsys, monkeypatch, no_sieve, extra):
    def never(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr("primetail.primes.sieve_range", never)
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "1000", *extra)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "primes up to 100000001 exceed the prime budget" in err


def test_selberg_bad_gamma_z_sieves_nothing(capsys, monkeypatch, no_sieve):
    # the gamma rows need no table, so a z below 16 fails before one is loaded or sieved
    def never(*args, **kwargs):
        raise AssertionError("sieved or loaded")

    monkeypatch.setattr("primetail.cli._load_table", never)
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "100000000", "--z", "240",
                             "--gamma-table", "5")
    assert (code, out) == (2, "")
    assert err == "error: need z >= 16\n"


def test_selberg_z_below_two_sieves_nothing(capsys, no_sieve):
    # the report refuses z = 1 before it counts hits, so no table to 10^8 is sieved
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "100000000", "--z", "1")
    assert (code, out, err) == (2, "", "error: need z >= 2\n")


@pytest.mark.parametrize("extra", [("--z", "100"), ("--z", "100", "--gamma-table", "1000"),
                                   ("--z", "3")])
def test_selberg_inadmissible_exits_2(capsys, monkeypatch, extra):
    # nu(3) = 3 for (0, 2, 4): G(z) has no weight at 3 once z > 3, and at z = 3 the theorem
    # bound is a vacuous 0; either way the table is never sieved
    def never(*args, **kwargs):
        raise AssertionError("sieved a table")

    monkeypatch.setattr("primetail.primes.sieve_range", never)
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2,4", "--x", "100000", *extra)
    assert (code, out) == (2, "")
    assert err == "error: nu(3) = 3: the tuple covers every residue class mod 3\n"


def test_selberg_budget_check_sieves_nothing(capsys, monkeypatch):
    # the gamma row at z = 10^6 needs the primes below it once; the budget check needs none
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    real = primetail.primes.primes_upto
    for mod in (primetail.cli, primetail.primes, primetail.selberg, primetail.singular):
        if hasattr(mod, "primes_upto"):
            monkeypatch.setattr(mod, "primes_upto", counted)
    code, out, _ = run_cli(capsys, "selberg", "--tuple", "0,2,6", "--x", "100000", "--z", "240",
                           "--gamma-table", "1000,10000,100000,1000000")
    assert code == 0
    assert out == SELBERG_GAMMA_STDOUT
    assert calls.count(999999) == 1


@pytest.mark.parametrize("extra, message", [
    (("--z", "50", "--epsilon", "0.1"), "give exactly one of z and epsilon"),
    ((), "give exactly one of z and epsilon"),
    (("--epsilon", "0"), "need epsilon > 0"),
    (("--z", "1"), "need z >= 2"),
], ids=["both", "neither", "epsilon-0", "z-1"])
def test_selberg_bad_z_refused_before_gamma_rows(capsys, monkeypatch, no_sieve, extra, message):
    # resolve_z refuses before the gamma row at 10^7 sieves the primes below it
    def never(*args, **kwargs):
        raise AssertionError("computed a gamma row")

    monkeypatch.setattr("primetail.selberg.gamma_cross_check", never)
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "1000", *extra,
                             "--gamma-table", "10000000")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_selberg_small_x_refused_before_gamma_rows(capsys, monkeypatch, no_sieve):
    # the report's x >= 16 refuses before the gamma row at 10^7 sums G over it
    def never(*args, **kwargs):
        raise AssertionError("computed a gamma row")

    monkeypatch.setattr("primetail.selberg.gamma_cross_check", never)
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "10", "--z", "10",
                             "--gamma-table", "10000000")
    assert (code, out, err) == (2, "", "error: need x >= 16\n")


def test_selberg_epsilon_z_over_prime_budget_exits_3(capsys, monkeypatch, no_sieve):
    # epsilon = 0.1 at x = 10^18 sets z = 372759372, past the prime budget
    def never(*args, **kwargs):
        raise AssertionError("computed a gamma row")

    monkeypatch.setattr("primetail.selberg.gamma_cross_check", never)
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", str(10 ** 18),
                             "--epsilon", "0.1", "--gamma-table", "1000000")
    assert (code, out) == (3, "")
    assert err == "error: primes up to 372759371 exceed the prime budget 100000000\n"


def test_selberg_z_epsilon_exclusive(capsys):
    code, _, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "10000",
                           "--z", "50", "--epsilon", "0.1")
    assert code == 2


@pytest.mark.parametrize("epsilon", ["-2", "-1.9", "-1", "0"])
def test_selberg_epsilon_not_positive_exits_2(capsys, epsilon):
    code, out, err = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "100", f"--epsilon={epsilon}")
    assert code == 2
    assert out == ""
    assert err == "error: need epsilon > 0\n"


def test_sieve_cache_workflow(tmp_path, capsys):
    path = str(tmp_path / "t.pkt")
    code, out, _ = run_cli(capsys, "sieve-cache", "--limit", "100000", "--out", path)
    assert code == 0
    rec = json.loads(lines_of(out)[1])
    assert rec["primes"] == 9592
    code, out, _ = run_cli(capsys, "moments", "--x", "50000", "--h", "5",
                           "--r-max", "1", "--cache", path)
    assert code == 0
    # cache too small for the request
    code, _, err = run_cli(capsys, "moments", "--x", "2000000", "--h", "5",
                           "--r-max", "1", "--cache", path)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("moments", "--x", "5000", "--lambda", "1", "--r-max", "3"),
    ("tail", "--x", "5000", "--h", "7.5", "--k-max", "4"),
    ("hl", "--tuple", "0,2,6", "--x", "5000", "--sweep", "100:5000:700"),
    ("selberg", "--tuple", "0,2", "--x", "5000", "--epsilon", "0.1"),
], ids=["moments", "tail", "hl", "selberg"])
def test_no_cache_streams_same_bytes(tmp_path, capsys, monkeypatch, argv):
    # without --cache the passes stream off the sieve: no table is built, and the bytes are
    # those of a run on a saved table
    path = str(tmp_path / "t.pkt")
    assert run_cli(capsys, "sieve-cache", "--limit", "6000", "--out", path)[0] == 0
    cached = run_cli(capsys, *argv, "--cache", path)

    def never(*args, **kwargs):
        raise AssertionError("built a table")

    monkeypatch.setattr("primetail.primes.sieve_range", never)
    assert cached[0] == 0
    assert run_cli(capsys, *argv) == cached


def test_pkt1_table_exits_2_naming_sieve_cache(tmp_path, capsys):
    # the layout before PKT2: one bit per integer in [base, limit], 2 and the even n included
    limit = 10000
    flags = [n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)) for n in range(limit + 1)]
    words = bytes(np.packbits(flags + [False] * (-len(flags) % 64), bitorder="little"))
    path = tmp_path / "old.pkt"
    path.write_bytes(b"PKT1" + struct.pack("<QQ", 0, limit) + words)
    code, out, err = run_cli(capsys, "hl", "--tuple", "0,2", "--x", "1000", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "sieve-cache" in err


def test_truncated_table_exits_2(tmp_path, capsys):
    path = tmp_path / "t.pkt"
    code, _, _ = run_cli(capsys, "sieve-cache", "--limit", "10000", "--out", str(path))
    assert code == 0
    data = path.read_bytes()
    for cut in (len(data) - 3, len(data) - 8, 12):
        path.write_bytes(data[:cut])
        code, _, err = run_cli(capsys, "hl", "--tuple", "0,2", "--x", "1000", "--cache", str(path))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        want = len(data) if cut > 20 else 20
        assert f"{cut} bytes, expected {want}" in err


@pytest.mark.parametrize("argv", [
    ("hl", "--tuple", "0,2", "--x", "5000"),
    ("tail", "--x", "5000", "--h", "7.5", "--k-max", "4"),
], ids=["hl", "tail"])
def test_table_cut_after_load_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the passes read the file a block at a time, so one cut short after load is refused there
    path = tmp_path / "t.pkt"
    assert run_cli(capsys, "sieve-cache", "--limit", "6000", "--out", str(path))[0] == 0
    load = primetail.cli._load_table

    def load_then_cut(args):
        table = load(args)
        path.write_bytes(path.read_bytes()[:100])
        return table

    monkeypatch.setattr("primetail.cli._load_table", load_then_cut)
    code, out, err = run_cli(capsys, *argv, "--cache", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"table file {path} changed after it was loaded" in err


def test_table_cut_in_a_later_span_exits_2(tmp_path, capsys, monkeypatch):
    # two spans of 1000-n blocks: the first reads the odd flags of [2, 3007], file bytes
    # 20..208, and the second those of [3002, 5007], which a cut at 270 bytes leaves short
    monkeypatch.setattr("primetail.primes._CHUNK", 1000)
    monkeypatch.setattr("primetail.primes._usable_cpus", lambda: 2)
    path = tmp_path / "t.pkt"
    assert run_cli(capsys, "sieve-cache", "--limit", "6000", "--out", str(path))[0] == 0
    load = primetail.cli._load_table

    def load_then_cut(args):
        table = load(args)
        path.write_bytes(path.read_bytes()[:270])
        return table

    monkeypatch.setattr("primetail.cli._load_table", load_then_cut)
    code, out, err = run_cli(capsys, "tail", "--x", "5000", "--h", "7.5", "--k-max", "4",
                             "--cache", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"table file {path} changed after it was loaded" in err
    assert "at offset 207" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ("singular", "--tuple", "0,2", "--error", "nan"),
    ("singular", "--tuple", "0,2", "--error", "inf"),
    ("moments", "--x", "100", "--h", "nan", "--r-max", "1"),
    ("tail", "--x", "100", "--lambda", "inf", "--k-max", "1"),
    ("moments", "--x", "100", "--lambda", "-inf", "--r-max", "1"),
    ("selberg", "--tuple", "0,2", "--x", "1000", "--epsilon", "nan"),
])
def test_non_finite_floats_rejected(argv):
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    assert ei.value.code == 2


SUBCOMMAND_ARGVS = [
    ("singular", "--tuple", "0,2"),
    ("tkh", "--k", "3", "--h", "20", "--mode", "exact"),
    ("tkh", "--k", "3", "--h", "20", "--mode", "mc"),
    ("moments", "--x", "100", "--h", "5", "--r-max", "1"),
    ("tail", "--x", "100", "--h", "5", "--k-max", "1"),
    ("hl", "--tuple", "0,2", "--x", "100"),
    ("selberg", "--tuple", "0,2", "--x", "1000", "--z", "10"),
    ("sieve-cache", "--limit", "100", "--out", "unused.pkt"),
]
NON_TKH_ARGVS = [a for a in SUBCOMMAND_ARGVS if a[0] != "tkh"]
CACHE_SUBCOMMANDS = ("moments", "tail", "hl", "selberg")


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
def test_stdout_same_across_cpus_blocks_and_table(argv, tmp_path, monkeypatch, capsys):
    # every subcommand prints the same bytes on 1, 2 or 3 usable CPUs, with 64-n blocks and
    # 32-flag segments or the defaults, and from a saved table or streamed off the sieve;
    # sieve-cache also writes the same file
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "sieve-cache", "--limit", "2000", "--out", "t.pkt")[0] == 0
    tables = [(), ("--cache", "t.pkt")] if argv[0] in CACHE_SUBCOMMANDS else [()]
    runs = {}
    for cpus, sizes, table in itertools.product((1, 2, 3), ((64, 32), None), tables):
        with monkeypatch.context() as m:
            m.setattr("primetail.primes._usable_cpus", lambda n=cpus: n)
            if sizes:
                m.setattr("primetail.primes._CHUNK", sizes[0])
                m.setattr("primetail.primes._SEGMENT", sizes[1])
            runs[cpus, sizes, table] = run_cli(capsys, *argv, *table)
        if argv[0] == "sieve-cache":
            runs[cpus, sizes, table] += (Path("unused.pkt").read_bytes(),)
    want = runs.pop((1, None, ()))
    assert want[0] == 0, want
    for key, got in runs.items():
        assert got == want, key


# only tkh has --threads; the other subcommands refuse it as an unknown option
@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_rejected(argv, threads):
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--threads", threads])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", NON_TKH_ARGVS)
def test_threads_only_on_tkh(argv):
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--threads", "1"])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
def test_threads_in_tkh_header_only(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    header = json.loads(lines_of(out)[0])
    assert ("threads" in header) == (argv[0] == "tkh")
    if argv[0] == "tkh":
        assert header["threads"] == 1


def test_resource_exit_code(capsys):
    code, _, err = run_cli(capsys, "singular", "--tuple", "0,2", "--error", "1e-30")
    assert code == 3
    assert "error" in err


def test_unreachable_error_target_hint_stays_one_line(capsys):
    # the message names the radius as a rounding floor, never a prime bound, whatever the target
    for tup, target in (("0,2,6,8,12,18,20,26,30,32", "5e-324"),
                        ("0,2,6,8,12,18,20,26,30,32", "1e-300"), ("0,2", "1e-30")):
        code, out, err = run_cli(capsys, "singular", "--tuple", tup, "--error", target)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and len(err) < 200
        assert "rounding floor" in err and "primes" not in err


def test_singular_default_checks_no_target(capsys):
    # the smallest admissible 11-tuple: S = 3062 with radius 1.09e-9; without --error no
    # radius is refused, and the header echoes null
    code, out, err = run_cli(capsys, "singular", "--tuple", "0,2,6,8,12,18,20,26,30,32,36")
    assert (code, err) == (0, "")
    header, rec = (json.loads(l) for l in lines_of(out))
    assert header["error"] is None and '"error":null' in lines_of(out)[0]
    assert rec["value"] == pytest.approx(3062, rel=1e-3)
    assert 1e-9 < rec["error_radius"] < 1e-12 * rec["value"]


def test_selberg_theorem_bound_overflow_prints_null(capsys):
    code, out, _ = run_cli(capsys, "selberg", "--tuple", "0,2", "--x", "1000", "--epsilon", "1e300")
    assert code == 0
    assert '"theorem_bound":null' in lines_of(out)[1]


@pytest.mark.parametrize("message", ["Unable to allocate 2.5 GiB for an array", ""])
def test_memory_error_exits_3(capsys, monkeypatch, message):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("primetail.primes._segments", out_of_memory)
    code, out, err = run_cli(capsys, "moments", "--x", "100", "--h", "5", "--r-max", "1")
    assert code == 3
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"


@pytest.mark.parametrize("span", ["later", "first"])
def test_memory_error_in_one_span_exits_3(capsys, monkeypatch, span):
    # five blocks over three processes. A later span fails in a child, which the parent
    # raises. A first-span failure unwinds the parent, which kills the children rather
    # than wait out their sleep. Either way no child is left unreaped
    monkeypatch.setattr("primetail.primes._CHUNK", 1000)
    monkeypatch.setattr("primetail.primes._usable_cpus", lambda: 3)
    real = primetail.primes._segments

    def fail_in_span(lo, hi):
        # the first span streams from 1 + 1, the later ones from past it, primes_upto from 0
        if lo and (lo == 2) == (span == "first"):
            raise MemoryError("Unable to allocate 1 MiB for an array")
        if lo > 2:  # a later span when the first one fails: it outlasts the run unless killed
            time.sleep(20)
        return real(lo, hi)

    monkeypatch.setattr("primetail.primes._segments", fail_in_span)
    start = time.monotonic()
    code, out, err = run_cli(capsys, "moments", "--x", "5000", "--h", "5", "--r-max", "1")
    assert time.monotonic() - start < 10
    assert (code, out) == (3, "")
    assert err == "error: Unable to allocate 1 MiB for an array\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--x", "1000000", "--lambda", "0.05", "--r-max", "2"),
        ("tail", "--x", "1000", "--h", "0.5", "--k-max", "3"),
    ],
)
def test_window_below_one_exits_2_naming_h(capsys, argv):
    # every window (n, n + h] with h < 1 is empty; that used to surface as "need lam > 0"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need h >= 1") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("moments", "--r-max", "1"), ("tail", "--k-max", "1")])
def test_window_x_below_2_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--x", "1", "--h", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: need x >= 2") and err.count("\n") == 1


@pytest.mark.parametrize("x", ["1", "0", "-5"])
@pytest.mark.parametrize("argv", [("moments", "--r-max", "1"), ("tail", "--k-max", "1")])
def test_window_lambda_x_below_2_exits_2(capsys, no_sieve, argv, x):
    # log x would be 0 or a math domain error; the rule of moments._log_x refuses first
    code, out, err = run_cli(capsys, *argv, "--x", x, "--lambda", "1")
    assert (code, out) == (2, "")
    assert err == f"error: need x >= 2 for lambda = h / log x, got x = {x}\n"


@pytest.mark.parametrize("argv, message", [
    (("sieve-cache", "--limit", "1", "--out", "never.pkt"), "need --limit >= 2"),
    (("moments", "--x", "100", "--h", "5", "--r-max", "0"), "need --r-max >= 1"),
    (("tail", "--x", "100", "--h", "5", "--k-max", "-1"), "need --k-max >= 0"),
], ids=["sieve-cache", "moments", "tail"])
def test_empty_cli_range_exits_2(capsys, tmp_path, monkeypatch, no_sieve, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "never.pkt").exists()


def test_tkh_exact_past_budget_exits_3(capsys):
    # --mode exact re-raises tkh_exact's ResourceError instead of falling back to Monte Carlo
    code, out, err = run_cli(capsys, "tkh", "--k", "10", "--h", "100", "--mode", "exact")
    assert (code, out) == (3, "")
    assert err.startswith("error: C(h-1,k-1) = 1731030945644 anchored rows exceed budget")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # the local factor 2^(k-1) at p = 2 leaves the float range
        ("singular", "--tuple", ",".join(str(t) for t in range(0, 2200, 2))),
        ("tkh", "--k", "1100", "--h", "1200", "--mode", "mc", "--samples", "100"),
        # Poisson moments via Stirling numbers
        ("moments", "--x", "100000", "--lambda", "1", "--r-max", "400"),
        ("moments", "--x", "1000", "--h", "50000", "--r-max", "90"),
    ],
    ids=["singular-k1100", "tkh-k1100", "moments-r400", "moments-h50000"],
)
def test_float_overflow_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: a result is past the float range") and err.count("\n") == 1


@pytest.mark.parametrize("sweep", ["10:5", "10:5:1", "1:2:3:4", "10:20:0"])
def test_hl_bad_sweep_exits_2(capsys, sweep):
    code, out, err = run_cli(capsys, "hl", "--tuple", "0,2", "--x", "100", "--sweep", sweep)
    assert code == 2
    assert out == ""
    assert err == "error: --sweep wants A:B:S with A <= B and S >= 1\n"


def test_singular_huge_difference_exits_3(capsys):
    # the difference is even, so {0, d} is admissible and d must be factored;
    # that would sieve primes up to isqrt(d) = 3e9, past the prime budget
    code, out, err = run_cli(capsys, "singular", "--tuple", f"0,{2 ** 63 - 2}")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "prime budget" in err


def test_singular_jensen_past_prime_budget_exits_3(capsys):
    offsets = ",".join(str(t) for t in range(0, 930, 2))  # k = 465, k^3 above 10^8
    code, out, err = run_cli(capsys, "singular", "--tuple", offsets, "--jensen")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "prime budget" in err


def test_bad_tuple_exit_code(capsys):
    code, _, err = run_cli(capsys, "singular", "--tuple", "0,2,2")
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["singular", "--bogus"])
    assert ei.value.code == 2


def _child_env():
    # the child imports the same package as this test, installed or not
    src = str(Path(primetail.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "primetail.cli", "singular", "--tuple", "0,2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert r.returncode == 0
    assert '"value":1.32032363169' in r.stdout


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
def test_stdout_same_across_openblas_threads(argv, tmp_path):
    # the determinism matrix's last axis, in fresh interpreters since OpenBLAS reads it at
    # load: hl's _log_integral is the package's one @ product; sieve-cache's file is compared too
    runs = []
    for threads in ("1", "2"):
        r = subprocess.run([sys.executable, "-m", "primetail.cli", *argv], capture_output=True,
                           env={**_child_env(), "OPENBLAS_NUM_THREADS": threads}, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        runs.append((r.stdout, (tmp_path / "unused.pkt").read_bytes() if argv[0] == "sieve-cache" else None))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
def test_cli_never_imports_scipy(argv, tmp_path):
    # a fresh interpreter per subcommand, so no earlier import can hide one
    script = (
        "import json, sys\n"
        "from primetail.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=_child_env(), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads(lines_of(r.stdout)[-1]) == [0, []]


def test_package_exports_resolve_to_their_modules():
    # each exported name loads on first access; a submodule resolves by its name
    assert len(primetail.__all__) == len(set(primetail.__all__)) == 44
    for name in primetail.__all__:
        module = getattr(primetail, primetail._EXPORTS[name])
        assert getattr(primetail, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        primetail.nope


# exports that no module of the package and no bench replay reads, each kept for its reason
UNREAD_EXPORTS = {
    "allk_bound": "the paper's bound on S(H) over all k-tuples, for the reports to take up",
    "biggerk_bound": "the paper's bound on the tail count at larger k, for the reports to take up",
    "tail_log_bound": "the paper's bound on the generic tail past P, for the reports to take up",
    "poisson_pmf": "the tests' oracle for predicted_moment and poisson_tail",
}


def test_every_export_has_a_reader():
    # a name read only by the export map is surface nothing uses: the code of every module
    # but __init__, and bench/traced.py, must name each export outside its own def or class,
    # or hold it as a string for getattr, as cli.py does for the window reports; and it must
    # read each public method or property of an exported class as an attribute
    pkg = Path(primetail.__file__).parent
    files = [p for p in pkg.glob("*.py") if p.name != "__init__.py"]
    read, attrs = set(), set()
    for path in [*files, pkg.parents[1] / "bench" / "traced.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert sorted(set(primetail.__all__) - read) == sorted(UNREAD_EXPORTS)
    kinds = (classmethod, staticmethod, property)
    methods = [f"{name}.{attr}" for name in primetail.__all__ if inspect.isclass(cls := getattr(primetail, name))
               for attr, v in vars(cls).items()
               if not attr.startswith("_") and (inspect.isfunction(v) or isinstance(v, kinds))]
    assert "PrimalityTable.load" in methods and "Tuple.parse" in methods  # the walk sees methods
    assert [m for m in methods if m.split(".")[1] not in attrs] == []


def test_sources_parse_as_python_3_10():
    """Every module parses under the 3.10 grammar that pyproject.toml promises.

    This checks syntax only: a library call that is new in 3.11, such as a
    keyword argument a 3.10 function lacks, still parses, and no test here
    can run it on 3.10.
    """
    for path in sorted(Path(primetail.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_jobs_load_only_what_they_run(tmp_path):
    # one fresh interpreter per job, so no earlier import can hide one: the modules loaded by
    # `import primetail.cli`, then by the job; allk_bound(3) then does load mpmath, so the
    # probe is shown to see an import
    script = (
        "import contextlib, io, json, sys\n"
        "from primetail.cli import main\n"
        "cold = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as e:\n"
        "        code = e.code\n"
        "ran = sorted(sys.modules)\n"
        "from primetail import allk_bound\n"
        "allk_bound(3)\n"
        "print(json.dumps([code, cold, ran, 'mpmath' in sys.modules]))\n"
    )
    for argv in [("--help",), *SUBCOMMAND_ARGVS]:
        r = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                           env=_child_env(), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        code, cold, ran, probe_saw = json.loads(lines_of(r.stdout)[-1])
        assert code == 0 and probe_saw, argv
        assert "numpy" not in cold, argv
        assert "mpmath" not in ran and "numpy.ma" not in ran, argv
        assert "numpy.polynomial" not in ran, argv
        if argv[0] == "--help":
            assert "numpy" not in ran
        if argv[0] == "tkh":
            assert "primetail.hl" not in ran and "primetail.selberg" not in ran, argv
