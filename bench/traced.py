"""Traced replay of one benchmark job, or the layer probes of a workload.

run.py starts this file in a fresh interpreter per job and per probe, so
that singular's prime context and averages' translation cache start cold
every time, exactly as they do for the CLI:

    python3 bench/traced.py WORKLOAD JOB|probe SEED PARENT_SPAN OUT_JSON

A replay makes the same calls into primetail's public API (the names
exported from primetail/__init__.py) that the job's CLI subcommand makes,
with a span around each call. A probe times single layers: singular
series warm-up (cold) and hot calls (warm), tuple hits, li_k and G(z).
Spans (id, name, start, end, parent, workload, plus counters) are kept in
memory and written to OUT_JSON when the process ends. Memory is measured
with tracemalloc.
"""

import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402
from primetail import (  # noqa: E402
    PrimalityTable,
    ResourceError,
    Tuple,
    big_G,
    count_tuple_hits,
    gamma_cross_check,
    hl_error,
    hl_sweep,
    is_admissible,
    jensen_split_bound,
    li_k,
    moment_report,
    sieve_range,
    sieve_report,
    singular_series,
    tail_report,
    tkh_exact,
    tkh_monte_carlo,
    tkh_pair_fast,
    window_counts,
)

HOT_CALLS = 2000
FRAC_SAMPLES = 10 ** 6


# -- replays: the CLI's calls, job by job ---------------------------------


def _window_hist(t):
    h = math.log(W.X)
    table = t.call("primes.sieve_range", sieve_range, 0, W.X + math.ceil(h))
    return t.call("primes.window_counts", window_counts, table, W.X, h)


def _moments(t, seed):
    hist = _window_hist(t)
    for r in range(1, 5):
        t.call("moments.moment_report", moment_report, hist, r)


def _tail(t, seed):
    hist = _window_hist(t)
    for k in range(11):
        t.call("moments.tail_report", tail_report, hist, k)


def _tkh_mc(t, seed):
    t.call("averages.tkh_monte_carlo", tkh_monte_carlo, W.MC_K, W.MC_H, W.MC_SAMPLES,
           W.mc_seed(seed), workers=W.MC_THREADS)


def _tkh_exact(t, seed):
    t.call("averages.tkh_exact", tkh_exact, W.EXACT_K, W.EXACT_H)


def _tkh_pair(t, seed):
    t.call("averages.tkh_pair_fast", tkh_pair_fast, W.PAIR_H)


def _singular(t, seed):
    H = Tuple(W.TEN)
    t.call("singular.singular_series", singular_series, H, target_error=1e-9)
    t.call("singular.is_admissible", is_admissible, H)
    t.call("singular.jensen_split_bound", jensen_split_bound, H)


def _sieve_cache(t, seed):
    table = t.call("primes.sieve_range", sieve_range, 0, W.TABLE_LIMIT)
    path = ROOT / W.TABLE_PATH
    with t.span("primes.PrimalityTable.save") as s:
        table.save(path)
        s["bytes"] = path.stat().st_size
    t.call("primes.PrimalityTable.count", table.count)


def _load(t, top):
    table = t.call("primes.PrimalityTable.load", PrimalityTable.load, ROOT / W.TABLE_PATH)
    table.require_cover(0, top)
    return table


def _hl_twins(t, seed):
    table = _load(t, W.X + 3)
    tracemalloc.start()
    try:
        with t.span("hl.hl_error") as s:
            hl_error(Tuple((0, 2)), W.X, table)
            s["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hl_sweep(t, seed):
    a, b, step = W.SWEEP
    table = _load(t, b + W.TEN[-1] + 1)
    t.call("hl.hl_sweep", hl_sweep, Tuple(W.TEN), list(range(a, b + 1, step)), table)


def _hl_10tuple(t, seed):
    table = _load(t, W.HL_TEN_X + W.TEN[-1] + 1)
    t.call("hl.hl_error", hl_error, Tuple(W.TEN), W.HL_TEN_X, table)


def _selberg_twins(t, seed):
    table = _load(t, W.SELBERG_X + 3)
    t.call("selberg.sieve_report", sieve_report, Tuple((0, 2)), W.SELBERG_X,
           epsilon=W.SELBERG_EPS, table=table)


def _selberg_gamma(t, seed):
    H = Tuple(W.GAMMA_TUPLE)
    table = _load(t, W.GAMMA_X + H.offsets[-1] + 1)
    t.call("selberg.sieve_report", sieve_report, H, W.GAMMA_X, z=W.GAMMA_Z, table=table)
    for z in W.GAMMA_ZS:
        t.call("selberg.gamma_cross_check", gamma_cross_check, H, z)


REPLAYS = {
    "moments": _moments, "tail": _tail,
    "tkh_mc": _tkh_mc, "tkh_exact": _tkh_exact, "tkh_pair": _tkh_pair, "singular": _singular,
    "sieve_cache": _sieve_cache, "hl_twins": _hl_twins, "hl_sweep": _hl_sweep,
    "hl_10tuple": _hl_10tuple, "selberg_twins": _selberg_twins, "selberg_gamma": _selberg_gamma,
}


# -- probes: single layers, cold and warm ---------------------------------


def _admissible_rows(rng, n):
    """n random admissible 10-subsets of [1, 100]: each avoids one random
    residue class modulo 2, 3, 5 and 7."""
    pool = np.arange(1, W.MC_H + 1)
    rows = []
    for _ in range(n):
        keep = np.ones(len(pool), dtype=bool)
        for p in (2, 3, 5, 7):
            keep &= pool % p != rng.integers(p)
        rows.append(np.sort(rng.choice(pool[keep], W.MC_K, replace=False)))
    return rows


def _uniform_rows(rng, n):
    """n uniform 10-subsets of [1, 100], as the Monte Carlo draws them, and
    the admissible share among them, by a residue-class test of our own."""
    out = []
    got = 0
    while got < n:
        draw = np.sort(rng.integers(1, W.MC_H + 1, size=(1 << 17, W.MC_K)), axis=1)
        draw = draw[(np.diff(draw, axis=1) > 0).all(axis=1)][: n - got]
        out.append(draw)
        got += len(draw)
    rows = np.concatenate(out)
    ok = np.ones(len(rows), dtype=bool)
    for p in (2, 3, 5, 7):
        seen = np.bitwise_or.reduce(np.left_shift(1, rows % p), axis=1)
        ok &= seen != (1 << p) - 1
    return rows, int(np.count_nonzero(ok))


def _hot(t, name, rows):
    ns = []
    with t.span("singular.singular_series", phase=name, calls=len(rows)) as s:
        for row in rows:
            H = Tuple(tuple(int(v) - int(row[0]) for v in row))
            t0 = time.perf_counter_ns()
            singular_series(H, target_error=None)
            ns.append(time.perf_counter_ns() - t0)
        s["per_call_median_ns"] = float(np.median(ns))
    return s


def _probe_tuple_averages(t, seed):
    for k in range(2, W.MC_K + 1):
        with t.span("singular.singular_series", phase="warmup", k=k):
            singular_series(Tuple(W.TEN[:k]), target_error=None)
    rng = np.random.default_rng([seed, 1])
    _hot(t, "hot_admissible", _admissible_rows(rng, HOT_CALLS))
    rows, admissible = _uniform_rows(rng, FRAC_SAMPLES)
    _hot(t, "hot_inadmissible", rows[:HOT_CALLS]).update(batch=FRAC_SAMPLES, admissible=admissible)


def _probe_hl_sieve(t, seed):
    table = _load(t, W.TABLE_LIMIT)
    for _ in range(3):
        t.call("primes.count_tuple_hits", count_tuple_hits, table, (0, 2), W.X)
    for x, k in ((W.X, 2), (W.SWEEP[1], len(W.TEN)), (W.HL_TEN_X, len(W.TEN))):
        t.call("hl.li_k", li_k, x, k)
    t.call("selberg.big_G", big_G, W.GAMMA_ZS[-1], Tuple(W.GAMMA_TUPLE))


PROBES = {"tuple-averages": _probe_tuple_averages, "hl-sieve": _probe_hl_sieve}


def main(argv):
    workload, what, seed, parent, out = argv
    tracer = Tracer(workload, parent)
    fn = PROBES[workload] if what == "probe" else REPLAYS[what]
    error = None
    try:
        with tracer.span(f"{what}.replay" if what != "probe" else "probe"):
            fn(tracer, int(seed))
    except ResourceError as e:
        error = f"ResourceError: {e}"
    Path(out).write_text(json.dumps({"spans": tracer.spans, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
