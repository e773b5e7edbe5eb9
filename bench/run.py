"""Benchmark of the primetail CLI, end to end and per layer.

Run it from the root of a source checkout. The package is not installed:
every child gets the checkout's src/ on PYTHONPATH.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 bench/run.py --steady 10 --workload all --seconds 33 --out FILE

WORKLOAD is window-stats, tuple-averages or hl-sieve (workloads.py says
what each runs and why), or all. The client is a closed loop: one
`python -m primetail.cli` child at a time, the next only after the
previous one has exited.

--trace 0 measures one workload with tracing off:
  setup_s      median over fresh interpreters running `import
               primetail.cli`, one before each pass and at least SETUP_RUNS
  wall_s       median wall time of one pass over the workload's jobs;
               passes repeat while at least half of another one fits
               into --seconds
  peak_rss_mb  the largest ru_maxrss of any child of the passes
  fail_ratio   failed jobs over attempted jobs; the JSON line carries it
               as `attempted` and `failed`
A job fails on a nonzero exit or on a failed output check (checks.py).
Every pass must print the same stdout as the first one. `correct` is
false when some output is wrong or a child crashed; a job that refuses
with exit code 2 or 3 and a one-line message fails but is not wrong.

--trace 1 measures the layers of all three workloads, whatever --workload
and --seconds say. Each job runs once untraced (giving cli.<job>.* from
the child's rusage) and then once replayed through the public API with
spans (traced.py, a fresh process per job); each workload ends with a
probe process for the single-layer numbers. trace.<workload>.overhead_frac
is the traced jobs' wall time over the untraced jobs', minus one. Spans
go to bench/out/trace-seed<N>.json.

--steady N measures each workload N times, with seeds 1..N, and prints
the median, quartiles and spread (q3 - q1) / median of every end-to-end
metric against a third of its bound in BENCHMARK.json; with --out it adds
one traced run and writes the whole record, stamped, as a JSON file.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import checks
import workloads as W
from spans import Tracer, seconds, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
OUT = BENCH / "out"
SETUP_RUNS = 5
PROBED = ("tuple-averages", "hl-sieve")  # the workloads with a probe in traced.py


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Child(NamedTuple):
    name: str
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str


def spawn(name, args, env):
    """Run `python args...` from the checkout root and wait for it."""
    out, err = WORK / f"{name}.out", WORK / f"{name}.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=fo, stderr=fe)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(name, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, proc.returncode,
                 out.read_text(errors="replace"), err.read_text(errors="replace"))


def spawn_cli(job, seed, env):
    return spawn(job, ["-m", "primetail.cli", *W.cli_args(job, seed)], env)


def run_pass(workload, seed, env):
    """One closed-loop pass over the workload's CLI jobs: (wall, children)."""
    t0 = time.perf_counter()
    children = [spawn_cli(job, seed, env) for job in W.WORKLOADS[workload]]
    return time.perf_counter() - t0, children


class Verdict:
    """Failures and output checks over the passes of one run."""

    def __init__(self, seed):
        self.seed = seed
        self.attempted = self.failed = 0
        self.correct = True
        self.notes = []
        self._first = {}

    def refused(self, label, rc, stderr):
        self.attempted += 1
        self.failed += 1
        last = (stderr.strip().splitlines() or ["(no message)"])[-1]
        self.notes.append(f"{label}: exit {rc}: {last}")
        if rc not in (2, 3):
            self.correct = False

    def add_pass(self, number, children):
        hist = None
        for c in children:
            if c.name == "tail" and c.rc == 0:
                try:
                    hist = checks.histogram(c.stdout)
                except (ValueError, KeyError):
                    pass
        for c in children:
            label = f"{c.name} pass {number}"
            if c.rc != 0:
                self.refused(label, c.rc, c.stderr)
                continue
            self.attempted += 1
            if c.name not in self._first:
                ctx = {"seed": self.seed, "histogram": hist}
                self._first[c.name] = (c.stdout, checks.check_job(c.name, c.stdout, ctx))
            stdout, problems = self._first[c.name]
            if c.stdout != stdout:
                problems = ["stdout differs from the first pass with this seed"]
            if problems:
                self.failed += 1
                self.correct = False
                self.notes += [f"{label}: {p}" for p in problems]


def stamp(seed):
    """What the numbers depend on: machine, versions, commit, seed."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    init = (ROOT / "src" / "primetail" / "__init__.py").read_text()
    found = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=60,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "primetail": found.group(1) if found else "unknown", "commit": commit, "seed": seed,
    }


def _metric(value, unit, samples, how):
    return {"value": value, "unit": unit, "samples": samples, "how": how}


def measure(workload, seed, budget, env):
    """The end-to-end metrics of one workload, tracing off."""
    def setup_once():
        c = spawn("setup", ["-c", "import primetail.cli"], env)
        if c.rc != 0:
            raise SystemExit(f"error: `import primetail.cli` failed: {c.stderr.strip()[-300:]}")
        return c.wall

    # One untimed import first, so that every timed one finds the files
    # cached. The timed ones go between the passes, spread over the run,
    # since the machine's speed drifts over seconds.
    setup_once()
    setup = []
    walls, passes = [], []
    deadline = time.perf_counter() + budget
    while True:
        setup.append(setup_once())
        wall, children = run_pass(workload, seed, env)
        walls.append(wall)
        passes.append(children)
        # another pass if at least half of it fits, so runs end near the deadline
        if time.perf_counter() + statistics.median(walls) / 2 > deadline:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(setup_once())
    verdict = Verdict(seed)
    for number, children in enumerate(passes, 1):
        verdict.add_pass(number, children)
    rss = [c.rss_mb for children in passes for c in children]
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s", len(walls), "median pass wall time"),
        "peak_rss_mb": _metric(max(rss), "MB", len(rss), "max ru_maxrss over children"),
        "setup_s": _metric(statistics.median(setup), "s", len(setup),
                           "median fresh `import primetail.cli`"),
    }
    return verdict, metrics


def _print_metrics(prefix, metrics):
    for name, m in metrics.items():
        print(f"{prefix}{name:<40} {m['value']:>14.6g} {m['unit']:<10} "
              f"n={m['samples']:<5} {m['how']}")


def _print_verdict(prefix, verdict):
    ratio = verdict.failed / max(verdict.attempted, 1)
    print(f"{prefix}{'fail_ratio':<40} {ratio:>14.6g} {'ratio':<10} "
          f"n={verdict.attempted:<5} {verdict.failed} failed of {verdict.attempted} jobs")
    for note in verdict.notes:
        print(f"{prefix}  FAILED {note}")


# -- traced run ------------------------------------------------------------


def _traced_child(workload, job, seed, tracer, env, verdict, spans):
    """Replay one job (or run the workload's probe) in traced.py; returns
    the child's wall time."""
    spans_file = WORK / f"{job}.spans.json"
    spans_file.unlink(missing_ok=True)
    with tracer.span(f"{job}.traced process") as jp:
        c = spawn(f"{job}.traced", [str(BENCH / "traced.py"), workload, job, str(seed),
                                    jp["id"], str(spans_file)], env)
    if c.rc != 0 or not spans_file.exists():
        verdict.refused(f"{job} traced", c.rc, c.stderr)
        return c.wall
    data = json.loads(spans_file.read_text())
    spans += data["spans"]
    if data["error"]:
        verdict.refused(f"{job} traced", 3, data["error"])
    else:
        verdict.attempted += 1
    return c.wall


def layer_metrics(spans, cli, overhead):
    """The per-layer metrics, from spans and the untraced children."""
    out = {}

    def pick(name, **attrs):
        return [s for s in spans if s["name"] == name and "error" not in s
                and all(s.get(k) == v for k, v in attrs.items())]

    def put(metric, unit, how, found, value, samples=None):
        if found:
            out[metric] = _metric(value(found), unit, samples or len(found), how)

    def med(found):
        return statistics.median(seconds(s) for s in found)

    def total(found):
        return sum(seconds(s) for s in found)

    sieve = pick("primes.sieve_range")
    put("primes.sieve_s", "s", "sieve_range(0, ~10^8), cold", sieve, med)
    wc = pick("primes.window_counts")
    put("primes.window_counts_s", "s", "window_counts(x=10^8), cold", wc, med)
    put("primes.window_counts_windows_per_s", "windows/s", "10^8 windows / window_counts_s", wc,
        lambda f: W.X / med(f))
    put("primes.tuple_hits_s", "s", "count_tuple_hits(twins, 10^8), warm", pick("primes.count_tuple_hits"), med)
    save = pick("primes.PrimalityTable.save")
    put("primes.table_save_s", "s", "PrimalityTable.save of 0..10^8+64", save, med)
    put("primes.table_bytes", "B", "size of the saved table file (computed count)", save,
        lambda f: f[0]["bytes"])
    put("primes.table_load_s", "s", "PrimalityTable.load, page cache warm", pick("primes.PrimalityTable.load"), med)
    put("singular.warmup_s", "s", "first singular_series call per k = 2..10, cold",
        pick("singular.singular_series", phase="warmup"), total)
    for phase in ("hot_admissible", "hot_inadmissible"):
        hot = pick("singular.singular_series", phase=phase)
        put(f"singular.{phase}_us", "us", "median per-call time over a seeded batch, warm",
            hot, lambda f: f[0]["per_call_median_ns"] / 1e3, hot and hot[0]["calls"])
    put("singular.admissible_frac", "ratio", "admissible share of uniform 10-subsets of [1,100]",
        hot, lambda f: f[0]["admissible"] / f[0]["batch"], hot and hot[0]["batch"])
    mc = pick("averages.tkh_monte_carlo")
    put("averages.mc_s", "s", "tkh_monte_carlo(10, 100, 10^5, workers=2), cold", mc, med)
    put("averages.mc_samples_per_s", "samples/s", "10^5 samples / mc_s", mc,
        lambda f: W.MC_SAMPLES / med(f))
    put("averages.tkh_exact_s", "s", "tkh_exact(4, 40), cold", pick("averages.tkh_exact"), med)
    put("averages.pair_fast_s", "s", "tkh_pair_fast(10^4), cold", pick("averages.tkh_pair_fast"), med)
    hl_twins = [s for s in pick("hl.hl_error") if "alloc_peak_bytes" in s]
    put("hl.error_s", "s", "hl_error(twins, 10^8) from a loaded table, cold", hl_twins, med)
    put("hl.error_alloc_peak_mb", "MB", "tracemalloc peak during hl_error(twins, 10^8)", hl_twins,
        lambda f: f[0]["alloc_peak_bytes"] / 2 ** 20)
    put("hl.li_k_s", "s", "li_k(10^8,2) + li_k(5500,10) + li_k(10^6,10), warm", pick("hl.li_k"), total)
    put("hl.sweep_s", "s", "hl_sweep(10-tuple, 100:5500:25), cold", pick("hl.hl_sweep"), med)
    put("selberg.big_G_s", "s", "big_G(10^6, (0,2,6)), warm", pick("selberg.big_G"), med)
    put("selberg.report_s", "s", "both sieve_report calls, cold", pick("selberg.sieve_report"), total)
    put("moments.reports_s", "s", "4 moment_report + 11 tail_report calls (control)",
        pick("moments.moment_report") + pick("moments.tail_report"), total)
    for c in cli:
        out[f"cli.{c.name}.wall_s"] = _metric(c.wall, "s", 1, "untraced child wall time")
        out[f"cli.{c.name}.cpu_s"] = _metric(c.cpu, "s", 1, "untraced child user+system time")
        out[f"cli.{c.name}.rss_mb"] = _metric(c.rss_mb, "MB", 1, "untraced child ru_maxrss")
    for workload, frac_over in overhead.items():
        out[f"trace.{workload}.overhead_frac"] = _metric(
            frac_over, "ratio", len(W.WORKLOADS[workload]),
            "sum of traced job walls / sum of untraced job walls - 1")
    return out


def trace(seed, env):
    """Per-layer metrics. Each job runs untraced and then traced, back to
    back, so that the overhead compares runs made under the same load."""
    verdict = Verdict(seed)
    tracer = Tracer(None)
    spans, cli, overhead = [], [], {}
    for workload in W.WORKLOADS:
        tracer.workload = workload
        children, traced = [], 0.0
        for job in W.WORKLOADS[workload]:
            with tracer.span(f"{job}.process"):
                children.append(spawn_cli(job, seed, env))
            traced += _traced_child(workload, job, seed, tracer, env, verdict, spans)
        verdict.add_pass(1, children)
        cli += children
        overhead[workload] = traced / sum(c.wall for c in children) - 1.0
        if workload in PROBED:
            _traced_child(workload, "probe", seed, tracer, env, verdict, spans)
    spans += tracer.spans
    metrics = layer_metrics(spans, cli, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-seed{seed}.json"
    spans_path.write_text(json.dumps({"stamp": stamp(seed), "metrics": metrics, "spans": spans}))

    print("# self time by workload and span (cold = first call in a fresh process)")
    for (workload, name), (calls, tot, own) in sorted(self_times(spans).items(), key=lambda kv: (kv[0][0], -kv[1][1])):
        print(f"#   {workload:<15} {name:<34} calls={calls:<5} total={tot:10.4f} s  self={own:10.4f} s")
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    return verdict, metrics


# -- steadiness ------------------------------------------------------------


def steady(workloads, runs, budget, out_path, env):
    """Measure each workload with seeds 1..runs and print, per end-to-end
    metric, the median, the quartiles and the spread (q3 - q1) / median."""
    bench_json = ROOT / "BENCHMARK.json"
    bounds = {}
    if bench_json.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench_json.read_text())["end_to_end"]}
    record = {"stamp": stamp(list(range(1, runs + 1))), "seconds": budget, "workloads": {}}
    for workload in workloads:
        results = []
        for seed in range(1, runs + 1):
            verdict, metrics = measure(workload, seed, budget, env)
            results.append({"seed": seed, "correct": verdict.correct, "attempted": verdict.attempted,
                            "failed": verdict.failed, "metrics": metrics})
            print(f"{workload:<15} seed={seed:<3} " + " ".join(
                f"{k}={m['value']:.6g} (n={m['samples']})" for k, m in metrics.items()), flush=True)
        summary = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            limit = bounds.get(name)
            verdict = "" if limit is None else f"bound/3={limit / 3:.4f} {'ok' if spread < limit / 3 else 'WIDE'}"
            print(f"{workload:<15} {name:<12} median={q2:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} runs={len(vals)} {verdict}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload:<15} correct={correct} fail_ratio={failed / attempted:.4g} "
              f"({failed} of {attempted} jobs)")
        record["workloads"][workload] = {"correct": correct, "attempted": attempted, "failed": failed,
                                         "summary": summary, "runs": results}
    if out_path:
        verdict, metrics = trace(1, env)
        record["per_layer"] = {"seed": 1, "correct": verdict.correct, "attempted": verdict.attempted,
                               "failed": verdict.failed, "metrics": metrics}
        Path(out_path).write_text(json.dumps(record, indent=1) + "\n")
        print(f"# record written to {out_path}")


# -- main --------------------------------------------------------------------


def _result_line(verdict, metrics):
    return json.dumps({
        "correct": verdict.correct, "attempted": verdict.attempted, "failed": verdict.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=33)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="repeat each workload N times and print the spread")
    ap.add_argument("--out", default=None, help="with --steady: write the record here")
    args = ap.parse_args(argv)
    if args.steady == 1:
        ap.error("--steady needs at least 2 runs for quartiles")
    if not (ROOT / "src" / "primetail" / "cli.py").is_file():
        print(f"error: no primetail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    env = _child_env()
    WORK.mkdir(exist_ok=True)
    try:
        if args.steady:
            steady(names, args.steady, args.seconds, args.out, env)
            return 0
        print(f"# primetail bench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print(f"# stamp {json.dumps(stamp(args.seed))}")
        if args.trace:
            verdict, metrics = trace(args.seed, env)
            _print_metrics("", metrics)
            _print_verdict("", verdict)
            print(_result_line(verdict, metrics))
            return 0
        total = Verdict(args.seed)
        merged = {}
        for workload in names:
            verdict, metrics = measure(workload, args.seed, args.seconds, env)
            _print_metrics(f"{workload:<15} ", metrics)
            _print_verdict(f"{workload:<15} ", verdict)
            total.correct &= verdict.correct
            total.attempted += verdict.attempted
            total.failed += verdict.failed
            merged.update({(k if len(names) == 1 else f"{workload}.{k}"): m for k, m in metrics.items()})
        print(_result_line(total, merged))
        return 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
