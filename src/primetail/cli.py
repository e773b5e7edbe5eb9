"""Command line front end.

Every run writes one JSON header line echoing the resolved configuration,
then one record per line: JSON objects, or tab-separated rows behind
'#'-prefixed header lines with --format tsv. Floats are printed to 12
significant digits through one code path, so identical invocations give
byte-identical output. Exit codes: 0 ok, 2 bad usage, 3 resource budget,
out of memory or a result past the float range.
"""

import argparse
import json
import math
import sys
from dataclasses import fields

from .errors import ResourceError


def _jdump(obj):
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_jdump(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, float):
        return format(obj, ".12g") if math.isfinite(obj) else "null"
    return json.dumps(obj)


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g") if math.isfinite(v) else ""
    return str(v)


def _emit(args, config, rows):
    """The header, then the rows; TSV columns are the rows' keys in order of first appearance."""
    config = {"subcommand": args.subcommand, "format": args.format, **config}
    out = sys.stdout
    if args.format == "json":
        out.write(_jdump(config) + "\n")
        for r in rows:
            out.write(_jdump(r) + "\n")
    else:
        columns = list(dict.fromkeys(c for r in rows for c in r))
        out.write("# " + _jdump(config) + "\n")
        out.write("# " + "\t".join(columns) + "\n")
        for r in rows:
            out.write("\t".join(_cell(r.get(c)) for c in columns) + "\n")


_RENAMED = {"H": "tuple", "lam": "lambda", "lam_eff": "lambda_eff"}


def _row(rep, drop=()):
    """One record from a report dataclass, its fields in declaration order."""
    rec = {}
    for f in fields(rep):
        if f.name not in drop:
            v = getattr(rep, f.name)
            rec[_RENAMED.get(f.name, f.name)] = str(v) if f.name == "H" else v
    return rec


def _load_table(args):
    """The --cache table, or None: each pass sieves the range it needs and checks a table's cover."""
    from .primes import PrimalityTable

    return PrimalityTable.load(args.cache) if args.cache else None


def _resolve_h(args):
    from .moments import _log_x

    if (args.h is None) == (args.lam is None):
        raise ValueError("give exactly one of --h and --lambda")
    lx = _log_x(args.x)  # x below 2 is refused before the log or the sieve
    h = float(args.h) if args.h is not None else args.lam * lx
    if h < 1:
        raise ValueError(f"need h >= 1, got h = {h:.6g}: a narrower window holds no integer")
    return h


# -- subcommands ---------------------------------------------------------
# Each handler imports the modules it runs, so a job loads no other, and
# building the parser loads none.


def _cmd_singular(args):
    from .singular import Tuple, jensen_split_bound, singular_series

    H = Tuple.parse(args.tuple)
    sv = singular_series(H, target_error=args.error)
    rec = {"tuple": str(H), "k": H.k, **_row(sv), "admissible": sv.value > 0}
    if args.jensen:
        rec["jensen_bound"] = jensen_split_bound(H) if H.k >= 2 else 1.0
    config = {"tuple": str(H), "error": args.error}
    _emit(args, config, [rec])
    return 0


def _cmd_tkh(args):
    from .averages import tkh_exact, tkh_monte_carlo

    k, h = args.k, args.h
    got = None
    if args.mode != "mc":
        try:
            got = tkh_exact(k, h)
        except ResourceError:  # without --mode, past tkh_exact's budget: Monte Carlo
            if args.mode == "exact":
                raise
    mode = "mc" if got is None else "exact"
    if got is not None:
        mean, error, samples, seed, scale = got.value, got.error, None, None, 1
    else:
        est = tkh_monte_carlo(k, h, args.samples, args.seed, workers=args.threads)
        mean, error, samples, seed = est.mean, est.stderr, est.samples, est.seed
        # T_k(h) = k! C(h,k) * mean of S over uniform sorted k-subsets
        scale = math.factorial(k) * math.comb(h, k)
    config = {"threads": args.threads, "k": k, "h": h, "mode": mode, "samples": samples, "seed": seed}
    # normalized <= mean and tkh_estimate are each rounded once from an exact ratio, by int
    # division: neither h^k nor k! C(h,k) has to fit a float for them to print
    num, den = mean.as_integer_ratio()
    rec = {"k": k, "h": h, "mode": mode, "value_or_mean": mean, "error": error,
           "samples": samples, "seed": seed, "normalized": scale * num / (den * h ** k)}
    if mode == "mc":
        rec |= {"tkh_estimate": scale * num / den, "workers": est.workers}
    _emit(args, config, [rec])
    return 0


def _cmd_window(args):
    """moments or tail: one report per index first..last of the window histogram."""
    from . import moments
    from .primes import window_counts

    h = _resolve_h(args)
    first, last = args.first, getattr(args, args.last)
    if last < first:
        raise ValueError(f"need --{args.last.replace('_', '-')} >= {first}")
    hist = window_counts(_load_table(args), args.x, h)
    config = {"x": args.x, "h": h, args.last: last}
    report = getattr(moments, args.report)
    rows = [_row(report(hist, i)) for i in range(first, last + 1)]
    _emit(args, config, rows)
    return 0


def _cmd_hl(args):
    from .hl import hl_sweep
    from .singular import Tuple

    H = Tuple.parse(args.tuple)
    config = {"tuple": str(H), "x": args.x, "sweep": args.sweep}
    xs = [args.x]
    if args.sweep:
        parts = [int(v) for v in args.sweep.split(":")]
        if len(parts) != 3 or parts[2] < 1 or parts[1] < parts[0]:
            raise ValueError("--sweep wants A:B:S with A <= B and S >= 1")
        xs = list(range(parts[0], parts[1] + 1, parts[2]))
    _emit(args, config, [_row(r) for r in hl_sweep(H, xs, _load_table(args))])
    return 0


def _cmd_selberg(args):
    from .primes import check_prime_budget
    from .selberg import _theorem_epsilon, gamma_cross_check, resolve_z, sieve_report
    from .singular import Tuple

    H = Tuple.parse(args.tuple)
    gamma_zs = [int(v) for v in args.gamma_table.split(",")] if args.gamma_table else []
    # a bad x, z or epsilon, or a z past the prime budget, fails before any gamma row is computed
    _theorem_epsilon(args.x, args.epsilon)
    check_prime_budget(max([resolve_z(args.x, args.z, args.epsilon), *gamma_zs]) - 1)
    # the gamma rows need no table, and the report refuses before it counts hits in one
    gammas = [{"tuple": str(H), "z": z, "gamma_ratio": gamma_cross_check(H, z)} for z in gamma_zs]
    rep = sieve_report(H, args.x, z=args.z, epsilon=args.epsilon, table=_load_table(args))
    config = {"tuple": str(H), "x": args.x, "z": rep.z, "epsilon": args.epsilon}
    _emit(args, config, [_row(rep, drop=("epsilon",)), *gammas])
    return 0


def _cmd_sieve_cache(args):
    from .primes import save_sieve

    if args.limit < 2:
        raise ValueError("need --limit >= 2")
    found = save_sieve(0, args.limit, args.out)
    config = {"limit": args.limit, "out": args.out}
    rec = {"limit": args.limit, "out": args.out, "primes": found}
    _emit(args, config, [rec])
    return 0


# -- parser ----------------------------------------------------------------


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return v


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")

    parser = argparse.ArgumentParser(
        prog="primetail",
        description="Singular series, window count statistics, and sieve bounds",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("singular", parents=[common], help="singular series of a tuple")
    p.add_argument("--tuple", required=True, help='offsets, e.g. "0,2,6"')
    p.add_argument("--error", type=_finite, default=None, help="refuse a radius above this")
    p.add_argument("--jensen", action="store_true", help="include the split bound")
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser("tkh", parents=[common], help="average of S over k-subsets of [1,h]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default=None)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="Monte Carlo shard count; results depend on it, timing may not",
    )
    p.set_defaults(func=_cmd_tkh)

    for name, what, last, first, report in (
        ("moments", "moments", "r_max", 1, "moment_report"),
        ("tail", "tails", "k_max", 0, "tail_report"),
    ):
        p = sub.add_parser(name, parents=[common], help=f"window count {what} vs Poisson")
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--h", type=_finite, default=None)
        p.add_argument("--lambda", dest="lam", type=_finite, default=None)
        p.add_argument("--" + last.replace("_", "-"), type=int, required=True)
        p.add_argument("--cache", default=None, help="primality table file")
        p.set_defaults(func=_cmd_window, report=report, first=first, last=last)

    p = sub.add_parser("hl", parents=[common], help="hit counts vs the li_k prediction")
    p.add_argument("--tuple", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--sweep", default=None, help="A:B:S checkpoints")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_hl)

    p = sub.add_parser("selberg", parents=[common], help="sieve bounds vs actual hits")
    p.add_argument("--tuple", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--epsilon", type=_finite, default=None)
    p.add_argument("--gamma-table", default=None, help="comma list of z for R(z) rows")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_selberg)

    p = sub.add_parser("sieve-cache", parents=[common], help="sieve and save a table")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sieve_cache)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except OverflowError as e:
        print(f"error: a result is past the float range ({e})", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
