"""The benchmark's three workloads: fixed lists of primetail CLI jobs.

Each job is named once here and used under that name by the untraced
passes (run.py), the output checks (checks.py) and the traced replays
(traced.py), so the three can never drift apart.

The job lists are fixed. The benchmark seed only derives the Monte Carlo
seed of `tkh_mc` and the random tuple batches of the traced probes.
"""

import hashlib

X = 10 ** 8
TEN = (0, 2, 6, 8, 12, 18, 20, 26, 30, 32)
TEN_S = ",".join(map(str, TEN))
MC_K, MC_H, MC_SAMPLES, MC_THREADS = 10, 100, 100000, 2
EXACT_K, EXACT_H = 4, 40
PAIR_H = 10000
TABLE_LIMIT = X + 64
SWEEP = (100, 5500, 25)
HL_TEN_X = 10 ** 6
SELBERG_X, SELBERG_EPS = 10 ** 7, 0.1
GAMMA_X, GAMMA_ZS = 10 ** 5, (1000, 10000, 100000, 1000000)
GAMMA_TUPLE, GAMMA_Z = (0, 2, 6), 240

# The table file lives at a fixed path relative to the checkout root so
# that sieve-cache's stdout, which echoes the path, is the same in every run.
TABLE_PATH = "bench/.work/primes.pkt"

WORKLOADS = {
    # The paper's headline short-interval statistic: two fresh sieves to
    # 10^8 and two window histograms; singular, averages and hl do nothing.
    "window-stats": ["moments", "tail"],
    # Singular-series and T_k(h) averages; primes does nothing.
    "tuple-averages": ["tkh_mc", "tkh_exact", "tkh_pair", "singular"],
    # The prime table by save and load instead of sieving, the HL and
    # Selberg reports, the 2.5 GB peak of hl at 10^8, and six interpreter
    # start-ups. While li_k loses the mass near t = 2 for k >= 8, hl_10tuple
    # exits 3; it stays in the list and counts as a failed job.
    "hl-sieve": ["sieve_cache", "hl_twins", "hl_sweep", "hl_10tuple",
                 "selberg_twins", "selberg_gamma"],
}


def mc_seed(seed):
    """The tkh_mc --seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"primetail-bench-mc:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def cli_args(job, seed):
    """The primetail subcommand and arguments of one job."""
    cache = ["--cache", TABLE_PATH]
    sweep = ":".join(map(str, SWEEP))
    return {
        "moments": ["moments", "--x", str(X), "--lambda", "1", "--r-max", "4"],
        "tail": ["tail", "--x", str(X), "--lambda", "1", "--k-max", "10"],
        "tkh_mc": ["tkh", "--k", str(MC_K), "--h", str(MC_H), "--mode", "mc",
                   "--samples", str(MC_SAMPLES), "--seed", str(mc_seed(seed)),
                   "--threads", str(MC_THREADS)],
        "tkh_exact": ["tkh", "--k", str(EXACT_K), "--h", str(EXACT_H)],
        # --mode exact selects the O(h) pair path; the automatic mode would
        # pick Monte Carlo because C(h,2) exceeds the exact subset budget.
        "tkh_pair": ["tkh", "--k", "2", "--h", str(PAIR_H), "--mode", "exact"],
        "singular": ["singular", "--tuple", TEN_S, "--jensen"],
        "sieve_cache": ["sieve-cache", "--limit", str(TABLE_LIMIT), "--out", TABLE_PATH],
        "hl_twins": ["hl", "--tuple", "0,2", "--x", str(X), *cache],
        # --x is required by the parser; the sweep's end makes it a no-op.
        "hl_sweep": ["hl", "--tuple", TEN_S, "--x", str(SWEEP[1]), "--sweep", sweep, *cache],
        "hl_10tuple": ["hl", "--tuple", TEN_S, "--x", str(HL_TEN_X), *cache],
        "selberg_twins": ["selberg", "--tuple", "0,2", "--x", str(SELBERG_X),
                          "--epsilon", str(SELBERG_EPS), *cache],
        "selberg_gamma": ["selberg", "--tuple", ",".join(map(str, GAMMA_TUPLE)),
                          "--x", str(GAMMA_X), "--z", str(GAMMA_Z),
                          "--gamma-table", ",".join(map(str, GAMMA_ZS)), *cache],
    }[job]
