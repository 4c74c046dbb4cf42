"""The benchmark's workloads, their inputs and the checks on their outputs.

A unit is a short sequence of `liftsim.cli.main` calls (argv tuples without
`--out`; the runner adds one).  One client issues the calls one after another
and waits for each to return, a closed loop with a single caller.  Every
input is derived from the benchmark seed, except in `sweep-n2`, which is
exact and has no randomness to seed.  Each pass of a run draws fresh units
from the seeded stream, so a run averages over many inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
SWEEP_M_LIST = ("4", "8", "16", "32", "64")


@dataclass(frozen=True)
class Workload:
    name: str
    units: int      # units per pass
    make: Callable  # (rng, units, liftsim modules) -> list of units

    def passes(self, seed, units, mods):
        """Endless stream of passes, each a list of `units` fresh units; the
        same seed gives the same stream."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield self.make(rng, units, mods)

    def inputs(self, seed, units, mods):
        """The units of the first pass."""
        return next(self.passes(seed, units, mods))


def _seed(rng) -> str:
    return str(rng.randrange(2 ** 31))


def _partition(rng, units, mods):
    return [(("partition", "--count", "2", "--coords", "4", "--m", "8",
              "--max-support", "128", "--seed", _seed(rng)),)
            for _ in range(units)]


def _sweep(rng, units, mods):
    return [(("sweep", "--n", "2", "--m-list", *SWEEP_M_LIST, "--jobs", "1"),)
            for _ in range(units)]


def _walk(rng, units, mods):
    return [(("simulate", "--fixture", "builtin:bob-first", "--m", "8",
              "--samples", "100", "--seed", _seed(rng)),)
            for _ in range(units)]


def _oracle(rng, units, mods):
    """Random depth-3 table protocols at n=2, m=4, written as fixture files
    named by their content, so equal argv means equal input."""
    G = mods.fixtures.instance(2, 4)
    os.makedirs("fixtures", exist_ok=True)
    out = []
    for _ in range(units):
        pt = mods.fixtures.random_protocol(rng, G, 3)
        text = json.dumps(mods.protocol.protocol_to_dict(pt), sort_keys=True)
        path = f"fixtures/{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
        with open(path, "w") as fh:
            fh.write(text)
        out.append((("verify", "--fixture", path, "--battery", "10",
                     "--seed", _seed(rng)),
                    ("convert", "--fixture", path)))
    return out


# Each workload stresses a different layer; the reasons are also stated in
# BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # entropy.density_restoring_partition is ~95% of the time (ROADMAP item
    # 2); never reaches protocol, simulate or analysis.
    Workload("partition-j4", 40, _partition),
    # refine on cube Bob sets, partition of large 2-block sets and the count
    # oracle: 100 refine calls for 25 (protocol, m) pairs.
    Workload("sweep-n2", 1, _sweep),
    # ledger_check and simulate_sample, refine and partition near 0: the
    # control for partition and refine changes.
    Workload("walk-samples", 50, _walk),
    # the only workload with explicit Bob sets, the enumerate oracle,
    # protocol_to_dt, fixture loading and the analysis batteries.
    Workload("oracle-explicit", 60, _oracle),
)}


def _verify_ok(rep):
    return (all(z["support_check"] is True for z in rep["per_z"].values())
            and rep["fourier_battery"]["implication_held"] is True
            and rep["norm_battery"]["bound_held"] is True)


# command -> predicate on (argv, report.json contents): the run's pass flags
CHECKS = {
    "partition": lambda argv, rep: (
        rep["all_lemma_checks_passed"] is True
        and rep["checked"] == int(argv[argv.index("--count") + 1])),
    "sweep": lambda argv, rep: (
        sorted(rep["median_tv_by_m"], key=int) == list(SWEEP_M_LIST)),
    "simulate": lambda argv, rep: rep["ledger_checks_passed"] is True,
    "verify": lambda argv, rep: _verify_ok(rep),
    "convert": lambda argv, rep: (
        rep["direction"] == "protocol->decision_tree"
        and rep["components"] >= 1),
}


def digest_key(argv) -> str:
    return " ".join(argv)


def output_digest(out_dir) -> str:
    """sha256 over report.json and the CSV tables, by file name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def check_call(argv, code, out_dir, expected_digests):
    """(ok, digest) for one finished call: exit 0, pass flags hold, and the
    digest matches the recorded one when the argv was recorded."""
    report_path = os.path.join(out_dir, "report.json")
    if code != 0 or not os.path.isfile(report_path):
        return False, None
    with open(report_path) as fh:
        report = json.load(fh)
    digest = output_digest(out_dir)
    try:
        ok = CHECKS[argv[0]](argv, report)
    except (KeyError, TypeError, AttributeError, ValueError):
        ok = False
    expected = expected_digests.get(digest_key(argv))
    return ok and expected in (None, digest), digest


def load_digests() -> dict:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)
