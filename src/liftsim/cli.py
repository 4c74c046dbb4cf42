"""Experiment runner.

Subcommands
    partition  random density-restoring partitions, lemma-verified
    refine     build a refined protocol and check the structured invariant
    simulate   exact walk distribution plus seeded sampled runs and ledgers
    verify     simulator vs brute-force transcript distributions + batteries
    sweep      closeness / query / failure-rate curves over block sizes
    convert    decision tree <-> protocol round trips with error measurement

Reports are deterministic for a fixed config and seed: JSON summaries carry
exact rationals as "p/q" strings next to float renderings, curves go to CSV.
Exit codes: 0 all checks passed; 1 a zero-tolerance invariant failed (the
report names it and the seed); 2 bad config or fixture; 3 an exact
computation exceeded its resource budget; 4 an internal error (a bug in
liftsim, not a finding about the input).

Defaults mirror the analysis regime where meaningful: density rate 9/10 and
deficiency cap n^3 bits.  The regime in which the closeness guarantees are
proved sets the block size to n**256 (see core.asymptotic_gadget_size); that
formula is documented here for orientation only, desk-scale runs measure
trends instead.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import random
import statistics
import sys
from fractions import Fraction

from . import analysis, entropy, fixtures, simulate as sim
from .core import (
    BOT,
    ExplicitBobSet,
    GadgetSpec,
    OuterFunction,
    PAIR_BUDGET_DEFAULT,
    PartialAssignment,
    Rect,
    compose_eval,
    is_structured,
)
from .errors import DomainError, ResourceError
from .protocol import (
    DecisionTree,
    ProtocolTree,
    RLeaf,
    RandomizedProtocol,
    dt_eval,
    dt_to_protocol,
    load_fixture,
    refine,
    run_protocol,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def rat(x: Fraction) -> dict:
    return {"exact": entropy.frac_str(x), "float": float(x)}


def transcript_str(t) -> str:
    if t is BOT:
        return "bot"
    return ";".join(f"{k}={v}" for k, v in t)


def dist_record(d) -> list:
    rows = []
    for o, p in sorted(d.items(), key=lambda kv: transcript_str(kv[0])):
        row = {"outcome": transcript_str(o), "p": rat(p)}
        if o is not BOT:
            row["messages"] = [list(msg) for msg in o]
        rows.append(row)
    return rows


def load_cli_fixture(spec_str: str, m: int | None, kinds):
    """A fixture path, or builtin:one-bit / builtin:bob-first (sized by m),
    that loads as one of the classes in the tuple `kinds`; any other kind is a
    DomainError, as is an m other than a protocol's own."""
    if spec_str.startswith("builtin:"):
        name = spec_str.split(":", 1)[1]
        build = {"one-bit": fixtures.one_bit_fixture,
                 "bob-first": fixtures.bob_first_fixture}.get(name)
        if build is None:
            raise DomainError(f"unknown builtin fixture {name!r}")
        obj = build(2 if m is None else m)
    else:
        obj = load_fixture(spec_str)
    if not isinstance(obj, kinds):
        raise DomainError(f"{spec_str} holds {type(obj).__name__}, not "
                          + " or ".join(k.__name__ for k in kinds))
    if m is not None and hasattr(obj, "G") and m != obj.G.m:
        raise DomainError(f"--m {m} differs from m={obj.G.m} in {spec_str}")
    return obj


class Violation(Exception):
    def __init__(self, invariant, detail, seed=None):
        self.invariant = invariant
        self.detail = detail
        self.seed = seed
        super().__init__(f"{invariant}: {detail}")


def write_report(out_dir, report, csv_tables):
    """report -> report.json; csv_tables: name -> (header, rows)."""
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    for name, (header, rows) in csv_tables.items():
        with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def _rational(text, flag) -> Fraction:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{flag} {text!r} is not a rational number") from None
    if max(abs(q.numerator), q.denominator) > entropy.RATIONAL_BUDGET:
        raise DomainError(f"{flag} {text!r}: numerator or denominator > {entropy.RATIONAL_BUDGET}")
    return q


# integer flag -> its least valid value
_FLAG_MINIMUM = {"coords": 1, "max_support": 1, "budget": 1, "jobs": 1, "m": 1,
                 "count": 0, "samples": 0, "battery": 0}


def _check_flags(args):
    """The numeric flags, checked once before dispatch: --delta an exact
    rational in (0, 1), --deficiency-cap a positive one, both with numerator
    and denominator at most entropy.RATIONAL_BUDGET, and the integer flags of
    _FLAG_MINIMUM at least their minimum.  The two rationals are stored back
    on args as Fractions."""
    args.delta = _rational(args.delta, "--delta")
    if not 0 < args.delta < 1:
        raise DomainError(f"--delta must lie in (0, 1), got {args.delta}")
    if getattr(args, "deficiency_cap", None) is not None:
        cap = args.deficiency_cap = _rational(args.deficiency_cap, "--deficiency-cap")
        if cap <= 0:
            raise DomainError(f"--deficiency-cap must be positive, got {cap}")
    for name, least in _FLAG_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise DomainError(f"{flag} must be at least {least}, got {value}")


def _sim_config(args) -> sim.SimConfig:
    return sim.SimConfig(delta=args.delta, deficiency_cap=args.deficiency_cap,
                         query_cap=args.query_cap, strict_zpp=args.strict_zpp)


# --- subcommands ---

def cmd_partition(args):
    if args.seed is None:
        raise DomainError("--seed is mandatory for randomized runs")
    rng = random.Random(args.seed)
    rows = []
    for idx in range(args.count):
        support = fixtures.random_support(rng, args.coords, args.m,
                                          max_size=args.max_support)
        v = entropy.SetVar(support, (args.m,) * args.coords)
        parts = entropy.density_restoring_partition(v, args.delta)
        report = entropy.verify_partition_lemma(v, parts, args.delta)
        if not report.ok:
            bad = report.first_violation()
            raise Violation(
                "density-restoring partition lemma",
                f"instance {idx} part {bad.order if bad else '?'} "
                f"(support size {len(support)}, J={args.coords}, m={args.m})",
                seed=args.seed,
            )
        for p in parts:
            rows.append([idx, p.order, p.label() or "(dense)", p.size,
                         entropy.frac_str(p.delta_ratio),
                         entropy.log2_float(p.delta_ratio)])
    report = {
        "checked": args.count,
        "all_lemma_checks_passed": True,
    }
    tables = {"parts": (["instance", "order", "label", "size", "delta_ratio",
                         "delta_bits"], rows)}
    return report, tables


def cmd_refine(args):
    pt = load_cli_fixture(args.fixture, args.m, (ProtocolTree,))
    rp = refine(pt, args.delta, pair_budget=args.budget)
    rows = []
    bad = None
    for idx, node in enumerate(rp.iter_nodes()):
        kind = type(node).__name__
        ok = True
        if not isinstance(node, RLeaf):
            ok = is_structured(node.rect, node.rho, args.delta, rp.G)
            if not ok and bad is None:
                bad = (idx, kind)
        rows.append([idx, kind, str(node.rho), node.rect.x_size, node.rect.y_size,
                     entropy.log2_float(node.def_y), entropy.log2_float(node.potential),
                     int(ok)])
    if bad is not None:
        raise Violation("structured-rectangle invariant",
                        f"iteration node {bad[0]} ({bad[1]}) of {args.fixture}")
    report = {
        "source_cost": pt.cost,
        "iteration_nodes": sum(1 for r in rows if r[1] != "RLeaf"),
        "leaves": sum(1 for r in rows if r[1] == "RLeaf"),
        "structured_invariant": True,
    }
    tables = {"nodes": (["node", "kind", "rho", "x_size", "y_size",
                         "def_y_bits", "potential_bits", "structured"], rows)}
    return report, tables


def _z_values(arg_z, n):
    if arg_z == "all":
        return list(itertools.product((0, 1), repeat=n))
    if len(arg_z) != n or not set(arg_z) <= {"0", "1"}:
        raise DomainError(f"--z {arg_z!r} is not 'all' or a bit string of length n={n}")
    return [tuple(map(int, arg_z))]


def cmd_simulate(args):
    pt = load_cli_fixture(args.fixture, args.m, (ProtocolTree,))
    if args.samples > 0 and args.seed is None:
        raise DomainError("--seed is mandatory for randomized runs")
    cfg = _sim_config(args)
    rp = refine(pt, cfg.delta, pair_budget=args.budget)
    per_z = {}
    sample_rows = []
    for z in _z_values(args.z, pt.G.n):
        zs = "".join(map(str, z))
        exact = sim.simulate_exact(rp, z, cfg)
        counts = {}
        for i in range(args.samples):
            out = sim.simulate_sample(rp, z, cfg, seed=args.seed + i)
            if not sim.ledger_check(out, cfg.delta):
                raise Violation("per-run potential ledger",
                                f"z={zs} sample {i}", seed=args.seed + i)
            counts[out.outcome] = counts.get(out.outcome, 0) + 1
        for o, c in sorted(counts.items(), key=lambda kv: transcript_str(kv[0])):
            sample_rows.append([zs, transcript_str(o), c, args.samples,
                                float(exact.transcripts.prob(o))])
        per_z[zs] = {
            "transcripts": dist_record(exact.transcripts),
            "queries": [{"count": q, "p": rat(p)}
                        for q, p in sorted(exact.queries.items())],
            "bot": {r: rat(p) for r, p in sorted(exact.bot_reasons.items())},
            "samples": args.samples,
        }
    report = {"per_z": per_z, "ledger_checks_passed": True}
    tables = {"samples": (["z", "outcome", "count", "samples", "exact_p"],
                          sample_rows)}
    return report, tables


def cmd_verify(args):
    pt = load_cli_fixture(args.fixture, args.m, (ProtocolTree,))
    if args.seed is None:
        raise DomainError("--seed is mandatory for randomized runs")
    cfg = _sim_config(args)
    rng = random.Random(args.seed)
    rp = refine(pt, cfg.delta, pair_budget=args.budget)
    G = rp.G
    per_z = {}
    for z in _z_values(args.z, G.n):
        zs = "".join(map(str, z))
        t_z = sim.simulate_exact(rp, z, cfg).transcripts
        t_true = analysis.true_transcript_dist(rp, z, pair_budget=args.budget)
        tv = analysis.tv_distance(t_z, t_true)
        if args.expect_exact and tv != 0:
            raise Violation("exact-simulation expectation",
                            f"z={zs}: TV = {tv} != 0 for {args.fixture}",
                            seed=args.seed)
        per_z[zs] = {"tv": rat(tv),
                     "support_check": analysis.support_check(t_z, t_true),
                     "bot_mass": rat(t_z.prob(BOT))}
    marg_rows = []
    for idx in range(args.battery):
        m = rng.choice([2, 4])
        n = rng.choice([1, 2])
        g = fixtures.instance(n, m)
        X = frozenset(fixtures.random_support(rng, n, m, max_size=8))
        Y = frozenset(tuple(rng.randrange(2 ** m) for _ in range(n))
                      for _ in range(rng.randint(1, 8)))
        z = tuple(rng.randint(0, 1) for _ in range(n))
        rep = analysis.marginals_report(Rect(X, ExplicitBobSet(n, m, Y)),
                                        PartialAssignment.free_everywhere(n),
                                        z, g)
        marg_rows.append([idx, n, m, int(rep.nonempty), float(rep.tv_x),
                          float(rep.tv_y), int(rep.structured),
                          int(rep.deficiency_ok)])
    for idx in range(args.battery):
        n = rng.choice([2, 4])
        j = rng.randint(1, n)
        d = _random_dist(rng, j, n)
        hyp, concl = analysis.fourier_pointwise_check(d, n)
        if hyp and not concl:
            raise Violation("parities-to-pointwise implication",
                            f"battery instance {idx}", seed=args.seed)
    for idx in range(args.battery):
        m = rng.choice([2, 4, 8])
        nI = rng.choice([1, 2])
        g = GadgetSpec.index(m)
        coords = tuple(range(1, nI + 1))
        X = entropy.SetVar(fixtures.random_support(rng, nI, m, max_size=16),
                           (m,) * nI)
        Y = entropy.SetVar({tuple(rng.randrange(2 ** m) for _ in coords)
                            for _ in range(rng.randint(1, 16))}, (2 ** m,) * nI)
        I = tuple(sorted(rng.sample(coords, rng.randint(1, nI))))
        nb = analysis.norm_bound_check(g, I, X, Y)
        if not nb.holds:
            raise Violation("parity-bias norm bound",
                            f"battery instance {idx}", seed=args.seed)
    report = {
        "note": ("marginal closeness guarantees hold only in the large-m "
                 "regime; tv_x/tv_y and emptiness are reported, not asserted"),
        "per_z": per_z,
        "fourier_battery": {"checked": args.battery, "implication_held": True},
        "norm_battery": {"checked": args.battery, "bound_held": True},
        "marginals_battery": {"checked": len(marg_rows)},
    }
    tables = {"marginals": (["instance", "n", "m", "nonempty", "tv_x", "tv_y",
                             "structured", "deficiency_ok"], marg_rows)}
    return report, tables


def _random_dist(rng, j, n):
    if rng.random() < 0.5:
        return _fourier_noise(rng, j, n)
    weights = [rng.randint(1, 8) for _ in range(2 ** j)]
    total = sum(weights)
    return sim.ExactDist({z: Fraction(w, total) for z, w in
                          zip(itertools.product((0, 1), repeat=j), weights)})


def _fourier_noise(rng, j, n):
    probs = {}
    coeffs = {}
    for r in range(1, j + 1):
        for I in itertools.combinations(range(1, j + 1), r):
            c = Fraction(1, n ** (5 * r)) * Fraction(rng.randint(-100, 100), 100)
            if c:
                coeffs[I] = c
    for z in itertools.product((0, 1), repeat=j):
        p = Fraction(1, 2 ** j)
        for I, c in coeffs.items():
            parity = sum(z[i - 1] for i in I) % 2
            p += Fraction(1, 2 ** j) * (-c if parity else c)
        probs[z] = p
    return sim.ExactDist(probs)


def _sweep_instance(task):
    """One family member at one m, refined once (refinement does not depend
    on z), and one (protocol, z, m) cell per z; exact, so no seed is involved."""
    n, m, name, delta, budget = task
    pt = dict(fixtures.sweep_family(n, m))[name]
    rp = refine(pt, delta, pair_budget=budget)
    cfg = sim.SimConfig(delta=delta)
    cells = []
    for z in itertools.product((0, 1), repeat=n):
        exact = sim.simulate_exact(rp, z, cfg)
        t_true = analysis.true_transcript_dist(rp, z, pair_budget=budget)
        cells.append({
            "key": (name, "".join(map(str, z)), m),
            "tv": analysis.tv_distance(exact.transcripts, t_true),
            "mean_queries": sum((Fraction(q) * p for q, p in exact.queries.items()),
                                Fraction(0)),
            "bot_rate": exact.transcripts.prob(BOT),
        })
    return cells


def cmd_sweep(args):
    ms = args.m_list
    if ms != sorted(ms) or len(set(ms)) != len(ms):
        raise DomainError("m sweep list must be strictly ascending")
    names = [name for name, _ in fixtures.sweep_family(args.n, ms[0])]
    tasks = [(args.n, m, name, args.delta, args.budget)
             for name in names for m in ms]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            per_task = list(ex.map(_sweep_instance, tasks))
    else:
        per_task = [_sweep_instance(t) for t in tasks]
    results = sorted((r for cells in per_task for r in cells), key=lambda r: r["key"])
    rows = []
    tv_by_m = {m: [] for m in ms}
    for r in results:
        name, zs, m = r["key"]
        tv_by_m[m].append(r["tv"])
        rows.append([name, zs, m, entropy.frac_str(r["tv"]), float(r["tv"]),
                     float(r["mean_queries"]), float(r["bot_rate"])])
    medians = {m: statistics.median(sorted(tv_by_m[m])) for m in ms}
    report = {
        "family": names,
        "median_tv_by_m": {str(m): rat(medians[m]) for m in ms},
        "median_non_increasing": all(
            medians[b] <= medians[a] for a, b in zip(ms, ms[1:])
        ),
    }
    tables = {"curve": (["protocol", "z", "m", "tv_exact", "tv_float",
                         "mean_queries", "bot_rate"], rows)}
    return report, tables


def cmd_convert(args):
    obj = load_cli_fixture(args.fixture, args.m,
                           (DecisionTree, ProtocolTree, RandomizedProtocol))
    report = {}
    outer = None
    if args.outer:
        outer = load_cli_fixture(args.outer, None, (OuterFunction,))
    if isinstance(obj, DecisionTree):
        if args.m is None:
            raise DomainError("--m is required to lift a decision tree")
        G = fixtures.instance(obj.n, args.m)
        pairs = G.alice_size * G.bob_size
        if pairs > args.budget:
            raise ResourceError("conversion output agreement", pairs, args.budget)
        pt = dt_to_protocol(obj, G)
        expected = obj.depth * (G.log_m + 1)
        if pt.cost != expected:
            raise Violation("conversion cost", f"{pt.cost} != {expected}")
        for xs in G.alice_domain():
            for ys in G.bob_domain():
                if run_protocol(pt, xs, ys)[1] != dt_eval(obj, compose_eval(G, xs, ys))[0]:
                    raise Violation("conversion output agreement",
                                    f"input ({xs}, {ys})")
        report["direction"] = "decision_tree->protocol"
        report["cost"] = pt.cost
        report["cost_formula"] = f"depth*(log_m+1) = {obj.depth}*{G.log_m + 1}"
        report["output_agreement"] = True
        back = sim.protocol_to_dt(pt, _sim_config(args), pair_budget=args.budget)
        report["round_trip_components"] = len(back.components)
        report["round_trip_depth"] = back.depth
        if outer is not None:
            report["round_trip_error"] = rat(analysis.dt_error(back, outer))
    else:
        rdt = sim.protocol_to_dt(obj, _sim_config(args), pair_budget=args.budget)
        report["direction"] = "protocol->decision_tree"
        report["components"] = len(rdt.components)
        report["depth"] = rdt.depth
        if outer is not None:
            report["error"] = rat(analysis.dt_error(rdt, outer))
    return report, {}


# --- wiring ---

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liftsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, budget=True):
        # --seed where the subcommand draws at random, --budget where it enumerates
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="directory for report.json and CSVs")
        if budget:
            sp.add_argument("--budget", type=int, default=PAIR_BUDGET_DEFAULT)
        sp.add_argument("--delta", default="9/10", help="density rate (exact rational)")

    def fixture(sp, default=None):
        # the protocol or decision tree to run, required unless given a default
        sp.add_argument("--fixture", required=default is None, default=default)
        sp.add_argument("--m", type=int, default=None)

    def walk(sp):
        # the SimConfig fields besides --delta (see _sim_config)
        sp.add_argument("--strict-zpp", action="store_true")
        sp.add_argument("--deficiency-cap", default=None)
        sp.add_argument("--query-cap", type=int, default=None)

    sp = sub.add_parser("partition", help="random partition + lemma battery")
    common(sp, seed=True, budget=False)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--coords", type=int, default=2)
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--max-support", type=int, default=64)
    sp.set_defaults(fn=cmd_partition)

    sp = sub.add_parser("refine", help="refine a protocol, check the invariant")
    common(sp)
    fixture(sp)
    sp.set_defaults(fn=cmd_refine)

    sp = sub.add_parser("simulate", help="exact walk distribution + samples")
    common(sp, seed=True)
    fixture(sp)
    sp.add_argument("--z", default="all")
    sp.add_argument("--samples", type=int, default=0)
    walk(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("verify", help="simulator vs slice truth + batteries")
    common(sp, seed=True)
    fixture(sp, default="builtin:one-bit")
    sp.add_argument("--z", default="all")
    sp.add_argument("--battery", type=int, default=200)
    sp.add_argument("--expect-exact", action="store_true")
    walk(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="tv / queries / failure-rate vs m")
    common(sp)
    sp.add_argument("--n", type=int, default=1, choices=(1, 2))
    sp.add_argument("--m-list", type=int, nargs="+", default=[4, 8, 16, 32])
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("convert", help="decision tree <-> protocol round trips")
    common(sp)
    fixture(sp)
    sp.add_argument("--outer", default=None)
    walk(sp)
    sp.set_defaults(fn=cmd_convert)
    return p


def _apply_config_file(parser, argv):
    """defaults < config file < explicit flags (last wins)."""
    if "--config" not in argv:
        return parser.parse_args(argv)
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise DomainError("--config needs a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    with open(path, encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise DomainError("config file must hold a JSON object")
    command = conf.pop("command", None)
    if rest and not rest[0].startswith("-"):
        command, rest = rest[0], rest[1:]
    if command is None:
        raise DomainError("config file or command line must name a command")
    if not isinstance(command, str) or command.startswith("-"):
        raise DomainError(f"config command {command!r} is not a subcommand name")
    rebuilt = [command]
    for key, value in sorted(conf.items()):
        flag = "--" + str(key).replace("_", "-")
        if value is None:
            continue  # null: the flag is not given
        if isinstance(value, bool):
            if value:
                rebuilt.append(flag)
        elif isinstance(value, list):
            rebuilt.append(flag)
            rebuilt.extend(str(v) for v in value)
        else:
            rebuilt.extend([flag, str(value)])
    if any("\0" in arg for arg in rebuilt):
        raise DomainError("config file keys and values cannot hold NUL characters")
    return parser.parse_args(rebuilt + rest)


# command -> (flags its report's config leaves out, keys it adds): the
# reports in bench/digests.json were recorded this way, so the table empties
# only together with re-recorded digests
_CONFIG_LEGACY = {
    "verify": ({"deficiency_cap", "query_cap"}, {}),
    "convert": ({"outer", "strict_zpp", "deficiency_cap", "query_cap"}, {"n": None}),
}


def _config(args) -> dict:
    """A report's config: every parsed flag but --out, so that the report's
    command and config replay the run through --config (the inverse of
    _apply_config_file), Fractions as str."""
    dropped, added = _CONFIG_LEGACY.get(args.command, ((), {}))
    config = {key: str(value) if isinstance(value, Fraction) else value
              for key, value in vars(args).items()
              if key not in {"out", "command", "config", "fn", *dropped}}
    return {**config, **added}


def _print_report(report):
    """The report on stdout; a reader that closed it early changes no exit code."""
    try:
        print(json.dumps(report, sort_keys=True, indent=2), flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, which would raise anew
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config_file(parser, argv)
        _check_flags(args)
    except (OSError, RecursionError, ValueError) as e:  # DomainError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        results, tables = args.fn(args)
        report = {"command": args.command, "config": _config(args), **results}
        write_report(args.out, report, tables)
    except Violation as e:
        report = {"command": args.command, "violation": e.invariant,
                  "detail": e.detail, "reproduce_with_seed": e.seed}
        _print_report(report)
        print(f"FAILED {e.invariant}: {e.detail}"
              + (f" (seed {e.seed})" if e.seed is not None else ""),
              file=sys.stderr)
        return EXIT_VIOLATION
    except ResourceError as e:
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # exit 1 is kept for genuine invariant failures
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    _print_report(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
