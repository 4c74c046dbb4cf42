"""liftsim benchmark: CLI workloads timed end to end, and a traced run for
per-layer self time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-digests

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  A run sets up several times (fresh import of liftsim
plus generation of the first pass's inputs; `setup_s` is the median), then
makes passes until `--seconds` is used up.  A pass runs a list of units, one
after another, through `liftsim.cli.main` in this process: one closed-loop
client.  Every call's output is checked (exit code, pass flags and, where
one was recorded, the digest in digests.json).

With `--trace 0` the metrics are the end-to-end ones.  Each pass draws fresh
units from the seeded stream, so a run covers several passes' worth of
inputs.  `wall_s` is the time of one pass (the sum of its unit times),
averaged over the passes; `unit_p50_ms` and `unit_tail_ms` are the median
and the tail of all unit times of the run, the tail at the highest
percentile that leaves at least 10 units of one pass beyond it.  `failed_frac`
is printed beside them and carried by `failed / attempted` in the result
line.

The shared CPU these runs get changes speed by up to half for seconds to
hours at a time, which moves every timing with it.  So each end-to-end time
is given in reference seconds: a fixed pure-Python loop (`probe`) is timed
every PROBE_EVERY_S by a sampling thread (`SpeedGauge`), and after every
set-up and every pass, and times are scaled by PROBE_REF_S / (median probe
time), per pass for the units and over all set-ups for `setup_s`; that is,
to a CPU on which the probe takes PROBE_REF_S.  A slower program moves the
times; a slower CPU moves the probe with them.  The sampling thread holds
the interpreter lock for about 1% of the time, which the times include.
The unscaled times and the probe medians are in the run record.

With `--trace 1` each round is one untraced pass and one traced pass over the
first pass's units; the traced pass wraps liftsim's layer functions
(layers.py) and gives per-layer self times and counts.  Its outputs must
match the untraced pass byte for byte, and every round's the first round's.
Spans of the last traced pass go to `.bench_out/trace-<workload>.jsonl` at
the checkout root.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The line before it records the environment (Python,
nproc, git revision, seed), the unscaled times and the probe medians before,
during and after the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import traceback
from itertools import chain
from time import perf_counter
from types import SimpleNamespace

import layers
import workloads
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("core", "entropy", "protocol", "simulate", "analysis", "fixtures", "cli")
SETUPS = 15
MAX_SELF_TIME_GAP = 0.01
PROBE_REF_S = 0.001      # probe time on the reference CPU
PROBE_EVERY_S = 0.1      # sampling period of the probe

END_TO_END = {
    "wall_s": "s",          # one pass: the sum of its unit times
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",   # highest percentile with >= 10 units of a pass beyond it
    "setup_s": "s",         # import plus input generation
    "peak_rss_mb": "MB",
}


def import_liftsim():
    """Fresh import of liftsim from the checkout's src/, dropping earlier ones."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "liftsim" or n.startswith("liftsim.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"liftsim.{n}") for n in MODULES})
    if not os.path.abspath(mods.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"liftsim was imported from {mods.cli.__file__}, not {SRC}")
    return mods


def liftsim_modules():
    return [m for n, m in sys.modules.items() if n == "liftsim" or n.startswith("liftsim.")]


def probe() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of the CPU's current
    speed.  Of the loops tried, this one tracked liftsim's own slowdowns on
    a shared CPU most closely."""
    t0 = perf_counter()
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


class SpeedGauge:
    """Probe times, sampled every PROBE_EVERY_S from a daemon thread while
    the gauge is entered, and on demand with `sample`."""

    def __init__(self):
        self.samples = []     # (perf_counter at the end, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_EVERY_S):
            self.sample()

    def sample(self):
        t = probe()
        self.samples.append((perf_counter(), t))

    def median(self, start, end):
        return statistics.median(t for at, t in self.samples if start <= at <= end)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def call(cli, argv, out):
    """One CLI call, its printed output discarded; None, with the traceback
    on the benchmark's stderr, if it raised."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main([*argv, "--out", out])
        except Exception:
            traceback.print_exc(file=sys.__stderr__)
            return None


def run_pass(mods, units, expected, reference=None, tracer=None):
    """One closed-loop pass: (unit seconds, unit digests, units failed).

    A unit fails when a call fails its check, or when its digests differ
    from `reference` (the first pass) where that is given."""
    times, digests, failed = [], [], 0
    for i, unit in enumerate(units):
        if tracer is not None:
            tracer.unit = i
        outs = [os.path.join("out", str(j)) for j in range(len(unit))]
        t0 = perf_counter()
        codes = [call(mods.cli, argv, out) for argv, out in zip(unit, outs)]
        times.append(perf_counter() - t0)
        checked = [workloads.check_call(argv, code, out, expected)
                   for argv, code, out in zip(unit, codes, outs)]
        shutil.rmtree("out", ignore_errors=True)
        digest = tuple(d for _, d in checked)
        ok = all(good for good, _ in checked)
        if reference is not None and digest != reference[i]:
            ok = False
        digests.append(digest)
        failed += not ok
    return times, digests, failed


def unit_tail(times, per_pass):
    """(value, percentile): the highest percentile with at least 10 units of
    one pass beyond it, or the maximum when a pass has 10 units or fewer;
    nearest rank over all `times`."""
    s = sorted(times)
    if per_pass <= 10:
        return s[-1], 100.0
    percentile = 100 * (per_pass - 10) / per_pass
    return s[max(0, math.ceil(len(s) * percentile / 100) - 1)], percentile


@contextlib.contextmanager
def scratch_dir():
    """A fresh working directory inside the checkout, removed on exit.  The
    CLI runs there, so fixture paths in reports are relative and repeat."""
    work = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def run_workload(wl, seed, seconds, trace, units=None, expected=None):
    """Run one workload; returns (result line, run record)."""
    n_units = wl.units if units is None else units
    expected = workloads.load_digests() if expected is None else expected
    with scratch_dir(), (contextlib.nullcontext() if trace else SpeedGauge()) as gauge:
        setup = []
        setup_start = perf_counter()
        for _ in range(SETUPS):
            t0 = perf_counter()
            mods = import_liftsim()
            stream = wl.passes(seed, n_units, mods)
            unit_list = next(stream)
            setup.append(perf_counter() - t0)
            if gauge:
                gauge.sample()
        spans = [(setup_start, perf_counter())]
        untraced, traced = [], []
        attempted = failed = 0
        reference = None
        start = perf_counter()
        while True:
            t0 = perf_counter()
            times, digests, bad = run_pass(mods, unit_list, expected, reference)
            untraced.append(times)
            attempted += len(times)
            failed += bad
            if trace:
                reference = reference or digests
                tracer = Tracer()
                with tracer.installed(layers.targets(mods), liftsim_modules()):
                    times, _, bad = run_pass(mods, unit_list, expected, reference, tracer)
                traced.append((tracer, sum(times)))
                attempted += len(times)
                failed += bad
            else:
                gauge.sample()
                spans.append((t0, perf_counter()))
            step = perf_counter() - t0
            if perf_counter() - start + step > seconds:
                break
            if not trace:
                unit_list = next(stream)

    correct = failed == 0
    record = {
        "workload": wl.name, "seed": seed, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(),
        "passes": len(untraced), "units_per_pass": n_units,
        "pass_walls_s": [sum(t) for t in untraced],
        "unscaled": {"wall_s": statistics.fmean(sum(t) for t in untraced),
                     "unit_p50_ms": 1000 * statistics.median(chain(*untraced)),
                     "setup_s": statistics.median(setup)},
        "failed_frac": failed / attempted,
    }
    if trace:
        metrics = layers.layer_metrics(traced, [sum(t) for t in untraced])
        gap = max(layers.self_time_gap(t, w) for t, w in traced)
        repeat = layers.counts_repeat(traced)
        record.update(self_time_gap=gap, counts_repeat=repeat,
                      traced_walls_s=[w for _, w in traced])
        correct = correct and repeat and gap <= MAX_SELF_TIME_GAP
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        traced[-1][0].write(os.path.join(ROOT, ".bench_out", f"trace-{wl.name}.jsonl"))
    else:
        setup_probe, *pass_probes = [gauge.median(a, b) for a, b in spans]
        record["probe_median_s"] = {"setup": setup_probe, "passes": pass_probes}
        scaled = [[t * PROBE_REF_S / p for t in ts]
                  for ts, p in zip(untraced, pass_probes)]
        tail, record["unit_tail_percentile"] = unit_tail(list(chain(*scaled)), n_units)
        values = {
            "wall_s": statistics.fmean(sum(ts) for ts in scaled),
            "unit_p50_ms": 1000 * statistics.median(chain(*scaled)),
            "unit_tail_ms": 1000 * tail,
            "setup_s": statistics.median(setup) * PROBE_REF_S / setup_probe,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def record_digests():
    """Write digests.json: one untraced pass of every workload at the default
    seed; refuses when any output check fails."""
    digests = {}
    for wl in workloads.WORKLOADS.values():
        with scratch_dir():
            mods = import_liftsim()
            units = wl.inputs(workloads.DEFAULT_SEED, wl.units, mods)
            _, unit_digests, failed = run_pass(mods, units, {})
        if failed:
            raise SystemExit(f"{wl.name}: {failed} units failed; nothing recorded")
        for unit, ds in zip(units, unit_digests):
            for argv, d in zip(unit, ds):
                digests[workloads.digest_key(argv)] = d
    with open(workloads.DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liftsim", "cli.py")):
        print(f"no liftsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    result, record = run_workload(workloads.WORKLOADS[args.workload],
                                  args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} units); "
          f"{record['passes']} passes of {record['units_per_pass']} units"
          + (f"; unit_tail is p{record['unit_tail_percentile']:.4g}"
             if "unit_tail_percentile" in record else ""))
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
