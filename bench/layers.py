"""Which liftsim functions get a span, and the per-layer metrics built from them.

`core` gets no span: its functions run once per element inside the other
layers, so wrapping them would distort the run; their time lands in the
callers' self time.  Counts come from arguments and return values after the
span has ended, so they repeat exactly.
"""

from __future__ import annotations

import statistics


def _oracle_pairs(core):
    """Counter for true_transcript_dist: the pairs it works through on the
    route `auto` picks, slice elements replayed or (leaf row, Bob set) pairs
    counted, whichever is fewer."""
    def counter(result, args, kwargs):
        rp, z = args[0], args[1]
        counted = sum(len(leaf.rect.X) * (1 if isinstance(leaf.rect.Y, core.BobCube)
                                          else core.bob_size(leaf.rect.Y))
                      for _, leaf in rp.leaves())
        return {"slice_pairs": min(counted, core.slice_count(rp.G, z))}
    return counter


def targets(mods):
    """(span name, module, function name, counter) for Tracer.installed."""
    return [
        ("cli", mods.cli, "main", None),
        ("cli.write_report", mods.cli, "write_report", None),
        ("entropy.partition", mods.entropy, "density_restoring_partition",
         lambda r, a, k: {"points": a[0].size, "parts": len(r)}),
        ("entropy.verify", mods.entropy, "verify_partition_lemma", None),
        ("protocol.refine", mods.protocol, "refine",
         lambda r, a, k: {"nodes": sum(1 for _ in r.iter_nodes())}),
        ("protocol.load_fixture", mods.protocol, "load_fixture", None),
        ("simulate.sample", mods.simulate, "simulate_sample",
         lambda r, a, k: {"steps": len(r.ledger), "useful": int(r.failure is None)}),
        ("simulate.ledger", mods.simulate, "ledger_check", None),
        ("simulate.exact", mods.simulate, "simulate_exact", None),
        ("simulate.to_dt", mods.simulate, "protocol_to_dt",
         lambda r, a, k: {"components": len(r.components)}),
        ("analysis.oracle", mods.analysis, "true_transcript_dist",
         _oracle_pairs(mods.core)),
        ("analysis.tv", mods.analysis, "tv_distance", None),
        ("analysis.battery", mods.analysis, "marginals_report", None),
        ("analysis.battery", mods.analysis, "fourier_pointwise_check", None),
        ("analysis.battery", mods.analysis, "norm_bound_check", None),
        ("fixtures.build", mods.fixtures, "sweep_family", None),
        ("fixtures.build", mods.fixtures, "bob_first_fixture", None),
    ]


# span name -> the measures reported for it
_MEASURES = {
    "entropy.partition": ("self_s", "calls", "points", "parts"),
    "entropy.verify": ("self_s", "calls"),
    "protocol.refine": ("self_s", "calls", "nodes"),
    "protocol.load_fixture": ("self_s",),
    "simulate.sample": ("self_s", "calls", "steps", "useful_ratio"),
    "simulate.ledger": ("self_s", "calls"),
    "simulate.exact": ("self_s", "calls"),
    "simulate.to_dt": ("self_s", "components"),
    "analysis.oracle": ("self_s", "calls", "slice_pairs"),
    "analysis.tv": ("self_s",),
    "analysis.battery": ("self_s",),
    "fixtures.build": ("self_s", "calls"),
    "cli.write_report": ("self_s",),
    "cli": ("self_s",),
}
_UNITS = {"self_s": "s", "useful_ratio": "ratio"}

# metric name -> (unit, span name, measure)
PER_LAYER = {
    f"{span}.{m}": (_UNITS.get(m, "count"), span, m)
    for span, measures in _MEASURES.items() for m in measures
}
PER_LAYER["trace.overhead_frac"] = ("ratio", None, None)


def layer_metrics(traced, untraced_walls):
    """Per-layer metrics from the traced passes.

    traced: list of (Tracer, wall seconds) per traced pass.  Self times are
    medians over passes; counts must be identical in every pass, which the
    caller checks with `counts_repeat`.  The overhead compares the fastest
    traced and untraced passes.
    """
    selfs = [t.self_times() for t, _ in traced]
    counts = traced[0][0].counts
    out = {}
    for name, (unit, span, measure) in PER_LAYER.items():
        if span is None:
            value = min(w for _, w in traced) / min(untraced_walls) - 1
        elif measure == "self_s":
            value = statistics.median(s.get(span, 0.0) for s in selfs)
        elif measure == "useful_ratio":
            calls = counts[span, "calls"]
            value = counts[span, "useful"] / calls if calls else 0.0
        else:
            value = counts[span, measure]
        out[name] = {"value": value, "unit": unit}
    return out


def counts_repeat(traced) -> bool:
    first = traced[0][0].counts
    return all(t.counts == first for t, _ in traced[1:])


def self_time_gap(tracer, wall) -> float:
    """|sum of all self times - traced wall| / traced wall.  The sum covers
    counting work too (spans.COUNT_SPAN), which is part of the traced wall."""
    total = sum(tracer.self_times().values())
    return abs(total - wall) / wall
