"""CLI contract tests: subcommands, exit codes, deterministic reports."""

import contextlib
import io
import json
import os
import pickle
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liftsim import cli
from liftsim.analysis import dt_error
from liftsim.cli import main
from liftsim.entropy import RATIONAL_BUDGET
from liftsim.errors import ResourceError
from liftsim.fixtures import (
    instance,
    one_bit_fixture,
    random_protocol,
    third_error_mixture,
    xor_decision_tree,
    xor_outer,
)
from liftsim.protocol import (
    ALICE,
    BOB,
    DecisionTree,
    DLeaf,
    DQuery,
    PLeaf,
    PNode,
    ProtocolTree,
    TableFn,
    dt_to_dict,
    protocol_to_dict,
)
from liftsim.simulate import protocol_to_dt


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_json(out):
    return json.loads(out)


def test_partition_battery_exit0(capsys):
    code, out, _ = run(capsys, "partition", "--count", "40", "--coords", "2",
                       "--m", "4", "--seed", "5")
    assert code == 0
    rep = read_json(out)
    assert rep["checked"] == 40 and rep["all_lemma_checks_passed"]


def test_partition_requires_seed(capsys):
    code, _, err = run(capsys, "partition", "--count", "5")
    assert code == 2
    assert "seed" in err


def test_refine_reports_invariant(capsys):
    code, out, _ = run(capsys, "refine", "--fixture", "builtin:one-bit", "--m", "2")
    assert code == 0
    rep = read_json(out)
    assert rep["structured_invariant"] is True
    assert rep["iteration_nodes"] == 1 and rep["leaves"] == 4


def test_simulate_ledger_and_dists(capsys):
    code, out, _ = run(capsys, "simulate", "--fixture", "builtin:one-bit",
                       "--m", "2", "--samples", "100", "--seed", "1")
    assert code == 0
    rep = read_json(out)
    assert rep["per_z"]["0"]["queries"] == [{"count": 1, "p": {"exact": "1/1",
                                                               "float": 1.0}}]


def test_verify_bundled_fixture_exact(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "builtin:one-bit",
                       "--m", "2", "--strict-zpp", "--expect-exact",
                       "--seed", "3", "--battery", "20")
    assert code == 0
    rep = read_json(out)
    for z in ("0", "1"):
        assert rep["per_z"][z]["tv"]["exact"] == "0/1"
        assert rep["per_z"][z]["support_check"] is True


def test_verify_expect_exact_fails_on_lossy_fixture(capsys):
    code, out, err = run(capsys, "verify", "--fixture", "builtin:bob-first",
                         "--m", "2", "--expect-exact", "--seed", "3",
                         "--battery", "5")
    assert code == 1
    assert "exact-simulation expectation" in err
    rep = read_json(out)
    assert rep["violation"] == "exact-simulation expectation"
    assert rep["reproduce_with_seed"] == 3


def test_verify_reports_one_sided_support(tmp_path, capsys):
    """Bob sending whether y is 11 makes the walk emit, at z = 0, a
    transcript the slice never produces: measured, not an exit 1."""
    path = _write_fixture(tmp_path, "f.json", json.dumps(
        {"format": "protocol", "n": 1, "gadget": {"kind": "index", "m": 2},
         "tree": {"owner": "bob", "fn": {"kind": "table", "bits": "0001"},
                  "0": {"leaf": 0}, "1": {"leaf": 1}}}))
    code, out, err = run(capsys, "verify", "--fixture", path, "--seed", "1",
                         "--battery", "0")
    assert code == 0 and err == ""
    per_z = read_json(out)["per_z"]
    assert [per_z[z]["support_check"] for z in ("0", "1")] == [False, True]


def test_bad_config_file_exit2(tmp_path, capsys):
    bad = tmp_path / "conf.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--config", str(bad))
    assert code == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe{",
    b'{"command": 5}',
    b'{"command": ["partition"]}',
    b'{"command": "-h"}',
    b'{"command": "refine", "fixture": "builtin:one-bit", "out": "a\\u0000b"}',
], ids=["not-utf8", "command-int", "command-list", "command-flag", "nul-in-value"])
def test_bad_config_input_exit2(tmp_path, capsys, content):
    """A config file that cannot be read as a command line is a config error,
    never a traceback or an internal error."""
    conf = tmp_path / "c.json"
    conf.write_bytes(content)
    code, out, err = run(capsys, "--config", str(conf))
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and "Traceback" not in err


def test_missing_fixture_exit2(capsys):
    code, _, err = run(capsys, "refine", "--fixture", "/nonexistent.json")
    assert code == 2


def _bob_table_record(n, m, dead=False):
    """A protocol opening with a Bob table map; with dead=True the map sits
    under an Alice branch that no input takes."""
    g = instance(n, m)
    node = PNode(BOB, TableFn({ys: ys[0] & 1 for ys in g.bob_domain()}), PLeaf(0), PLeaf(1))
    if dead:
        node = PNode(ALICE, TableFn({xs: 0 for xs in g.alice_domain()}), PLeaf(0), node)
    return json.dumps(protocol_to_dict(ProtocolTree(g, node)))


def test_budget_exit3(tmp_path, capsys):
    # a Bob table map needs the explicit Bob domain: 2^4 tuples against 8
    path = tmp_path / "bobtable.json"
    path.write_text(_bob_table_record(1, 4))
    code, _, err = run(capsys, "refine", "--fixture", str(path), "--budget", "8")
    assert code == 3
    assert "needs 16 " in err and "budget is 8;" in err


def _one_query_tree():
    return json.dumps(dt_to_dict(DecisionTree(1, DQuery(1, DLeaf(0), DLeaf(1)))))


@pytest.mark.parametrize("command, make, flags, needs, budget", [
    ("convert", lambda: _bob_table_record(2, 4), ["--budget", "16"], 2 ** 8, 16),
    ("convert", _one_query_tree, ["--m", "64"], 64 * 2 ** 64, 2 ** 24),
    ("convert", _one_query_tree, ["--m", "16", "--budget", "100"], 16 * 2 ** 16, 100),
    ("refine", lambda: _bob_table_record(1, 4, dead=True), ["--budget", "8"], 16, 8),
], ids=["protocol-to-dt", "dt-m64", "dt-m16", "table-under-dead-branch"])
def test_budget_binds_every_command_exit3(tmp_path, capsys, command, make, flags,
                                          needs, budget):
    """--budget bounds convert in both directions, and a Bob table map is
    refused up front, reached or not."""
    path = _write_fixture(tmp_path, "fixture.json", make())
    code, out, err = run(capsys, command, "--fixture", path, *flags)
    assert code == 3 and out == ""
    assert f"needs {needs} but budget is {budget};" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flags", [
    ("refine", []), ("simulate", ["--seed", "1"]), ("verify", ["--seed", "1"]),
])
def test_budget_bounds_alice_domain_exit3(tmp_path, capsys, command, flags):
    """Alice's m^n tuples are refused before they are listed: a leaf-only
    protocol at n=16, m=2 has 65536 of them."""
    path = _write_fixture(tmp_path, "leaf.json", json.dumps(
        {"format": "protocol", "n": 16, "gadget": {"kind": "index", "m": 2},
         "tree": {"leaf": 0}}))
    code, out, err = run(capsys, command, "--fixture", path, "--budget", "10", *flags)
    assert code == 3 and out == ""
    assert "Alice domain: needs 65536 but budget is 10;" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "command": "partition", "count": 10, "coords": 1, "m": 4, "seed": 9,
    }))
    code, out, _ = run(capsys, "--config", str(conf))
    assert code == 0 and read_json(out)["checked"] == 10
    code, out, _ = run(capsys, "--config", str(conf), "--count", "3")
    assert code == 0 and read_json(out)["checked"] == 3


def test_config_null_means_flag_not_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"command": "partition", "seed": 1, "count": 2,
                                "out": None}))
    code, out, _ = run(capsys, "--config", str(conf))
    assert code == 0 and read_json(out)["checked"] == 2
    assert not (tmp_path / "None").exists()


@pytest.mark.parametrize("argv", [
    ["partition", "--count", "5", "--coords", "2", "--seed", "3"],
    ["refine", "--fixture", "builtin:bob-first"],
    ["simulate", "--fixture", "builtin:bob-first", "--m", "4", "--samples", "20",
     "--seed", "5", "--strict-zpp", "--deficiency-cap", "1", "--query-cap", "1"],
    ["sweep", "--n", "2", "--m-list", "4", "8"],
    # verify and convert leave their caps out of config (cli._CONFIG_LEGACY),
    # so only their default walk flags replay
    ["verify", "--fixture", "builtin:bob-first", "--m", "4", "--seed", "1",
     "--battery", "3"],
    ["convert", "--fixture", "builtin:bob-first", "--m", "4"],
], ids=lambda argv: argv[0])
def test_report_config_replays(tmp_path, capsys, argv):
    """A report's command and config, nulls included, replayed through
    --config reproduce its report.json and CSVs byte for byte."""
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "a"))
    assert code == 0
    first = {f.name: f.read_bytes() for f in (tmp_path / "a").iterdir()}
    report = json.loads(first["report.json"])
    assert report["command"] == argv[0] and "out" not in report["config"]
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"command": report["command"], **report["config"]}))
    code, _, _ = run(capsys, "--config", str(conf), "--out", str(tmp_path / "b"))
    assert code == 0
    assert {f.name: f.read_bytes() for f in (tmp_path / "b").iterdir()} == first


def test_reports_byte_identical(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run(capsys, "simulate", "--fixture", "builtin:bob-first",
                         "--m", "2", "--samples", "50", "--seed", "4",
                         "--out", str(out_dir))
        assert code == 0
        outs.append({
            name: (out_dir / name).read_bytes()
            for name in os.listdir(out_dir)
        })
    assert outs[0] == outs[1]
    assert "report.json" in outs[0] and "samples.csv" in outs[0]


def test_sweep_csv_shape(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--n", "1", "--m-list", "4", "8",
                       "--out", str(tmp_path))
    assert code == 0
    rep = read_json(out)
    assert rep["median_non_increasing"] is True
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    # one row per (protocol, z, m)
    assert len(lines) == 1 + len(rep["family"]) * 2 * 2


def test_sweep_jobs_1_and_2_agree(tmp_path, capsys):
    """The parallel sweep writes the serial sweep's bytes; only config.jobs
    differs in report.json."""
    for n in ("1", "2"):
        reports, curves = [], []
        for jobs in ("1", "2"):
            out_dir = tmp_path / n / jobs
            code, out, _ = run(capsys, "sweep", "--n", n, "--m-list", "4", "8",
                               "--jobs", jobs, "--out", str(out_dir))
            assert code == 0
            rep = json.loads((out_dir / "report.json").read_text())
            assert rep == read_json(out) and rep["config"].pop("jobs") == int(jobs)
            reports.append(rep)
            curves.append((out_dir / "curve.csv").read_bytes())
        assert reports[0] == reports[1]
        assert curves[0] == curves[1]


def test_sweep_budget_error_same_at_any_jobs(capsys):
    """A worker's ResourceError reaches main as the serial run's: exit 3 with
    the same message, not a broken process pool."""
    errs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "sweep", "--n", "1", "--m-list", "2",
                             "--jobs", jobs, "--budget", "3")
        assert code == 3 and out == ""
        errs.append(err)
    assert errs[0] == errs[1] and errs[0].startswith("resource budget exceeded: ")


def test_resource_error_pickles():
    err = pickle.loads(pickle.dumps(ResourceError("x", 5, 3)))
    assert type(err) is ResourceError
    assert (err.what, err.required, err.budget, str(err)) == (
        "x", 5, 3, str(ResourceError("x", 5, 3)))


def test_sweep_rejects_unsorted_mlist(capsys):
    code, _, err = run(capsys, "sweep", "--n", "1", "--m-list", "8", "4")
    assert code == 2


def test_convert_roundtrip(tmp_path, capsys):
    dt_path = tmp_path / "dt.json"
    f_path = tmp_path / "f.json"
    dt_path.write_text(json.dumps(dt_to_dict(xor_decision_tree(2))))
    f_path.write_text(json.dumps(xor_outer(2).to_dict()))
    code, out, _ = run(capsys, "convert", "--fixture", str(dt_path),
                       "--outer", str(f_path), "--m", "4")
    assert code == 0
    rep = read_json(out)
    assert rep["cost"] == 6
    assert rep["output_agreement"] is True
    assert rep["round_trip_error"]["exact"] == "0/1"


def test_convert_randomized_protocol_record(tmp_path, capsys):
    """A hand-written randomized_protocol record of third_error_mixture's two
    components converts to what protocol_to_dt and dt_error give in-process."""
    PI, f = third_error_mixture(2)
    (_, good), (_, bad) = PI.components
    record = {"format": "randomized_protocol", "components": [
        {"weight": "2/3", "protocol": protocol_to_dict(good)},
        {"weight": "1/3", "protocol": protocol_to_dict(bad)},
    ]}
    path = _write_fixture(tmp_path, "mix.json", json.dumps(record))
    outer = _write_fixture(tmp_path, "f.json", json.dumps(f.to_dict()))
    code, out, _ = run(capsys, "convert", "--fixture", path, "--outer", outer)
    assert code == 0
    rep = read_json(out)
    rdt = protocol_to_dt(PI)
    error = dt_error(rdt, f)
    assert rep["direction"] == "protocol->decision_tree"
    assert rep["components"] == len(rdt.components)
    assert rep["error"]["exact"] == f"{error.numerator}/{error.denominator}"


@pytest.mark.parametrize("name", ["one-bit", "bob-first"])
def test_convert_builtin_fixture(capsys, name):
    code, out, _ = run(capsys, "convert", "--fixture", f"builtin:{name}", "--m", "4")
    assert code == 0
    assert read_json(out)["direction"] == "protocol->decision_tree"


def _write_fixture(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _no_tree():
    return json.dumps({"format": "protocol", "n": 1,
                       "gadget": {"kind": "index", "m": 2}})


def _bad_table_bits():
    g = instance(1, 2)
    fn = TableFn({ys: 0 for ys in g.bob_domain()})
    d = protocol_to_dict(ProtocolTree(g, PNode(BOB, fn, PLeaf(0), PLeaf(1))))
    d["tree"]["fn"]["bits"] = "1a01"
    return json.dumps(d)


def _short_bob_table_m64():
    # checked against 2^64 by length alone: the Bob domain is never listed
    return json.dumps({"format": "protocol", "n": 1, "gadget": {"kind": "index", "m": 64},
                       "tree": {"owner": "bob", "fn": {"kind": "table", "bits": "1"},
                                "0": {"leaf": 0}, "1": {"leaf": 1}}})


@pytest.mark.parametrize("make", [_no_tree, lambda: "[1, 2]", _bad_table_bits,
                                  _short_bob_table_m64],
                         ids=["no-tree", "json-list", "table-bits-1a", "table-bits-short-m64"])
def test_malformed_fixture_exit2(tmp_path, capsys, make):
    path = _write_fixture(tmp_path, "bad.json", make())
    code, _, err = run(capsys, "refine", "--fixture", path)
    assert code == 2
    assert "config error" in err and path in err
    assert "Traceback" not in err


def _deep_chain(kind, depth=3000):
    """A tree nested `depth` deep, written as text: json.dumps itself would
    hit the recursion limit."""
    if kind == "protocol":
        head = ('{"format": "protocol", "n": 1, "gadget": {"kind": "index", "m": 2}, '
                '"tree": ')
        node = ('{"owner": "bob", "fn": {"kind": "bit", "block": 1, "pos": 1}, '
                '"1": {"leaf": 1}, "0": ')
    else:
        head = '{"format": "decision_tree", "n": 1, "tree": '
        node = '{"query": 1, "1": {"leaf": 1}, "0": '
    return (head + node * depth + '{"leaf": 0}' + "}" * depth + "}").encode()


def _leaf_record(kind, value):
    if kind == "protocol":
        tree = {"owner": "bob", "fn": {"kind": "bit", "block": 1, "pos": 1},
                "0": {"leaf": 0}, "1": {"leaf": value}}
        record = {"format": "protocol", "n": 1, "gadget": {"kind": "index", "m": 2},
                  "tree": tree}
    else:
        record = {"format": "decision_tree", "n": 1,
                  "tree": {"query": 1, "0": {"leaf": 0}, "1": {"leaf": value}}}
    return json.dumps(record).encode()


_BAD_LEAVES = {"list": [0], "object": {"a": 1}, "2": 2, "x": "x", "1.5": 1.5,
               "null": None, "true": True}
_BAD_FIXTURES = {
    "not-utf8": lambda: b'{"format": "protocol", "n": 1\xff}',
    "deep-protocol": lambda: _deep_chain("protocol"),
    "deep-decision-tree": lambda: _deep_chain("decision_tree"),
    **{f"{kind}-leaf-{name}": (lambda kind=kind, v=v: _leaf_record(kind, v))
       for kind in ("protocol", "decision_tree") for name, v in _BAD_LEAVES.items()},
}
_FIXTURE_COMMANDS = {"refine": [], "simulate": ["--samples", "2", "--seed", "1"],
                     "verify": ["--seed", "1", "--battery", "0"], "convert": ["--m", "2"]}


@pytest.mark.parametrize("command", sorted(_FIXTURE_COMMANDS))
@pytest.mark.parametrize("name", sorted(_BAD_FIXTURES))
def test_bad_fixture_file_exit2(tmp_path, capsys, name, command):
    """Undecodable bytes, nesting past the recursion limit and a leaf that is
    not 0, 1 or "bot" are config errors naming the file."""
    path = tmp_path / "bad.json"
    path.write_bytes(_BAD_FIXTURES[name]())
    code, out, err = run(capsys, command, "--fixture", str(path), *_FIXTURE_COMMANDS[command])
    assert code == 2 and out == ""
    assert "config error" in err and str(path) in err and "Traceback" not in err


_SUBCOMMANDS = {
    "partition": ["--count", "2", "--seed", "1"],
    "refine": ["--fixture", "builtin:one-bit"],
    "simulate": ["--fixture", "builtin:one-bit"],
    "verify": ["--seed", "1", "--battery", "1"],
    "sweep": ["--n", "1", "--m-list", "4"],
    "convert": ["--fixture", None, "--m", "2"],
}


@pytest.mark.parametrize("delta", ["2", "3/2", "-1", "0", "abc"])
@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_delta_outside_unit_interval_exit2(tmp_path, capsys, command, delta):
    dt = _write_fixture(tmp_path, "dt.json", json.dumps(dt_to_dict(xor_decision_tree(2))))
    flags = [dt if f is None else f for f in _SUBCOMMANDS[command]]
    code, _, _ = run(capsys, command, *flags, "--delta", "1/2")
    assert code == 0
    code, _, err = run(capsys, command, *flags, "--delta", delta)
    assert code == 2
    assert "config error" in err and "--delta" in err


@pytest.mark.parametrize("argv", [
    ["partition", "--seed", "1", "--count", "2", "--coords", "0"],
    ["partition", "--seed", "1", "--count", "-3"],
    ["partition", "--seed", "1", "--count", "2", "--max-support", "0"],
    ["sweep", "--m-list", "4", "--jobs", "0"],
    ["refine", "--fixture", "builtin:one-bit", "--budget", "0"],
    ["simulate", "--fixture", "builtin:one-bit", "--seed", "1", "--samples", "-5"],
    ["simulate", "--fixture", "builtin:one-bit", "--deficiency-cap", "abc"],
    ["verify", "--seed", "1", "--battery", "-1"],
    ["partition", "--seed", "1", "--count", "2", "--m", "0"],
    ["partition", "--seed", "1", "--count", "2", "--m", "-3"],
    ["verify", "--seed", "1", "--battery", "0", "--z", "ab"],
    ["simulate", "--fixture", "builtin:one-bit", "--z", "2x"],
    ["partition", "--seed", "1", "--count", "2", "--delta", "1e-300"],
    ["partition", "--seed", "1", "--count", "2", "--delta", "999999999/1000000000"],
    ["sweep", "--m-list", "4", "--delta", "1/10001"],
    ["simulate", "--fixture", "builtin:one-bit", "--strict-zpp", "--deficiency-cap", "10001"],
    ["verify", "--seed", "1", "--deficiency-cap", "1/10001"],
], ids=["coords-0", "count-neg", "max-support-0", "jobs-0", "budget-0",
        "samples-neg", "deficiency-cap-abc", "battery-neg", "m-0", "m-neg",
        "z-ab", "z-2x", "delta-1e-300", "delta-long", "delta-over-budget",
        "deficiency-cap-over-budget", "deficiency-cap-denominator"])
def test_bad_numeric_flag_exit2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err and argv[-2] in err
    assert "Traceback" not in err and out == ""


def test_rational_flags_at_budget_run(capsys):
    """--delta and --deficiency-cap with terms at RATIONAL_BUDGET still run."""
    top = RATIONAL_BUDGET
    code, _, _ = run(capsys, "partition", "--seed", "1", "--count", "2",
                     "--delta", f"{top - 1}/{top}")
    assert code == 0
    code, _, _ = run(capsys, "simulate", "--fixture", "builtin:one-bit", "--strict-zpp",
                     "--deficiency-cap", f"{top}/{top - 1}")
    assert code == 0


def _mixture_record():
    PI, _ = third_error_mixture(2)
    return {"format": "randomized_protocol", "components": [
        {"weight": str(w), "protocol": protocol_to_dict(pt)} for w, pt in PI.components]}


@pytest.mark.parametrize("argv", [
    ["convert", "--fixture", "outer"],
    ["convert", "--fixture", "builtin:one-bit", "--outer", "tree"],
    ["convert", "--fixture", "tree", "--m", "4", "--outer", "builtin:one-bit"],
    ["refine", "--fixture", "mixture"],
    ["simulate", "--fixture", "tree"],
    ["verify", "--seed", "1", "--fixture", "outer"],
], ids=["convert-outer-as-fixture", "convert-tree-as-outer", "convert-builtin-as-outer",
        "refine-mixture", "simulate-tree", "verify-outer"])
def test_wrong_fixture_kind_exit2(tmp_path, capsys, argv):
    """A fixture of a kind the command does not take is a config error that
    names the file, never a traceback."""
    records = {"outer": xor_outer(2).to_dict(), "tree": dt_to_dict(xor_decision_tree(2)),
               "mixture": _mixture_record()}
    paths = {k: _write_fixture(tmp_path, f"{k}.json", json.dumps(r))
             for k, r in records.items()}
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err and "holds" in err
    assert "Traceback" not in err and out == ""


def test_convert_has_no_n_flag(tmp_path, capsys):
    dt = _write_fixture(tmp_path, "dt.json", json.dumps(dt_to_dict(xor_decision_tree(2))))
    code, out, _ = run(capsys, "convert", "--fixture", dt, "--m", "4")
    assert code == 0 and read_json(out)["config"]["n"] is None
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--fixture", dt, "--m", "4", "--n", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["refine", "--fixture", "builtin:one-bit", "--seed", "1"],
    ["sweep", "--m-list", "4", "--seed", "1"],
    ["convert", "--fixture", "builtin:one-bit", "--seed", "1"],
    ["partition", "--seed", "1", "--count", "2", "--budget", "100"],
], ids=["refine-seed", "sweep-seed", "convert-seed", "partition-budget"])
def test_unread_flag_exit2(capsys, argv):
    """A subcommand takes --seed only if it draws at random and --budget only
    if it enumerates; argparse rejects the flag anywhere else."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_convert_records_reduced_delta(capsys):
    """convert writes --delta as the reduced fraction, as refine does."""
    argv = ["--fixture", "builtin:one-bit", "--m", "2", "--delta", "18/20"]
    code, out, _ = run(capsys, "convert", *argv)
    assert code == 0 and read_json(out)["config"]["delta"] == "9/10"
    code, out, _ = run(capsys, "refine", *argv)
    assert code == 0 and read_json(out)["config"]["delta"] == "9/10"


def test_internal_error_exit4(capsys, monkeypatch):
    """An unexpected exception is exit 4 and one line, not a traceback with
    exit 1, the code of a failed invariant; argparse's exit passes through."""
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_refine", boom)
    code, out, err = run(capsys, "refine", "--fixture", "builtin:one-bit", "--m", "2")
    assert code == cli.EXIT_INTERNAL == 4
    assert err == "internal error: RuntimeError: boom\n" and out == ""
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--fixture", "builtin:one-bit", "--no-such-flag"])
    assert exc.value.code == 2


def test_unwritable_out_exit2(tmp_path, capsys):
    """--out naming a file is a config error, not a traceback."""
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run(capsys, "refine", "--fixture", "builtin:one-bit", "--m", "2",
                         "--out", str(path))
    assert code == 2 and "config error" in err and out == ""


def test_convert_budget_precedes_lift(tmp_path, capsys, monkeypatch):
    """convert refuses a decision tree whose lift is over budget before it
    lifts it: dt_to_protocol lists m^n tuples per Alice node."""
    def boom(T, G):
        raise RuntimeError("lifted before the budget check")

    monkeypatch.setattr(cli, "dt_to_protocol", boom)
    path = _write_fixture(tmp_path, "dt.json", _one_query_tree())
    code, out, err = run(capsys, "convert", "--fixture", path, "--m", "64")
    assert code == 3 and out == ""
    assert f"needs {64 * 2 ** 64} but budget is {2 ** 24};" in err


@pytest.mark.parametrize("command, flags, record", [
    ("refine", [], "protocol"),
    ("simulate", ["--samples", "2", "--seed", "1"], "protocol"),
    ("verify", ["--seed", "1", "--battery", "0"], "protocol"),
    ("convert", [], "protocol"),
    ("convert", [], "mixture"),
])
@pytest.mark.parametrize("m, code", [(2, 0), (4, 2)])
def test_m_must_match_protocol_file(tmp_path, capsys, command, flags, record, m, code):
    """--m with a protocol or randomized-protocol file must equal the file's
    own m; it used to be ignored and written into the report's config."""
    text = json.dumps(_mixture_record() if record == "mixture"
                      else protocol_to_dict(one_bit_fixture(2)))
    path = _write_fixture(tmp_path, "f.json", text)
    got, out, err = run(capsys, command, "--fixture", path, "--m", str(m), *flags)
    assert got == code
    if code == 2:
        assert "config error: --m 4" in err and out == ""


def _cli_process(args, stdout):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.Popen([sys.executable, "-m", "liftsim.cli", *args], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


def test_closed_stdout_keeps_exit_code(tmp_path, capsys):
    """A reader that closes stdout after one byte leaves exit 0 and an empty
    stderr.  The report overflows the pipe, so the close always comes first."""
    pt = random_protocol(random.Random(3), instance(2, 4), 6)
    path = _write_fixture(tmp_path, "f.json", json.dumps(protocol_to_dict(pt)))
    code, out, _ = run(capsys, "simulate", "--fixture", path)
    assert code == 0 and len(out) > 3 * 2 ** 16
    proc = _cli_process(["simulate", "--fixture", path], subprocess.PIPE)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_closed_stdout_keeps_violation_exit_code():
    """A Violation's report meeting a closed stdout still exits 1 with just
    the FAILED line on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli_process(["verify", "--fixture", "builtin:bob-first", "--m", "2",
                         "--expect-exact", "--seed", "3", "--battery", "5"], write_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.decode().startswith("FAILED exact-simulation expectation")
    assert "Traceback" not in err.decode() and err.count(b"\n") == 1


# --- fuzzing the exit-code contract: a bad input is exit 2, never 1 or 4 ---

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 1), st.floats(),
                  st.text(max_size=3), st.lists(st.integers(0, 1), max_size=2),
                  st.just({}))
_BAD_LEAF_VALUES = st.sampled_from([2, "x", 1.5, None, True, [0], {"a": 1}])
# n*m < 16 keeps every domain small; junk never raises n or m
_SIZES = [(1, 2), (1, 4), (1, 8), (2, 2), (2, 4), (3, 2), (3, 4)]


class _Record:
    """Builds one fixture record.  A clean record is well formed up to what
    the tree shape allows (a query repeated on a path, a Bob table under
    Alice); a noisy one also has missing keys, junk values, out-of-range
    maps, unknown owners, bad tables and bad leaves."""

    def __init__(self, draw, n, m, noisy):
        self.draw, self.n, self.m, self.noisy = draw, n, m, noisy

    def spoil(self, rate=20):
        return self.noisy and self.draw(st.integers(0, rate - 1)) == 0

    def fields(self, **fields):
        """The fields, each now and then dropped or replaced by junk."""
        out = {}
        for key, value in fields.items():
            if not self.spoil():
                out[key] = value
            elif self.draw(st.booleans()):
                out[key] = self.draw(_JUNK)
        return out

    def index(self, top):
        return self.draw(st.integers(0, top + 1) if self.noisy else st.integers(1, top))

    def leaf(self):
        value = self.draw(_BAD_LEAF_VALUES if self.spoil(4) else st.sampled_from([0, 1, "bot"]))
        return self.fields(leaf=value)

    def table(self, size):
        rng = random.Random(self.draw(st.integers(0, 2 ** 16)))
        bits = "".join(rng.choice("01") for _ in range(size))
        if self.spoil(4):
            bits = self.draw(st.sampled_from([bits[1:], bits + "0", "2" + bits[1:],
                                              [int(c) for c in bits]]))
        return self.fields(kind="table", bits=bits)

    def protocol_tree(self, depth):
        if depth == 0 or self.draw(st.integers(0, 2)) == 0:
            return self.leaf()
        owner = self.draw(st.sampled_from(["alice", "bob", "carol"] if self.noisy
                                          else ["alice", "bob"]))
        if owner != "alice" and self.draw(st.booleans()):
            fn = self.fields(kind="bit", block=self.index(self.n), pos=self.index(self.m))
        else:
            fn = self.table(self.m ** self.n if owner == "alice" else 2 ** (self.n * self.m))
        return self.fields(owner=owner, fn=fn, **{"0": self.protocol_tree(depth - 1),
                                                  "1": self.protocol_tree(depth - 1)})

    def protocol(self):
        return self.fields(format="protocol", n=self.n,
                           gadget=self.fields(kind="index", m=self.m),
                           tree=self.protocol_tree(self.draw(st.integers(0, 3))))

    def dt_tree(self, depth):
        if depth == 0 or self.draw(st.integers(0, 2)) == 0:
            return self.leaf()
        return self.fields(query=self.index(self.n), **{"0": self.dt_tree(depth - 1),
                                                        "1": self.dt_tree(depth - 1)})


@st.composite
def _fixture_bytes(draw):
    """(n, m, the bytes of a fixture file): any format, clean or noisy, nested
    past the depth cap, or with an undecodable byte."""
    n, m = draw(st.sampled_from(_SIZES))
    noisy = draw(st.booleans())
    r = _Record(draw, n, m, noisy)
    kind = draw(st.sampled_from(["protocol", "protocol", "randomized_protocol",
                                 "decision_tree", "outer_function", "deep", "other"]))
    if kind == "deep":
        return n, m, _deep_chain(draw(st.sampled_from(["protocol", "decision_tree"])),
                                 draw(st.sampled_from([33, 3000])))
    if kind == "protocol":
        record = r.protocol()
    elif kind == "randomized_protocol":
        weights = ["1/2", "1/2"] if not noisy else draw(st.lists(st.sampled_from(
            ["1", "1/2", "2/3", "1/3", 0, -1, "1/0", "x", 1e309]), min_size=1, max_size=2))
        record = r.fields(format=kind, components=[
            r.fields(weight=w, protocol=r.protocol()) for w in weights])
    elif kind == "decision_tree":
        record = r.fields(format=kind, n=n, tree=r.dt_tree(draw(st.integers(0, 3))))
    elif kind == "outer_function":
        zs = st.lists(st.sampled_from("01"), min_size=n, max_size=n).map("".join)
        record = r.fields(format=kind, n=n, values={
            z: r.leaf().get("leaf") for z in draw(st.lists(zs, max_size=3))})
    else:
        record = draw(st.one_of(_JUNK, st.just({"format": "protocol"})))
    raw = json.dumps(record).encode()
    if r.spoil(5):
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return n, m, raw


def _assert_exit_contract(argv, what):
    """main exits 0, 2 or 3, with its output swallowed; argparse's exit is 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2, argv
            return
    assert code not in (1, 4), (what, err.getvalue())


@settings(max_examples=150, deadline=None, database=None)
@given(fixture=_fixture_bytes())
def test_fuzz_fixture_exit_codes(fixture):
    """No fixture file makes refine, simulate, verify or convert exit 1 (a
    failed invariant) or 4 (an internal error), or raise."""
    n, m, raw = fixture
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        for command, flags in _FIXTURE_COMMANDS.items():
            flags = ["--m", str(m)] if command == "convert" else flags
            _assert_exit_contract([command, "--fixture", path, *flags], (command, raw))


# Each subcommand's own flags but --out, which the fuzz sets on the command
# line.  Left out: --jobs, whose worker processes a fuzz run should not
# start, and --expect-exact, which asks for exit 1 when the simulation is
# not exact.
_FLAGS = {
    "partition": ["seed", "delta", "count", "coords", "m", "max_support"],
    "refine": ["budget", "delta", "fixture", "m"],
    "simulate": ["seed", "budget", "delta", "fixture", "m", "z", "samples", "strict_zpp",
                 "deficiency_cap", "query_cap"],
    "verify": ["seed", "budget", "delta", "fixture", "m", "z", "battery", "strict_zpp",
               "deficiency_cap", "query_cap"],
    "sweep": ["budget", "delta", "n", "m_list"],
    "convert": ["budget", "delta", "fixture", "outer", "m", "strict_zpp", "deficiency_cap",
                "query_cap"],
}
_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(),
    st.fractions().map(str), st.fractions(0, 1).map(str),
    st.sampled_from(["1/2", "9/10", "2", "0", "abc", "all", "01", "1", "-1", "nan", "",
                     "builtin:one-bit", "builtin:bob-first", "builtin:x", "x\u0000"]),
    st.lists(st.sampled_from([-1, 2, 4, 8, "x"]), max_size=3), st.just({"a": 1}))


# a value each flag accepts, so that some objects run to the end
_GOOD_VALUES = {"seed": [1, 7], "delta": ["1/2", "9/10"], "count": [2], "coords": [1, 3],
                "m": [2, 4, 8], "max_support": [4, 16], "budget": [100, 2 ** 24],
                "fixture": ["builtin:one-bit", "builtin:bob-first"], "z": ["all"],
                "samples": [0, 3], "strict_zpp": [True, False], "deficiency_cap": ["4"],
                "query_cap": [1, 2], "battery": [1, 2], "n": [1, 2], "m_list": [[4], [2, 4]],
                "outer": [None]}


@st.composite
def _config_object(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)) if draw(st.integers(0, 4))
                   else st.one_of(_JUNK, st.sampled_from(["-h", "--help", "nope"])))
    own = _FLAGS.get(command, []) if isinstance(command, str) else []
    # a runnable base with small sizes, which the drawn keys then override
    base = {"count": 2, "battery": 1, "m_list": [4], "fixture": "builtin:one-bit", "seed": 1}
    conf = {k: v for k, v in base.items() if k in own}
    keys = draw(st.lists(st.sampled_from(own * 4 + ["out", "config", "no_such_flag", "count"]),
                         max_size=5, unique=True))
    for key in keys:
        good = st.sampled_from(_GOOD_VALUES.get(key, [None]))
        conf[key] = draw(st.one_of(good, good, _CONFIG_VALUES))
    return {**conf, "command": command}


@settings(max_examples=150, deadline=None, database=None)
@given(conf=_config_object())
def test_fuzz_config_exit_codes(conf):
    """No --config object makes main exit 1 or 4, or raise; --out on the command line keeps reports inside a scratch
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(conf, fh)
        _assert_exit_contract(["--config", path, "--out", os.path.join(tmp, "out")], conf)


_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_runs(demo):
    """Each demo script runs to completion against the source tree."""
    root = demo.parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
