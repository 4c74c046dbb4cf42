"""CLI contract tests: subcommands, exit codes, deterministic reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liftsim import cli
from liftsim.analysis import dt_error
from liftsim.cli import main
from liftsim.fixtures import instance, third_error_mixture, xor_decision_tree, xor_outer
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


def test_bad_config_file_exit2(tmp_path, capsys):
    bad = tmp_path / "conf.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--config", str(bad))
    assert code == 2


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


def test_simulate_report_config_replays(tmp_path, capsys):
    """A simulate report's config, nulls included, replayed through --config
    reproduces the report."""
    code, _, _ = run(capsys, "simulate", "--fixture", "builtin:bob-first", "--m", "4",
                     "--samples", "20", "--seed", "5", "--out", str(tmp_path / "a"))
    assert code == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    config = json.loads(first)["config"]
    assert config["query_cap"] is None and config["deficiency_cap"] is None
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"command": "simulate", **config}))
    code, _, _ = run(capsys, "--config", str(conf), "--out", str(tmp_path / "b"))
    assert code == 0
    assert (tmp_path / "b" / "report.json").read_bytes() == first
    assert ((tmp_path / "b" / "samples.csv").read_bytes()
            == (tmp_path / "a" / "samples.csv").read_bytes())


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
], ids=["coords-0", "count-neg", "max-support-0", "jobs-0", "budget-0",
        "samples-neg", "deficiency-cap-abc", "battery-neg", "m-0", "m-neg",
        "z-ab", "z-2x"])
def test_bad_numeric_flag_exit2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err and argv[-2] in err
    assert "Traceback" not in err and out == ""


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


_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_runs(demo):
    """Each demo script runs to completion against the source tree."""
    root = demo.parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
