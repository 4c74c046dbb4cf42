"""CLI contract tests: subcommands, exit codes, deterministic reports."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pickle
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liftsim import analysis, cli, simulate
from liftsim.analysis import dt_error, marginals_report
from liftsim.cli import main
from liftsim.entropy import RATIONAL_BUDGET
from liftsim.errors import ResourceError, power_of_two
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


def _fraction_fourier_noise(rng, j, n):
    """cli._fourier_noise as it was written, one Fraction per term: the
    reference for its sums over one denominator."""
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
    return probs


def test_fourier_noise_matches_the_fraction_sums():
    """Same probabilities in the same order, from the same draws: both leave
    the Random in the same state."""
    for seed in range(50):
        n = (2, 4)[seed % 2]
        j = 1 + seed // 2 % n
        ours, ref = random.Random(seed), random.Random(seed)
        got, want = cli._fourier_noise(ours, j, n), _fraction_fourier_noise(ref, j, n)
        assert got.items() == list(want.items())
        assert ours.getstate() == ref.getstate()


def _fraction_fourier_check(D, n):
    """analysis.fourier_pointwise_check as it was written, on the Fractions
    that D.items and D.prob give: the reference for its integer comparisons.
    Also returns each parity's Fourier coefficient."""
    (j,) = {len(z) for z in D.support}
    coefficients = {
        I: sum((-p if sum(z[i - 1] for i in I) % 2 else p for z, p in D.items()), Fraction(0))
        for r in range(1, j + 1) for I in itertools.combinations(range(1, j + 1), r)}
    hypothesis = all(abs(c) <= Fraction(1, n ** (5 * len(I))) for I, c in coefficients.items())
    uniform = Fraction(1, 2 ** j)
    slack = Fraction(1, n ** 3) * uniform
    conclusion = all(abs(D.prob(z) - uniform) <= slack
                     for z in itertools.product((0, 1), repeat=j))
    return (hypothesis, conclusion), coefficients


def test_fourier_check_matches_the_fraction_formulas():
    """On the verify battery's draws (weights and parity noise), the Fourier
    coefficients and both halves of the check are the Fraction formulas'; the
    draws reach every verdict pair but a hypothesis without its conclusion."""
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.choice([2, 4])
        j = rng.randint(1, n)
        d = cli._random_dist(rng, j, n)
        verdicts, coefficients = _fraction_fourier_check(d, n)
        assert analysis.fourier_pointwise_check(d, n) == verdicts
        for I, c in coefficients.items():
            assert analysis.fourier_coefficient(d, I) == c
        seen.add(verdicts)
    assert seen == {(True, True), (False, True), (False, False)}


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


# sha256 of refine's nodes.csv and report.json: nodes.csv lists every refined
# node in iter_nodes order with its rho, |X|, |Y|, def_y and potential bits
_REFINE_OUTPUTS = {
    ("builtin:bob-first", "8"): (
        "9c77167a2793ffe821987d6aa31d3ed476464e3afddd630027154911d2f9923a",
        "365451766b30dad82731608e5ba0101ed7265a0c22fe8fbf2f1cace1cc5238d0"),
    ("builtin:one-bit", "16"): (
        "b72e4d6a59a24cdb56ed9d57d5a78363aa9735d6ef9897f77194d4563e7a1595",
        "ae42fb13f96a7c426082b7eb848ba02eece0a80e0a6c9a12ade0eda992282287"),
}


@pytest.mark.parametrize("fixture, m", sorted(_REFINE_OUTPUTS))
def test_refine_outputs_are_pinned(capsys, tmp_path, fixture, m):
    code, _, _ = run(capsys, "refine", "--fixture", fixture, "--m", m, "--out", str(tmp_path))
    assert code == 0
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("nodes.csv", "report.json")) == _REFINE_OUTPUTS[fixture, m]


def test_simulate_ledger_and_dists(capsys):
    code, out, _ = run(capsys, "simulate", "--fixture", "builtin:one-bit",
                       "--m", "2", "--samples", "100", "--seed", "1")
    assert code == 0
    rep = read_json(out)
    assert rep["per_z"]["0"]["queries"] == [{"count": 1, "p": {"exact": "1/1",
                                                               "float": 1.0}}]


def test_simulate_checks_path_ledgers_without_samples(capsys, monkeypatch):
    """Every path ledger is checked before any run is sampled, so a failing
    one is exit 1 at --samples 0, with no seed to reproduce."""
    monkeypatch.setattr(simulate, "ledger_check", lambda ledger, m, delta: False)
    code, out, err = run(capsys, "simulate", "--fixture", "builtin:bob-first",
                         "--m", "8", "--samples", "0")
    assert code == 1
    assert err.startswith("FAILED per-path potential ledger: 2 of 2 path ledgers")
    rep = read_json(out)
    assert rep["violation"] == "per-path potential ledger"
    assert rep["reproduce_with_seed"] is None


def _forge_samples(monkeypatch, forge, pairs):
    """Patch simulate_samples so that the event it yields for each (seed, z)
    in pairs is forge(event); every other event is the sampler's own."""
    samples = simulate.simulate_samples

    def forged(law, zs, seeds):
        for seed, outs in zip(seeds, samples(law, zs, seeds)):
            yield tuple(forge(out) if (seed, tuple(z)) in pairs else out
                        for z, out in zip(zs, outs))

    monkeypatch.setattr(simulate, "simulate_samples", forged)


def _off_path(out):
    """out with one more query on its last ledger row: a ledger no path carries."""
    last = out.ledger[-1]
    return out._replace(ledger=out.ledger[:-1] + (last._replace(queries=last.queries + 1),))


def test_simulate_refuses_sample_off_every_path(capsys, monkeypatch):
    """A sampled ledger that no path of the refined tree carries is exit 1,
    naming the sample and its seed."""
    _forge_samples(monkeypatch, _off_path, {(6, (0,))})
    code, out, err = run(capsys, "simulate", "--fixture", "builtin:bob-first",
                         "--m", "8", "--z", "0", "--samples", "2", "--seed", "5")
    assert code == 1
    assert err == "FAILED per-run potential ledger: z=0 sample 1 (seed 6)\n"
    rep = read_json(out)
    assert rep["violation"] == "per-run potential ledger"
    assert rep["reproduce_with_seed"] == 6


def test_simulate_refuses_first_off_path_sample_in_sample_major_order(capsys, monkeypatch):
    """With --z all the samples are the outer loop: the first bad run named
    is z=1 at sample 0, not z=0 at sample 1."""
    _forge_samples(monkeypatch, _off_path, {(5, (1,)), (6, (0,))})
    code, out, err = run(capsys, "simulate", "--fixture", "builtin:bob-first",
                         "--m", "8", "--z", "all", "--samples", "2", "--seed", "5")
    assert code == 1
    assert err == "FAILED per-run potential ledger: z=1 sample 0 (seed 5)\n"
    assert read_json(out)["reproduce_with_seed"] == 5


def test_simulate_refuses_sample_ledger_not_the_laws_own(capsys, monkeypatch):
    """A sample's ledger must be its event's own tuple: an equal copy is
    refused like a forged one, so the lookup never compares rows."""
    _forge_samples(monkeypatch, lambda out: out._replace(ledger=tuple(list(out.ledger))),
                   {(5, (0,))})
    code, _, err = run(capsys, "simulate", "--fixture", "builtin:bob-first",
                       "--m", "8", "--z", "0", "--samples", "1", "--seed", "5")
    assert code == 1
    assert err == "FAILED per-run potential ledger: z=0 sample 0 (seed 5)\n"


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


@pytest.mark.parametrize("command, flags", [
    ("simulate", ("--samples", "20", "--seed", "1", "--strict-zpp",
                  "--deficiency-cap", "3")),
    ("verify", ("--seed", "1", "--battery", "0")),
], ids=["simulate", "verify"])
def test_single_z_restricts_all_z(tmp_path, capsys, command, flags):
    """A --z run reports exactly the --z all run's entry for that z."""
    pt = random_protocol(random.Random(8), instance(2, 4), 3)
    path = _write_fixture(tmp_path, "n2.json", json.dumps(protocol_to_dict(pt)))
    code, out, _ = run(capsys, command, "--fixture", path, *flags)
    assert code == 0
    every = read_json(out)["per_z"]
    assert sorted(every) == ["00", "01", "10", "11"]
    for zs, entry in every.items():
        code, out, _ = run(capsys, command, "--fixture", path, "--z", zs, *flags)
        assert code == 0
        assert read_json(out)["per_z"] == {zs: entry}


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


def test_verify_marginals_battery_runs_at_delta(tmp_path, capsys, monkeypatch):
    """The battery's structured column is marginals_report's at --delta,
    recounted here on the same rectangles."""
    rects = []

    def spy(rect, rho, z, g, *args, **kwargs):
        rects.append((rect, rho, z, g))
        return marginals_report(rect, rho, z, g, *args, **kwargs)

    monkeypatch.setattr(cli.analysis, "marginals_report", spy)
    code, _, _ = run(capsys, "verify", "--seed", "1", "--battery", "30",
                     "--delta", "1/2", "--out", str(tmp_path))
    assert code == 0 and len(rects) == 30
    rows = (tmp_path / "marginals.csv").read_text().splitlines()[1:]
    structured = sum(row.split(",")[6] == "1" for row in rows)
    assert structured == sum(marginals_report(*r, Fraction(1, 2)).structured
                             for r in rects)


def test_verify_batteries_honour_budget(capsys):
    code, _, err = run(capsys, "verify", "--seed", "1", "--battery", "20",
                       "--budget", "100")
    assert code == 3
    assert "parity bias enumeration: needs 192" in err


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
    last_bit = "".join(str(ys[0] & 1) for ys in g.bob_domain())
    node = PNode(BOB, TableFn(g, BOB, last_bit), PLeaf(0), PLeaf(1))
    if dead:
        node = PNode(ALICE, TableFn(g, ALICE, "0" * g.alice_size), PLeaf(0), node)
    return json.dumps(protocol_to_dict(ProtocolTree(g, node)))


def test_budget_exit3(tmp_path, capsys):
    # a Bob table map needs the explicit Bob domain: 2^4 tuples against 8
    path = tmp_path / "bobtable.json"
    path.write_text(_bob_table_record(1, 4))
    code, _, err = run(capsys, "refine", "--fixture", str(path), "--budget", "8")
    assert code == 3
    assert "needs 16 " in err and "budget is 8\n" in err


def test_partition_subset_budget_exit3(capsys):
    """A 21-block set of at most 4 points counts no marginal, yet its 2^21
    subsets are refused against SUBSET_BUDGET."""
    code, out, err = run(capsys, "partition", "--count", "1", "--coords", "21", "--m", "8",
                         "--seed", "1", "--max-support", "4")
    assert code == 3 and out == ""
    assert "subset enumeration: needs 2097152 but budget is 1048576\n" in err


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
    assert f"needs {needs} but budget is {budget}\n" in err
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
    assert "Alice domain: needs 65536 but budget is 10\n" in err


def _run_cli_limited(argv, timeout=5, address_space=2 * 2 ** 30):
    """(exit code, stdout, stderr) of the CLI run in a child process whose
    address space is capped by RLIMIT_AS, set in the child only, and which is
    killed after timeout seconds: an input that runs away fails the test in
    seconds, and cannot exhaust the memory of the machine running it."""
    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = address_space if hard == resource.RLIM_INFINITY else min(address_space, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "liftsim.cli", *argv], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_power_of_two_prints_every_count_int_to_str_prints():
    """A count of at most 4300 digits, the most int-to-str prints, stays the
    int, so its message is unchanged; past it, the count is the text 2^k."""
    assert len(str(ResourceError("x", power_of_two(14_284), 1)).split()[2]) == 4300
    assert power_of_two(14_285) == "2^14285"


def _leaf_protocol(n):
    return {"format": "protocol", "n": n, "gadget": {"kind": "index", "m": 2},
            "tree": {"leaf": 0}}


_OVERSIZED = [
    *[pytest.param(command, _leaf_protocol(n), flags, 3, f"Alice domain: needs 2^{n} ",
                   id=f"{command}-n{n}")
      for n in (20000, 2 ** 40)
      for command, flags in [("refine", []), ("simulate", ["--seed", "1"]),
                             ("verify", ["--seed", "1", "--battery", "0"]),
                             ("convert", [])]],
    *[pytest.param("convert", {"format": "decision_tree", "n": n, "tree": {"leaf": 0}},
                   ["--m", "2"], 3, f"conversion output agreement: needs 2^{3 * n} ",
                   id=f"convert-dt-n{n}")
      for n in (10 ** 6, 2 ** 40)],
    *[pytest.param("partition", None, ["--count", "1", "--seed", "1", "--coords", str(j)], 3,
                   f"subset enumeration: needs 2^{j} ", id=f"partition-coords{j}")
      for j in (20000, 10 ** 9)],
    pytest.param("sweep", None, ["--n", "2", "--m-list", "8192"], 3,
                 "Alice domain: needs 67108864 but budget is 16777216\n", id="sweep-m8192"),
    # a table of the wrong length is a bad fixture, whatever the size it needs
    pytest.param("refine", {**_leaf_protocol(2 ** 40), "tree": {
        "owner": "alice", "fn": {"kind": "table", "bits": "01"}, "0": {"leaf": 0},
        "1": {"leaf": 1}}}, [], 2, "alice table needs 2^1099511627776 '0'/'1' bits",
                 id="alice-table-n1099511627776"),
]


@pytest.mark.parametrize("command, fixture, flags, code, message", _OVERSIZED)
def test_oversized_inputs_refused_promptly(tmp_path, command, fixture, flags, code, message):
    """An n, m or --coords whose domain, subsets or output pairs are far past
    the budget is refused by its exponent, before any power is built or any
    point drawn, with exit 3, or exit 2 for a table of the wrong length; a
    count too long to print is named as 2^k."""
    if fixture is not None:
        flags = ["--fixture", _write_fixture(tmp_path, "f.json", json.dumps(fixture)), *flags]
    got, out, err = _run_cli_limited([command, *flags])
    assert (got, out) == (code, "")
    assert err.startswith({2: "config error: ", 3: "resource budget exceeded: "}[code])
    assert message in err


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "command": "partition", "count": 10, "coords": 1, "m": 4, "seed": 9,
    }))
    code, out, _ = run(capsys, "--config", str(conf))
    assert code == 0 and read_json(out)["checked"] == 10
    code, out, _ = run(capsys, "--config", str(conf), "--count", "3")
    assert code == 0 and read_json(out)["checked"] == 3


def test_config_repeated_key_exit2(tmp_path, capsys):
    """A config file that repeats a key is refused, not read with the last
    value winning."""
    conf = tmp_path / "conf.json"
    conf.write_text('{"command": "partition", "seed": 1, "count": 3, "count": 5}')
    code, out, err = run(capsys, "--config", str(conf))
    assert code == 2 and out == ""
    assert err == "config error: repeated key 'count'\n"


def test_config_equals_form_applies_file(tmp_path, capsys):
    """--config=PATH reads the file exactly as --config PATH does."""
    conf = tmp_path / "n.json"
    conf.write_text(json.dumps({"count": 3}))
    for argv in (["--config=" + str(conf)], ["--config", str(conf)]):
        code, out, _ = run(capsys, *argv, "partition", "--seed", "1")
        assert code == 0 and read_json(out)["checked"] == 3


@pytest.mark.parametrize("flag", ["--conf", "--confi"])
def test_config_abbreviation_exit2(tmp_path, capsys, flag):
    """--config is spelled out in full; an abbreviation is refused, never
    parsed and then ignored."""
    conf = tmp_path / "n.json"
    conf.write_text(json.dumps({"count": 3}))
    with pytest.raises(SystemExit) as exc:
        main([flag, str(conf), "partition", "--seed", "1"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_successive_config_files_leak_nothing(tmp_path, capsys):
    """The parser is built once per process, and a run's flags or config
    file leave nothing behind for the next run."""
    assert cli.build_parser() is cli.build_parser()
    tuned = tmp_path / "tuned.json"
    tuned.write_text(json.dumps({"command": "partition", "seed": 1, "count": 2,
                                 "coords": 3, "m": 8, "delta": "1/2", "max_support": 4}))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"command": "partition", "seed": 1, "count": 2}))
    configs = []
    for argv in (["--config", str(tuned)], ["--config", str(plain)],
                 ["partition", "--seed", "1", "--count", "2"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        configs.append(read_json(out)["config"])
    assert configs[0] != configs[1] == configs[2]
    assert configs[2] == {"seed": 1, "count": 2, "coords": 2, "m": 4, "delta": "9/10",
                          "max_support": 64}
    code, _, _ = run(capsys, "sweep", "--m-list", "4", "--n", "1")
    assert code == 0
    assert cli.build_parser().parse_args(["sweep"]).m_list == [4, 8, 16, 32]


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


def test_sweep_jobs_capped_at_task_count(capsys, monkeypatch):
    """--jobs 64 on 4 tasks asks the pool for 4 workers, and the report still
    records the flag; the stand-in pool maps serially, so no process starts."""
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out, _ = run(capsys, "sweep", "--n", "1", "--m-list", "4", "--jobs", "64")
    assert code == 0 and asked == [4]
    assert read_json(out)["config"]["jobs"] == 64


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


@pytest.mark.parametrize("n, values, complaint", [
    ("2", '{"01": 0, "\u0661\u0660": 1, "10": 0}', "is not 2 characters of 0/1"),
    ("2", '{"01": 0, "01": 1, "10": 0}', "repeated key '01'"),
    ("true", '{"1": 0}', "needs an integer n >= 1, got True"),
    ("2.0", '{"01": 0}', "needs an integer n >= 1, got 2.0"),
    ("0", '{"": 1}', "needs an integer n >= 1, got 0"),
    ("2", '{"01": 0, "10": true}', "bad outer-function entry (1, 0)->True"),
], ids=["arabic-indic-digits", "repeated-key", "n-true", "n-float", "n-zero", "value-true"])
def test_convert_bad_outer_exit2(tmp_path, capsys, n, values, complaint):
    """An outer function whose values name some z twice, through digits
    int() reads or through a repeated JSON key, whose n is not an int >= 1,
    or with a value other than the int 0 or 1, is a config error naming the
    file."""
    tree = _write_fixture(tmp_path, "dt.json", json.dumps(dt_to_dict(xor_decision_tree(2))))
    outer = _write_fixture(tmp_path, "f.json",
                           '{"format": "outer_function", "n": %s, "values": %s}' % (n, values))
    code, out, err = run(capsys, "convert", "--fixture", tree, "--outer", outer, "--m", "4")
    assert code == 2 and out == ""
    assert f"config error: bad fixture {outer}: DomainError: " in err and complaint in err


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
    fn = TableFn(g, BOB, "0000")
    d = protocol_to_dict(ProtocolTree(g, PNode(BOB, fn, PLeaf(0), PLeaf(1))))
    d["tree"]["fn"]["bits"] = "1a01"
    return json.dumps(d)


def _unknown_map_kind():
    return json.dumps({"format": "protocol", "n": 1, "gadget": {"kind": "index", "m": 2},
                       "tree": {"owner": "alice", "fn": {"kind": "no-such-kind", "bits": "10"},
                                "0": {"leaf": 0}, "1": {"leaf": 1}}})


def _huge_exponent_weight():
    # refused before Fraction computes 10**10000000
    d = _mixture_record()
    d["components"][0]["weight"] = "1e10000000"
    return json.dumps(d)


def _short_bob_table_m64():
    # checked against 2^64 by length alone: the Bob domain is never listed
    return json.dumps({"format": "protocol", "n": 1, "gadget": {"kind": "index", "m": 64},
                       "tree": {"owner": "bob", "fn": {"kind": "table", "bits": "1"},
                                "0": {"leaf": 0}, "1": {"leaf": 1}}})


@pytest.mark.parametrize("make", [_no_tree, lambda: "[1, 2]", _bad_table_bits,
                                  _short_bob_table_m64, _unknown_map_kind,
                                  _huge_exponent_weight],
                         ids=["no-tree", "json-list", "table-bits-1a", "table-bits-short-m64",
                              "unknown-map-kind", "weight-huge-exponent"])
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
    ["simulate", "--fixture", "builtin:one-bit", "--samples", "3", "--seed", "-1"],
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
    ["partition", "--seed", "1", "--count", "1", "--delta", "1e10000000"],
], ids=["coords-0", "count-neg", "max-support-0", "jobs-0", "budget-0",
        "samples-neg", "seed-neg", "deficiency-cap-abc", "battery-neg", "m-0", "m-neg",
        "z-ab", "z-2x", "delta-1e-300", "delta-long", "delta-over-budget",
        "deficiency-cap-over-budget", "deficiency-cap-denominator", "delta-huge-exponent"])
def test_bad_numeric_flag_exit2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err and argv[-2] in err
    assert "Traceback" not in err and out == ""


def test_huge_decimal_exponent_refused_quickly(tmp_path, capsys):
    """An 8-digit decimal exponent, in --delta or in a mixture weight, is
    exit 2 before Fraction computes 10**exponent, which takes about 10 s."""
    path = _write_fixture(tmp_path, "bad.json", _huge_exponent_weight())
    start = time.perf_counter()
    codes = [run(capsys, "partition", "--seed", "1", "--count", "1", "--delta", "1e10000000")[0],
             run(capsys, "refine", "--fixture", path)[0]]
    assert codes == [2, 2]
    assert time.perf_counter() - start < 2


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
    assert f"needs {64 * 2 ** 64} but budget is {2 ** 24}\n" in err


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

# sha256 of each demo's stdout; the same under CPython 3.10, 3.11 and 3.13
# and under any PYTHONHASHSEED
_DEMO_STDOUT = {
    "01": "61c5b9659ca8b579d382ca42508e4628037bd7777255e0885b40d20113b7adfa",
    "02": "241c11792770f5220a25435e42761191f1431903dbd6f7cf27e798a2046f503f",
    "03": "b0c51f3200c3e491b110082a78096943cc52def3881ba4a391cef3183d60b5f3",
    "04": "7ee9cb6b23355127d12a65c748be67da0df15a785e2332b51f2409fd24521081",
    "05": "c8bd7fcf4bcdcfb89971ef6dc67c70c226fa7a58e6f3c89e19ae653dec6cbe3a",
}


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_runs(demo):
    """Each demo script runs to completion against the source tree and prints
    its pinned output."""
    root = demo.parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=root,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == _DEMO_STDOUT[demo.stem[:2]]
