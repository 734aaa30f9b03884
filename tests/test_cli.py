import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import kikuchi.cli as cli
import kikuchi.instances as instances
from kikuchi.cli import build_parser, main
from kikuchi.instances import EXHAUSTIVE_LIMIT


def run_cli(*args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def without_meta(d):
    d = dict(d)
    d.pop("meta", None)
    return json.dumps(d, sort_keys=True)


def test_gen_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    rc = run_cli("gen", "--n", "12", "--q", "3", "--k", "4", "--delta", "0.25",
                 "--seed", "1", "--out", str(out))
    assert rc == 0
    d = read_json(out)
    assert d["n"] == 12 and d["k"] == 4
    assert len(d["hypergraphs"]) == 4
    assert all(len(h) == 3 for h in d["hypergraphs"])
    assert d["master_seed"] == 1


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli("gen", "--n", "10", "--q", "3", "--k", "3", "--delta", "0.2",
                "--seed", "5", "--out", str(out))
    assert without_meta(read_json(a)) == without_meta(read_json(b))


def test_gen_planted_sidecar(tmp_path):
    out = tmp_path / "planted.json"
    rc = run_cli("gen", "--n", "12", "--q", "3", "--k", "4", "--delta", "0.16",
                 "--planted", "--seed", "2", "--out", str(out))
    assert rc == 0
    side = tmp_path / "planted.generator.json"
    assert side.exists()
    assert read_json(side)["k"] == 4


def test_gen_invalid_config(tmp_path):
    rc = run_cli("gen", "--n", "6", "--q", "3", "--k", "2", "--delta", "1.0",
                 "--out", str(tmp_path / "x.json"))
    assert rc == 2


def test_decompose_roundtrip(tmp_path):
    inst = tmp_path / "inst.json"
    dec = tmp_path / "dec.json"
    run_cli("gen", "--n", "12", "--q", "3", "--k", "5", "--delta", "0.25",
            "--seed", "3", "--out", str(inst))
    rc = run_cli("decompose", "--in", str(inst), "--out", str(dec), "--ell", "1")
    assert rc == 0
    d = read_json(dec)
    assert "leftover" in d and "registries" in d and "provenance" in d


def test_decompose_edgeless_instance_matches_refute_thresholds(tmp_path):
    """An instance with no edge has measured delta 0; decompose, like
    refute, then takes delta = 1/n and writes the certificate's thresholds."""
    inst = tmp_path / "inst.json"
    dec = tmp_path / "dec.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "12", "--q", "3", "--k", "2", "--delta", "0.01",
            "--out", str(inst))
    assert read_json(inst)["hypergraphs"] == [[], []]
    assert run_cli("decompose", "--in", str(inst), "--out", str(dec)) == 0
    assert run_cli("refute", "--in", str(inst), "--out", str(cert)) == 0
    assert read_json(dec)["thresholds"] == read_json(cert)["thresholds"]


def test_refute_and_verify(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    rc = run_cli("refute", "--in", str(inst), "--out", str(cert),
                 "--epsilon", "0.1", "--ell", "1", "--partitions", "2",
                 "--seed", "7", "--soundness")
    assert rc == 0
    c = read_json(cert)
    assert c["schema_version"] == 1
    assert all(e["ok"] for e in c["soundness_log"])
    rc = run_cli("verify", "--in", str(inst), "--cert", str(cert),
                 "--exhaustive-b")
    assert rc == 0


def test_refute_negative_partitions_is_config_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    capsys.readouterr()
    rc = run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell", "1",
                 "--partitions", "-1")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--partitions" in err
    assert not cert.exists()


@pytest.mark.parametrize("command, prefix, value", [
    ("sweep", "--seed", "3"),  # a prefix of --seeds
    ("refute", "--part", "4"),  # a prefix of --partitions
])
def test_option_prefix_is_config_error(tmp_path, capsys, command, prefix, value):
    # a prefix is no option: ``sweep --seeds 1 --seed 3`` once ran 3 seeds
    inst = tmp_path / "inst.json"
    out = tmp_path / "out"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    capsys.readouterr()
    argv = {
        "sweep": ["sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                  "--k-list", "3", "--seeds", "1", "--ell", "1"],
        "refute": ["refute", "--in", str(inst), "--ell", "1"],
    }[command]
    assert run_cli(*argv, prefix, value, "--out", str(out)) == 2
    assert f"unrecognized arguments: {prefix} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("gen", "--seed", "-1"),
    ("refute", "--seed", "-3"),
    ("oracle", "--seed", "-1"),  # its expectation is exhaustive at k = 4
    ("sweep", "--k-list", "2,,4"),
    ("oracle", "--signs", "1,a,1,1"),
])
def test_bad_seed_or_list_is_config_error_naming_it(tmp_path, capsys, command,
                                                    option, value):
    inst = tmp_path / "inst.json"
    out = tmp_path / "out"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    capsys.readouterr()
    argv = {
        "gen": ["gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2"],
        "refute": ["refute", "--in", str(inst), "--ell", "1"],
        "oracle": ["oracle", "--in", str(inst)],
        "sweep": ["sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                  "--ell", "1"],
    }[command]
    assert run_cli(*argv, option, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and option in err
    if "," in value:
        assert repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["refute", "sweep", "verify"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_config_error(tmp_path, capsys, monkeypatch,
                                           command, threads):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    if command == "verify":
        assert run_cli("refute", "--in", str(inst), "--out", str(cert),
                       "--ell", "1", "--trials", "10") == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "refute": ["refute", "--in", str(inst), "--out", str(out), "--ell", "1"],
        "sweep": ["sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                  "--k-list", "3", "--out", str(out)],
        "verify": ["verify", "--in", str(inst), "--cert", str(cert)],
    }[command]
    rc = run_cli(*argv, "--threads", threads)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--threads" in err
    assert not out.exists()
    monkeypatch.setenv("KIKUCHI_THREADS", threads)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "KIKUCHI_THREADS" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["refute", "sweep", "verify"])
def test_non_integer_threads_variable_is_named(tmp_path, capsys, monkeypatch,
                                               command):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    if command == "verify":
        assert run_cli("refute", "--in", str(inst), "--out", str(cert),
                       "--ell", "1", "--trials", "10") == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "refute": ["refute", "--in", str(inst), "--out", str(out), "--ell", "1"],
        "sweep": ["sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                  "--k-list", "3", "--out", str(out)],
        "verify": ["verify", "--in", str(inst), "--cert", str(cert)],
    }[command]
    monkeypatch.setenv("KIKUCHI_THREADS", "abc")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        "config error: KIKUCHI_THREADS must be an integer, got 'abc'\n")
    assert not out.exists()


def _sweep_failing_with(monkeypatch, tmp_path, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "refute_full", fail)
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                 "--k-list", "3", "--seeds", "2", "--ell", "1", "--out", str(out))
    return rc, out


def test_sweep_records_deliberate_failures_per_row(tmp_path, monkeypatch):
    rc, out = _sweep_failing_with(monkeypatch, tmp_path,
                                  AssertionError("norm estimate above the L1 bound"))
    assert rc == 0
    with open(out) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == ["norm estimate above the L1 bound"] * 2
    assert all(r["verdict"] == "" for r in rows)


def test_sweep_propagates_unexpected_errors(tmp_path, monkeypatch):
    with pytest.raises(TypeError, match="a bug"):
        _sweep_failing_with(monkeypatch, tmp_path, TypeError("a bug"))


@pytest.mark.parametrize("command", ["refute", "sweep", "verify"])
@pytest.mark.parametrize("trials", ["1", "0"])
def test_trials_below_two_is_config_error(tmp_path, capsys, command, trials):
    # one draw has no standard error: refuse before any work, also when
    # verify reads the count from a certificate
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    out = tmp_path / "out"
    if command == "verify":
        assert run_cli("refute", "--in", str(inst), "--out", str(cert),
                       "--ell", "1", "--trials", "10") == 0
        body = read_json(cert)
        body["params"]["trials"] = int(trials)
        cert.write_text(json.dumps(body))
    capsys.readouterr()
    argv = {
        "refute": ["refute", "--in", str(inst), "--out", str(out), "--ell", "1",
                   "--trials", trials],
        "sweep": ["sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                  "--k-list", "3", "--trials", trials, "--out", str(out)],
        "verify": ["verify", "--in", str(inst), "--cert", str(cert)],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "trials" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--seeds", "0"),
    ("sweep", "--seeds", "-1"),
    ("sweep", "--ell", "0"),
    ("refute", "--ell", "0"),
    ("decompose", "--ell", "0"),
    ("build", "--ell", "0"),
    ("gen", "--n", "0"),
    ("gen", "--q", "0"),
    ("gen", "--k", "0"),
    ("sweep", "--n", "0"),
    ("sweep", "--q", "0"),
    ("sweep", "--k-list", "0"),
])
def test_count_below_one_is_config_error(tmp_path, capsys, command, flag, value):
    # no seed means no row, and compute_thresholds would run --ell 0 as 1
    # while the config echo says 0; n = 0 divides by zero, and q = 0 or
    # k = 0 writes an instance of empty hyperedges or of no matching:
    # refuse them all before any work
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
                "--out", str(out)],
        "sweep": ["sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                  "--k-list", "3", "--out", str(out)],
        "refute": ["refute", "--in", str(inst), "--out", str(out)],
        "decompose": ["decompose", "--in", str(inst), "--out", str(out)],
        "build": ["build", "--in", str(inst), "--out", str(out)],
    }[command]
    assert run_cli(*argv, flag, value) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"{flag} must be >= 1, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "sweep"])
@pytest.mark.parametrize("value", ["0", "-0.5", "inf"])
def test_delta_not_above_zero_is_config_error(tmp_path, capsys, command, value):
    # delta <= 0 gives matchings of no edge; an infinite one overflows
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", "--n", "10", "--q", "3", "--k", "4", "--out", str(out)],
        "sweep": ["sweep", "--n", "10", "--q", "3", "--k-list", "3", "--out", str(out)],
    }[command]
    assert run_cli(*argv, "--delta", value) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"--delta must be finite and > 0, got {float(value)}" in err
    assert not out.exists()


@pytest.mark.parametrize("field, command", [
    ("n", "refute"), ("n", "decompose"), ("q", "oracle")])
def test_instance_file_without_vertices_or_arity_is_config_error(
        tmp_path, capsys, field, command):
    inst, out = tmp_path / "inst.json", tmp_path / "out"
    body = {"n": 12, "k": 2, "q": 3, "delta": 0.1, "hypergraphs": [[], []], field: 0}
    inst.write_text(json.dumps(body))
    assert run_cli(command, "--in", str(inst), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "n and q must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "refute", "decompose", "build"])
def test_ell_above_n_is_config_error(tmp_path, capsys, command):
    # C([12], 13) is empty: an --ell above n is refused, not run at l = n
    # while the config echo keeps the value given
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "12", "--q", "3", "--k", "4", "--delta", "0.25",
            "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "sweep": ["sweep", "--n", "12", "--q", "3", "--delta", "0.25",
                  "--k-list", "4", "--out", str(out)],
        "refute": ["refute", "--in", str(inst), "--out", str(out)],
        "decompose": ["decompose", "--in", str(inst), "--out", str(out)],
        "build": ["build", "--in", str(inst), "--out", str(out)],
    }[command]
    assert run_cli(*argv, "--ell", "13") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "--ell must be <= n = 12, got 13" in err
    assert not out.exists()
    assert run_cli(*argv, "--ell", "1") == 0


@pytest.mark.parametrize("command", ["decompose", "refute", "verify"])
def test_bipartite_piece_file_is_config_error(tmp_path, capsys, command):
    from kikuchi.instances import dump_instance, generate_random_bipartite_instance

    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    assert run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell", "1",
                   "--trials", "10") == 0
    piece = tmp_path / "piece.json"
    dump_instance(generate_random_bipartite_instance(8, 3, 2, 2, edges_per=2,
                                                     p_size=5, seed=4), piece)
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {
        "decompose": ["decompose", "--in", str(piece), "--out", str(out)],
        "refute": ["refute", "--in", str(piece), "--out", str(out)],
        "verify": ["verify", "--in", str(piece), "--cert", str(cert)],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {command} expects a q-uniform instance file\n"
    assert not out.exists()


# piece files (1-based vertices, k=1) that break the instance contract, and
# whether a vertex in them lies outside [1, n]
BROKEN_PIECES = {
    "no-vertices": ({"n": 0, "labels": [], "hypergraphs": [[]]}, False),
    "left-vertex-out-of-range": (
        {"n": 3, "labels": [[1, 2]], "hypergraphs": [[{"left": [5], "p": 0}]]}, True),
    "label-vertex-out-of-range": (
        {"n": 3, "labels": [[1, 9]], "hypergraphs": [[{"left": [3], "p": 0}]]}, True),
    "fractional-label-index": (
        {"n": 4, "labels": [[1, 2], [3, 4]],
         "hypergraphs": [[{"left": [3], "p": 1.9}]]}, False),
}


@pytest.mark.parametrize("case", sorted(BROKEN_PIECES))
def test_piece_file_breaking_the_contract_is_config_error(tmp_path, capsys, case):
    body, out_of_range = BROKEN_PIECES[case]
    piece = tmp_path / "piece.json"
    piece.write_text(json.dumps({"k": 1, "q": 3, "s": 2, **body}))
    commands = [["oracle", "--in", str(piece), "--signs", "1"]]
    out = tmp_path / "graph.json"
    if out_of_range:
        commands.append(["build", "--in", str(piece), "--ell", "1", "--out", str(out)])
    for argv in commands:
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("config error:")
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("trials", ["1", "0", "-3"])
def test_oracle_trials_below_two_is_config_error(tmp_path, capsys, trials):
    # k > EXHAUSTIVE_B_LIMIT: the oracle samples signs, and one draw has no
    # standard error
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "12", "--q", "3", "--k", "18", "--delta", "0.25",
            "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    assert run_cli("oracle", "--in", str(inst), "--trials", trials) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "--trials" in err
    assert run_cli("oracle", "--in", str(inst), "--trials", "2") == 0
    out = json.loads(capsys.readouterr().out)
    assert np.isfinite([out["expected_val"], out["stderr"]]).all()


@pytest.mark.parametrize("command", ["decompose", "refute", "build", "oracle", "verify"])
def test_instance_file_without_k_is_config_error(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    body = read_json(inst)
    del body["k"]
    inst.write_text(json.dumps(body))
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {
        "decompose": ["decompose", "--in", str(inst), "--out", str(out)],
        "refute": ["refute", "--in", str(inst), "--out", str(out)],
        "build": ["build", "--in", str(inst), "--ell", "1", "--out", str(out)],
        "oracle": ["oracle", "--in", str(inst)],
        "verify": ["verify", "--in", str(inst), "--cert", str(out)],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert str(inst) in err and "'k'" in err
    assert not out.exists()


def test_verify_with_an_instance_as_certificate_is_config_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    capsys.readouterr()
    assert run_cli("verify", "--in", str(inst), "--cert", str(inst)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"{inst}: certificate has no key 'params'" in err


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_json_file_not_an_object_is_config_error(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    listing = tmp_path / "list.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    listing.write_text("[1, 2]\n")
    capsys.readouterr()
    argv = {
        "oracle": ["oracle", "--in", str(listing)],
        "verify": ["verify", "--in", str(inst), "--cert", str(listing)],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"{listing}: " in err and "JSON object" in err


@pytest.mark.parametrize("case", ["oracle", "refute", "verify", "bipartite"])
def test_nested_field_of_wrong_type_is_config_error(tmp_path, capsys, case):
    from kikuchi.instances import dump_instance, generate_random_bipartite_instance

    inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    if case == "verify":
        body, field = {"params": 5, "combined_bound": 1, "verdict": "x"}, "params"
    elif case == "bipartite":
        dump_instance(generate_random_bipartite_instance(
            8, 3, 2, 2, edges_per=2, p_size=5, seed=4), bad)
        body, field = {**read_json(bad), "labels": 3}, "labels"
    else:
        body, field = {**read_json(inst), "hypergraphs": 7}, "hypergraphs"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {
        "oracle": ["oracle", "--in", str(bad)],
        "refute": ["refute", "--in", str(bad), "--out", str(out)],
        "verify": ["verify", "--in", str(inst), "--cert", str(bad)],
        "bipartite": ["build", "--in", str(bad), "--ell", "2", "--out", str(out)],
    }[case]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"{bad}: " in err and f"'{field}'" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("n", 12.0),
    ("q", 3.0),
    ("delta", "abc"),
    ("delta", True),
    ("params.epsilon", "0.1"),
    ("params.gamma", None),
    ("params.seed", 1.5),
    ("params.trials", "10"),
    ("params.ell", "1"),
])
def test_mistyped_number_is_config_error(tmp_path, capsys, field, value):
    # an instance field goes to refute and decompose, a certificate
    # parameter to verify
    inst, cert, out = tmp_path / "inst.json", tmp_path / "cert.json", tmp_path / "out"
    run_cli("gen", "--n", "12", "--q", "3", "--k", "4", "--delta", "0.25",
            "--seed", "1", "--out", str(inst))
    assert run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell", "1",
                   "--trials", "10") == 0
    section, _, key = field.rpartition(".")
    target = cert if section else inst
    body = read_json(target)
    (body[section] if section else body)[key] = value
    target.write_text(json.dumps(body))
    capsys.readouterr()
    if section:
        argvs = [["verify", "--in", str(inst), "--cert", str(cert)]]
    else:
        argvs = [[command, "--in", str(inst), "--out", str(out)]
                 for command in ("refute", "decompose")]
    for argv in argvs:
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert f"{target}: " in err and f"'{field}'" in err
        assert not out.exists()


def test_verify_accepts_a_certificate_with_partition_fields(tmp_path):
    """Certificates written while the regular route sampled partitions carry
    params.n_partitions and five Khintchine-estimate fields; verify ignores
    them and recomputes the same bound."""
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    assert run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell", "1",
                   "--trials", "10") == 0
    c = read_json(cert)
    c["params"]["n_partitions"] = 4
    c["regular"]["params"]["n_partitions"] = 4
    c["regular"].update({
        "partitions": [{"partition": {"L": [1], "R": [2, 3, 4], "seed": 0},
                        "f_bound_khintchine": 1.0}],
        "f_bound_khintchine_mean": 1.0, "f_bound_khintchine_min": 1.0,
        "bound_khintchine": 1.0, "khintchine_guarantee": "estimate",
    })
    cert.write_text(json.dumps(c))
    assert run_cli("verify", "--in", str(inst), "--cert", str(cert)) == 0


def test_refute_nan_gamma_is_config_error_naming_it(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    out = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    capsys.readouterr()
    assert run_cli("refute", "--in", str(inst), "--out", str(out), "--ell", "1",
                   "--gamma", "nan") == 2
    err = capsys.readouterr().err
    assert err == "config error: gamma must be finite and > 0, got nan\n"
    assert not out.exists()


def test_refute_formula_ell_above_the_pair_graph_budget_is_config_error(
        tmp_path, capsys):
    """n=12, k=4 takes the formula ell = 5, whose pair graph would hold
    about 8.1M entries; the run stops before building any of them."""
    inst = tmp_path / "inst.json"
    out = tmp_path / "cert.json"
    run_cli("gen", "--n", "12", "--q", "3", "--k", "4", "--delta", "0.25",
            "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    assert run_cli("refute", "--in", str(inst), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ell=5" in err and "--ell" in err
    assert not out.exists()


def test_threads_help_names_sign_column_blocks():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and "refute" in a.choices)
    for command in ("refute", "sweep", "verify"):
        helps = {a.dest: a.help for a in sub.choices[command]._actions}
        assert "blocks of sign columns" in helps["threads"]


def test_threads_flag_keeps_the_certificate(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    certs = []
    for threads in ("1", "2"):
        cert = tmp_path / f"cert{threads}.json"
        assert run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell",
                       "1", "--trials", "10", "--threads", threads) == 0
        certs.append(without_meta(read_json(cert)))
    assert certs[0] == certs[1]


def test_threads_keep_the_certificate_in_a_fresh_process(tmp_path):
    # scipy.sparse is first imported during the run; with two threads that
    # must still give the one-thread certificate
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    certs = []
    for threads in ("1", "2"):
        cert = tmp_path / f"cert{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "kikuchi.cli", "refute", "--in", str(inst),
             "--out", str(cert), "--ell", "1", "--trials", "10",
             "--threads", threads],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        certs.append(without_meta(read_json(cert)))
    assert certs[0] == certs[1]


def test_verify_reuses_its_run(tmp_path, monkeypatch):
    """verify checks the decomposition and the pair graph of the run it
    makes: one decomposition and one pair-graph assembly in all."""
    import kikuchi.cli as cli
    import kikuchi.refute as refute

    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell", "1",
            "--partitions", "2", "--seed", "7")
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for owner, name in ((cli, "decompose"), (refute, "decompose"),
                        (refute, "assemble_regular_cs")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert run_cli("verify", "--in", str(inst), "--cert", str(cert)) == 0
    assert sorted(calls) == ["assemble_regular_cs", "decompose"]


def test_refute_deterministic(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli("refute", "--in", str(inst), "--out", str(out), "--ell", "1",
                "--partitions", "2", "--seed", "9")
    assert without_meta(read_json(a)) == without_meta(read_json(b))


def test_refute_and_decompose_independent_of_input_path(tmp_path):
    first = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(first))
    second = tmp_path / "copy" / "other-name.json"
    second.parent.mkdir()
    second.write_bytes(first.read_bytes())
    for cmd, extra in (("refute", ["--partitions", "2", "--seed", "9"]),
                       ("decompose", [])):
        outs = []
        for inp in (first, second):
            out = tmp_path / f"{cmd}-{len(outs)}.json"
            assert run_cli(cmd, "--in", str(inp), "--out", str(out),
                           "--ell", "1", *extra) == 0
            d = read_json(out)
            assert d["meta"]["in"] == str(inp)
            outs.append(without_meta(d))
        assert outs[0] == outs[1]


def test_verify_detects_tampering(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "3", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell", "1",
            "--partitions", "2", "--seed", "7")
    c = read_json(cert)
    c["combined_bound"] = c["combined_bound"] * 0.5
    with open(cert, "w") as fh:
        json.dump(c, fh)
    rc = run_cli("verify", "--in", str(inst), "--cert", str(cert))
    assert rc == 1


def test_verify_rechecks_every_piece_graph(tmp_path, capsys, monkeypatch):
    """A piece graph with one corrupted edge, under an unchanged certificate,
    fails verify, and the failure names the piece."""
    import dataclasses

    import kikuchi.refute as refute

    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.25",
            "--seed", "1", "--out", str(inst))
    assert run_cli("refute", "--in", str(inst), "--out", str(cert), "--ell", "1",
                   "--trials", "10") == 0
    assert run_cli("verify", "--in", str(inst), "--cert", str(cert)) == 0
    real = refute.refute_bipartite

    def corrupted(piece, *args, **kwargs):
        ref = real(piece, *args, **kwargs)
        g = ref.graph
        left = g.left.copy()
        left[0] = (left[0] + 1) % g.shape[0]
        return dataclasses.replace(ref, graph=dataclasses.replace(g, left=left))

    monkeypatch.setattr(refute, "refute_bipartite", corrupted)
    capsys.readouterr()
    assert run_cli("verify", "--in", str(inst), "--cert", str(cert)) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: piece s=2: ")


def test_sweep_planted_rows_never_refuted(tmp_path):
    out = tmp_path / "planted_sweep.csv"
    rc = run_cli("sweep", "--n", "12", "--q", "3", "--delta", "0.16",
                 "--k-list", "3,4", "--seeds", "2", "--ell", "1",
                 "--epsilon", "0.5", "--planted", "--out", str(out))
    assert rc == 0
    with open(out) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert rows and all(
        r["verdict"] == "not refuted" for r in rows if not r["error"]
    )


def test_build_graph_dump(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "graph.json"
    run_cli("gen", "--n", "9", "--q", "3", "--k", "3", "--delta", "0.2",
            "--seed", "8", "--out", str(inst))
    rc = run_cli("build", "--in", str(inst), "--variant", "regular_cs",
                 "--ell", "1", "--out", str(out))
    assert rc == 0
    d = read_json(out)
    assert d["variant"] == "regular_cs"
    assert all(len(e) == 3 for e in d["edges"])
    rc = run_cli("build", "--in", str(inst), "--ell", "1",
                 "--out", str(tmp_path / "naive.json"))
    assert rc == 0
    assert read_json(tmp_path / "naive.json")["variant"] == "naive_odd"


def test_missing_file_is_io_error(tmp_path):
    rc = run_cli("oracle", "--in", str(tmp_path / "nope.json"))
    assert rc == 3


def test_oracle_signs_and_expectation(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "9", "--q", "3", "--k", "2", "--delta", "0.2",
            "--seed", "6", "--out", str(inst))
    capsys.readouterr()  # drop gen output
    rc = run_cli("oracle", "--in", str(inst), "--signs", "1,-1")
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "val" in out and "argmax_x" in out
    rc = run_cli("oracle", "--in", str(inst))
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "expected_val" in out and out["stderr"] == 0.0


def test_oracle_above_limit_is_config_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "20", "--q", "3", "--k", "4", "--delta", "0.25",
            "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    for extra in (["--signs", "1,1,1,1"], []):
        rc = run_cli("oracle", "--in", str(inst), "--limit", "10", *extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds exhaustive limit 10" in err


def test_oracle_above_exact_sum_limit_is_config_error(tmp_path, capsys, monkeypatch):
    # more constraints than float32 sums hold exactly: exit 2 with one line,
    # for one sign vector and for the expectation alike
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "9", "--q", "3", "--k", "2", "--delta", "0.2",
            "--seed", "6", "--out", str(inst))
    capsys.readouterr()
    monkeypatch.setattr(instances, "EXACT_SUM_LIMIT", 1)
    for extra in (["--signs", "1,-1"], []):
        assert run_cli("oracle", "--in", str(inst), *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "exceeds the exact float32 sum limit 1" in captured.err


def test_oracle_signs_above_index_bits_is_config_error(tmp_path, capsys):
    # 70 variables overflow an int64 assignment index whatever --limit says;
    # the expectation scans only the quotient's rank and still runs
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "70", "--q", "3", "--k", "2", "--delta", "0.05",
            "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    rc = run_cli("oracle", "--in", str(inst), "--limit", "80", "--signs", "1,1")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "70 variables exceeds exhaustive limit 63" in err
    assert run_cli("oracle", "--in", str(inst), "--limit", "80") == 0


def test_oracle_out_file_holds_the_printed_json(tmp_path, capsys):
    inst, out = tmp_path / "inst.json", tmp_path / "val.json"
    run_cli("gen", "--n", "9", "--q", "3", "--k", "2", "--delta", "0.2",
            "--seed", "6", "--out", str(inst))
    capsys.readouterr()
    assert run_cli("oracle", "--in", str(inst), "--signs", "1,-1", "--out", str(out)) == 0
    assert out.read_text() == capsys.readouterr().out


def test_oracle_limit_default_is_exhaustive_limit():
    args = build_parser().parse_args(["oracle", "--in", "inst.json"])
    assert args.limit == EXHAUSTIVE_LIMIT


def test_sweep_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep", "--n", "10", "--q", "3", "--delta", "0.2",
                 "--k-list", "2,3", "--seeds", "2", "--ell", "1",
                 "--out", str(out))
    assert rc == 0
    with open(out) as fh:
        header = fh.readline()
        assert header.startswith("# kikuchi")
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["k"] for r in rows} == {"2", "3"}
    for r in rows:
        if not r["error"]:
            assert r["verdict"] in ("refuted", "not refuted")


def test_build_bipartite_instance_file(tmp_path):
    from kikuchi.instances import dump_instance, generate_random_bipartite_instance

    piece = generate_random_bipartite_instance(8, 3, 2, 2, edges_per=2,
                                               p_size=5, seed=4)
    inst = tmp_path / "bip.json"
    dump_instance(piece, inst)
    out = tmp_path / "graph.json"
    rc = run_cli("build", "--in", str(inst), "--ell", "2", "--out", str(out))
    assert rc == 0
    assert read_json(out)["variant"] == "bipartite"


def test_entrypoint_subprocess(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "kikuchi.cli", "gen", "--n", "9", "--q", "3",
         "--k", "2", "--delta", "0.2", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_refute_deterministic_across_processes(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--q", "3", "--k", "4", "--delta", "0.2",
            "--seed", "4", "--out", str(inst))
    outs = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "kikuchi.cli", "refute", "--in", str(inst),
             "--out", str(out), "--ell", "1", "--partitions", "2",
             "--seed", "11"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(without_meta(read_json(out)))
    assert outs[0] == outs[1]
