import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import kikuchi.cli as cli
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
