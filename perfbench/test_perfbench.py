"""Smoke tests of the benchmark harness (n=12, k=4, l=1).

Every metric BENCHMARK.json names is emitted for every workload, a wrong
oracle shows up as failed items, and without the kikuchi sources the entry
point exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import kikuchi.refute

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workload_names_match_benchmark_json():
    assert NAMES == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_metric(name, trace, tmp_path):
    result = harness.run_workload(name, seed=1, seconds=0, trace=bool(trace),
                                  out_dir=tmp_path, smoke=True)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert all(len(d) == 64 for d in result["items"][0]["digests"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (tmp_path / f"spans-{name}-seed1.json").is_file()
        assert kikuchi.refute.refute_full.__name__ == "refute_full"
        assert not hasattr(kikuchi.refute.refute_full, "__wrapped__")


@pytest.mark.parametrize("name", NAMES)
def test_oracle_mismatch_fails_items(name, tmp_path, monkeypatch):
    brute, all_signs = kikuchi.refute.brute_force_val, kikuchi.refute.val_for_all_signs

    def inflated_brute(inst, b, *args, **kwargs):
        val, x, y = brute(inst, b, *args, **kwargs)
        return val + 1000, x, y

    monkeypatch.setattr(kikuchi.refute, "brute_force_val", inflated_brute)
    monkeypatch.setattr(kikuchi.refute, "val_for_all_signs",
                        lambda inst, *a, **kw: all_signs(inst, *a, **kw) + 1000)
    result = harness.run_workload(name, seed=1, seconds=0, trace=False,
                                  out_dir=tmp_path, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_frac"]["value"] == 0.0


def test_time_limit_records_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "TIME_LIMIT_S", 1e-3)
    result = harness.run_workload(NAMES[0], seed=1, seconds=0, trace=False,
                                  out_dir=tmp_path, smoke=True)
    assert result["failed"] == result["attempted"] == 1
    assert result["items"][0]["error"].startswith("timeout")


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
