"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every metric named in BENCHMARK.json is printed with its unit in both
modes, a tampered reference shows up in failed_frac instead of passing,
and without the package next to it the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(workload, trace, *extra, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return done, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done, lines = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines
    assert "failed_frac 0.0 frac" in lines


def test_tampered_reference_is_counted_as_failed(tmp_path):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    refs["example1.json"]["lambda_star"]["101"] *= 1.01
    tampered = tmp_path / "references.json"
    tampered.write_text(json.dumps(refs), encoding="utf-8")

    done, lines = run_bench("certify-bundled", 0, "--references", str(tampered))
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    frac = [float(line.split()[1]) for line in lines
            if line.startswith("failed_frac ")]
    assert frac == [result["failed"] / result["attempted"]]
    assert any(line.startswith("FAILED example1.json: lambda*") for line in lines)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done, lines = run_bench("ml-mix", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
