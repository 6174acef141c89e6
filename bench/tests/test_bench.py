"""Self-test of the benchmark.

Traced runs with one seed must repeat their exact counts and report
values; another seed must change them.  The oracle gates must fail on
failing reports, and the benchmark must refuse to run without the package
source.  Run with: python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark entry point, imported from its directory)

COUNTS = ("sampler.cascades", "sampler.leaves", "sampler.nu_max",
          "kernel.inverse_beta_cdf.calls")
SEEDS = {"a": 11, "b": 11, "c": 12}


def bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def traced_run(workload, seed):
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    record_path = next(line.split(": ", 1)[1] for line in lines
                       if line.startswith("run record: "))
    return json.loads(lines[-1]), json.loads(Path(record_path).read_text())


@pytest.fixture(scope="module", params=["weights_short", "transform_grid"])
def traced_runs(request):
    return request.param, {key: traced_run(request.param, seed) for key, seed in SEEDS.items()}


def counts(result):
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def report_values(record):
    return record["repetitions"][0]["values"]


def test_same_seed_repeats_counts_and_report_values(traced_runs):
    _, runs = traced_runs
    (result_a, record_a), (result_b, record_b) = runs["a"], runs["b"]
    assert result_a["correct"] and result_b["correct"]
    assert counts(result_a) == counts(result_b)
    assert report_values(record_a) == report_values(record_b)


def test_other_seed_changes_counts_and_report_values(traced_runs):
    _, runs = traced_runs
    (result_a, record_a), (result_c, record_c) = runs["a"], runs["c"]
    # the number of cascades is fixed by --samples; their sizes follow the seed
    assert result_a["metrics"]["sampler.cascades"] == result_c["metrics"]["sampler.cascades"]
    assert counts(result_a)["sampler.leaves"] != counts(result_c)["sampler.leaves"]
    assert (counts(result_a)["kernel.inverse_beta_cdf.calls"]
            != counts(result_c)["kernel.inverse_beta_cdf.calls"])
    assert report_values(record_a) != report_values(record_c)


def test_traced_run_reports_every_declared_per_layer_metric(traced_runs):
    _, runs = traced_runs
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = runs["a"][0]["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_record_carries_run_metadata(traced_runs):
    workload, runs = traced_runs
    meta = runs["a"][1]["meta"]
    assert meta["seed"] == SEEDS["a"] and meta["workers"] == 1
    assert meta["samples"] == {name: int(flags[flags.index("--samples") + 1])
                               for name, flags in run.WORKLOADS[workload]}
    assert set(meta["threads"]) == set(run.THREAD_VARS)
    for key in ("git_revision", "source_sha1", "python", "numpy", "scipy", "nproc"):
        assert key in meta


def entry(identity, z, one_sided=False, se=0.01):
    provenance = "Markov inequality (one-sided)" if one_sided else "closed form"
    return {"identity": identity, "params": {}, "mc_value": 0.0, "mc_se": se,
            "z_score": z, "reference_provenance": provenance}


def test_gates_fail_on_failing_reports():
    def passed(command, exit_code, report):
        checks, _, _ = run.gate_report(command, exit_code, report)
        return all(ok for _, ok in checks)

    good = {"entries": [entry("sum|w|^1", 3.9), entry("tail", -80.0, one_sided=True)]}
    assert passed("identities", 0, good)
    assert not passed("identities", 3, good)
    assert not passed("identities", 0, None)
    assert not passed("conserve", 0, {"entries": [entry("conserved_v1", -4.1)]})
    assert not passed("identities", 0, {"entries": [entry("tail", 4.1, one_sided=True)]})

    grid = [entry("transform_match", 0.5) for _ in range(19)]
    assert passed("crosscheck", 0, {"entries": grid + [entry("transform_match", 9.0)]})
    assert not passed("crosscheck", 0, {"entries": grid[:18] + [entry("transform_match", 9.0)] * 2})

    fit = {"times": [1.0, 2.0], "reference_rate": -1.0, "std_errors": [0.01, 0.01]}
    on_curve = [2.718281828459045 ** -1, 2.718281828459045 ** -2]
    assert passed("decay", 0, {"fit": {**fit, "values": on_curve}})
    assert not passed("decay", 0, {"fit": {**fit, "values": [on_curve[0], on_curve[1] + 0.05]}})


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench(tmp_path, "--workload", "weights_short", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
