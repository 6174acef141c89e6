"""wildsim benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh single Python process (bench/child.py) that
imports wildsim from this checkout's `src/`, builds the kernel and the
initial datum (set-up), then drives `wildsim.cli.main` in-process through
the workload's commands at `--workers 1`, with BLAS/OpenMP threads pinned
to 1.  Every repetition of a run uses the same seed, so repetitions do the
same work and must write identical reports; repetitions run for about
`--seconds` (at least three) and the metrics are medians over them.

Times are reported in reference-host seconds: each phase of a repetition is
multiplied by PROBE_REFERENCE_S over the trimmed mean time of the
host-speed probes bench/child.py took during that phase.  Host speed on a shared machine
drifts by up to 50% within seconds; the scaling cancels most of it, and the
raw times stay in the run record.

Workloads (why each is here):
  weights_short   identities --kernel xabs --t 0.5,1,2,3: the weight-cascade
                  path only (mean cascade size about 8), where per-cascade
                  Python overhead dominates.
  transform_grid  crosscheck --mu0 sixpoint --t 1 on the default 20-point
                  grid: tree growth, collision frames, the conditional
                  transform and velocity replay; no weight-only statistics.
  long_cascades   decay --moment W --t 2,...,6 then conserve --mu0 sixpoint
                  --t 3,4,5: mean cascade size about 116, so per-step cost
                  dominates and the longest cascades set the time.

With --trace 0 the last stdout line reports the end-to-end metrics:
  wall_s           wall time of the workload's CLI commands, after set-up
                   (scaled to the reference host, as all times here)
  setup_s          import of wildsim plus kernel and initial-datum build
  time_to_se_s     wall_s * (se_max / 1e-3)^2, se_max the largest standard
                   error among the gated report entries (work-normalised
                   variance: a variance cut shows even at equal wall_s)
  peak_rss_mb      the repetition process's maximum resident set size
  check_pass_frac  share of oracle gates passed (1 - failed / attempted)
With --trace 1 it reports per-layer metrics from repetitions whose layer
functions are wrapped by bench/spans.py, alternated with untraced ones; the
difference in wall_s between the two is `trace.overhead_s`.

Every run writes its record (metadata, repetitions, reports, spans) under
`.bench_runs/` in the checkout.  The exit code is 0 when every oracle gate
passed, 1 when a gate failed (the result line is still printed) and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_KERNEL = "xabs"
SETUP_MU0 = "sixpoint"
WORKERS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

Z_GATE = 4.0
CROSSCHECK_PASS_FRACTION = 0.95
SE_TARGET = 1e-3

# The reference host runs bench/child.py's probe (10_000 iterations of a
# pure-Python loop) in 1 ms.
PROBE_REFERENCE_S = 1e-3
MIN_PROBES = 5

MIN_REPS = 3            # untraced repetitions per --trace 0 run
MIN_TRACED_PAIRS = 1    # (untraced, traced) pairs per --trace 1 run
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0     # no repetition starts if it could end past this

# (command, flags before --seed/--workers/--out)
WORKLOADS = {
    "weights_short": [
        ("identities", ["--kernel", "xabs", "--t", "0.5,1,2,3", "--samples", "10000"]),
    ],
    "transform_grid": [
        ("crosscheck", ["--mu0", "sixpoint", "--t", "1", "--samples", "20000"]),
    ],
    "long_cascades": [
        ("decay", ["--moment", "W", "--t", "2,3,4,5,6", "--samples", "3000"]),
        ("conserve", ["--mu0", "sixpoint", "--t", "3,4,5", "--samples", "5000"]),
    ],
}

SAMPLER_SPANS = ("weight_statistic_sums", "draw_tree_sample", "wild_velocity")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --- oracle gates -----------------------------------------------------------------

def gate_report(command: str, exit_code: int, report: dict | None):
    """Oracle checks for one command's --out report.

    Returns (checks, se_max, values): checks is a list of (name, passed),
    se_max the largest standard error among the gated entries and values
    the numbers a rerun with the same seed must reproduce exactly.
    """
    checks = [(f"{command}: exit code 0", exit_code == 0)]
    if report is None:
        return checks + [(f"{command}: report written", False)], math.nan, None
    if command == "decay":
        fit = report["fit"]
        rate = fit["reference_rate"]
        for t, value, se in zip(fit["times"], fit["values"], fit["std_errors"]):
            z = (value - math.exp(rate * t)) / se if se > 0.0 else math.inf
            checks.append((f"decay: |z| <= {Z_GATE} at t={t}", abs(z) <= Z_GATE))
        return checks, max(fit["std_errors"]), [fit["values"], fit["std_errors"]]
    entries = report["entries"]
    if command == "crosscheck":
        passing = sum(e["z_score"] <= Z_GATE for e in entries) / len(entries)
        checks.append((f"crosscheck: pass fraction >= {CROSSCHECK_PASS_FRACTION}",
                       passing >= CROSSCHECK_PASS_FRACTION))
    else:
        for e in entries:
            # the Markov tail bound is one-sided: only an excess can fail it
            one_sided = "one-sided" in e["reference_provenance"]
            z = e["z_score"] if one_sided else abs(e["z_score"])
            checks.append((f"{command}: {e['identity']} {e['params']} z <= {Z_GATE}",
                           z <= Z_GATE))
    values = [[e["mc_value"], e["mc_se"], e["z_score"]] for e in entries]
    return checks, max(e["mc_se"] for e in entries), values


# --- one repetition ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def host_scale(probes: list[float]) -> float:
    """Factor from this host's speed to the reference host's: the reference
    probe time over the 10%-trimmed mean of the probes."""
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return PROBE_REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def run_repetition(run_dir: Path, index: int, workload: str, seed: int, traced: bool) -> dict:
    rep_dir = run_dir / f"rep{index:02d}{'-traced' if traced else ''}"
    rep_dir.mkdir()
    commands = [
        [name, *flags, "--seed", str(seed), "--workers", str(WORKERS),
         "--out", str(rep_dir / f"{name}.json")]
        for name, flags in WORKLOADS[workload]
    ]
    plan = {"src": str(SRC), "kernel": SETUP_KERNEL, "mu0": SETUP_MU0,
            "commands": commands, "trace": traced,
            "result": str(rep_dir / "result.json")}
    plan_path = rep_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    with open(rep_dir / "child.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(plan_path)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s; see {rep_dir}") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}; see {rep_dir / 'child.log'}")
    result = json.loads((rep_dir / "result.json").read_text())
    if Path(result["package_file"]).resolve().parent != (SRC / "wildsim").resolve():
        raise BenchError(f"imported wildsim from {result['package_file']}, not {SRC}")

    checks, se_max, values = [], 0.0, {}
    for command in result["commands"]:
        name = command["argv"][0]
        out = rep_dir / f"{name}.json"
        report = json.loads(out.read_text()) if out.exists() else None
        gate_checks, se, values[name] = gate_report(name, command["exit_code"], report)
        checks += gate_checks
        se_max = max(se_max, se)
    setup_probes = result["setup"]["probes_s"]
    command_probes = [p for c in result["commands"] for p in c["probes_s"]]
    every_probe = setup_probes + command_probes
    if not every_probe:
        raise BenchError(f"repetition took no host-speed probes; see {rep_dir}")
    # a phase too short for its own probes is scaled by all of them
    scale = host_scale(command_probes if len(command_probes) >= MIN_PROBES else every_probe)
    setup_scale = host_scale(setup_probes if len(setup_probes) >= MIN_PROBES else every_probe)
    raw_wall = sum(c["net_s"] for c in result["commands"])
    return {"dir": str(rep_dir), "traced": traced, "scale": scale,
            "setup_s": result["setup"]["net_s"] * setup_scale, "wall_s": raw_wall * scale,
            "raw_setup_s": result["setup"]["net_s"], "raw_wall_s": raw_wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "commands": result["commands"], "se_max": se_max, "checks": checks,
            "values": values, "spans": result["spans"]}


# --- per-layer metrics from spans -------------------------------------------------

def layer_metrics(spans: list[dict], scale: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced repetition,
    with times multiplied by the repetition's host-speed scale."""
    by_name = defaultdict(lambda: defaultdict(float))
    for span in spans:
        totals = by_name[span["name"]]
        totals["self_s"] += span["self_s"] * scale
        for key in ("calls", "units", "cascades", "leaves"):
            totals[key] += span[key]
        totals["nu_max"] = max(totals["nu_max"], span["nu_max"])

    def per(total, count, factor):
        return total / count * factor if count else 0.0

    metrics = {}
    for fn in SAMPLER_SPANS:
        s = by_name[f"sampler.{fn}"]
        metrics[f"sampler.{fn}.self_s"] = (s["self_s"], "s")
        metrics[f"sampler.{fn}.us_per_cascade"] = (per(s["self_s"], s["cascades"], 1e6), "us")
        metrics[f"sampler.{fn}.ns_per_leaf"] = (per(s["self_s"], s["leaves"], 1e9), "ns")
    metrics["sampler.cascades"] = (int(sum(s["cascades"] for s in by_name.values())), "count")
    metrics["sampler.leaves"] = (int(sum(s["leaves"] for s in by_name.values())), "count")
    metrics["sampler.nu_max"] = (int(max((s["nu_max"] for s in by_name.values()), default=0)),
                                 "count")
    k = by_name["kernel.inverse_beta_cdf"]
    metrics["kernel.inverse_beta_cdf.calls"] = (int(k["calls"]), "count")
    metrics["kernel.inverse_beta_cdf.self_s"] = (k["self_s"], "s")
    metrics["kernel.inverse_beta_cdf.ns_per_angle"] = (per(k["self_s"], k["units"], 1e9), "ns")
    g = by_name["geometry.frames"]
    metrics["geometry.frames.calls"] = (int(g["calls"]), "count")
    metrics["geometry.frames.self_s"] = (g["self_s"], "s")
    metrics["geometry.third_columns.self_s"] = (by_name["geometry.third_columns"]["self_s"], "s")
    for part, unit_name in (("cf", "ns_per_point"), ("sampler", "ns_per_draw")):
        s = by_name[f"initial.{part}"]
        metrics[f"initial.{part}.calls"] = (int(s["calls"]), "count")
        metrics[f"initial.{part}.self_s"] = (s["self_s"], "s")
        metrics[f"initial.{part}.{unit_name}"] = (per(s["self_s"], s["units"], 1e9), "ns")
    metrics["diagnostics.self_s"] = (
        sum(s["self_s"] for name, s in by_name.items() if name.startswith("diagnostics.")), "s")
    metrics["cli.self_s"] = (by_name["cli.main"]["self_s"], "s")
    return metrics


# --- run metadata -----------------------------------------------------------------

def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted((SRC / "wildsim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_metadata(args) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    samples = {name: int(flags[flags.index("--samples") + 1])
               for name, flags in WORKLOADS[args.workload]}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "samples": samples,
        "git_revision": git_revision(), "source_sha1": source_digest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "ambient_env": {var: os.environ.get(var)
                        for var in (*THREAD_VARS, "WILDSIM_WORKERS")},
        "machine": platform.machine(),
    }


# --- the run ----------------------------------------------------------------------

def run(args) -> tuple[dict, dict]:
    if not (SRC / "wildsim" / "cli.py").is_file():
        raise BenchError(f"no wildsim package under {SRC}")
    meta = run_metadata(args)
    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    run_dir.mkdir()
    print(f"run record: {run_dir / 'run.json'}")
    print("meta: " + json.dumps(meta, sort_keys=True))

    modes = [False, True] if args.trace else [False]
    minimum = MIN_TRACED_PAIRS if args.trace else MIN_REPS
    reps, rounds, started = [], 0, time.perf_counter()
    longest = 0.0
    while True:
        # start a round only if it should end within the run's time
        ends = time.perf_counter() - started + longest
        if rounds >= minimum and ends > args.seconds:
            break
        if rounds > 0 and ends > RUN_LIMIT_S:
            break
        round_start = time.perf_counter()
        for traced in modes:
            reps.append(run_repetition(run_dir, len(reps), args.workload, args.seed, traced))
        longest = max(longest, time.perf_counter() - round_start)
        rounds += 1

    checks = [check for rep in reps for check in rep["checks"]]
    first = reps[0]
    for rep in reps[1:]:
        checks.append((f"{Path(rep['dir']).name} reproduces {Path(first['dir']).name}",
                       rep["values"] == first["values"]))
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]

    if args.trace:
        per_rep = [layer_metrics(rep["spans"], rep["scale"]) for rep in traced]
        counts = [{n: v for n, (v, unit) in m.items() if unit == "count"} for m in per_rep]
        checks += [(f"traced repetition {i} repeats span counts", c == counts[0])
                   for i, c in enumerate(counts[1:], 1)]
        metrics = {name: (statistics.median(m[name][0] for m in per_rep), unit)
                   for name, (_, unit) in per_rep[0].items()}
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced), "s")
    else:
        wall = statistics.median(r["wall_s"] for r in untraced)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
            "time_to_se_s": (wall * (first["se_max"] / SE_TARGET) ** 2, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    failed = sum(not ok for _, ok in checks)
    if not args.trace:
        metrics["check_pass_frac"] = (1.0 - failed / len(checks), "fraction")

    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "meta": meta,
        "result": result,
        "failed_checks": [name for name, ok in checks if not ok],
        "repetitions": [{k: v for k, v in rep.items() if k != "checks"} for rep in reps],
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=1))
    return result, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name in record["failed_checks"]:
        print(f"FAILED: {name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
