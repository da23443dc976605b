#!/usr/bin/env python3
"""End-to-end campaign benchmark.

Runs one seeded campaign workload through `drivefi_plan::run_plan` with
the store on, for a fixed time, and prints one JSON result as the last
line of standard output:

    python3 campaign_bench/run.py --workload random_sweep --seed 7 \
        --seconds 12 --trace 0

The seed is turned into plan TOML (`[scenarios] seed`, `[campaign]
seed`); the worker binary receives only the generated plan. Each run
measures passes over the workload's `plans` plans derived from the seed,
one worker process per campaign, so peak memory is per campaign. The
rates are the run's summed work over its summed `run_plan` wall clock;
the other metrics are medians over the run's campaigns.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each plan
untraced, then through the traced pipeline, which must write the same
`report.toml`, `jobs.csv` and `rounds.toml` bytes, then re-runs the
injection stage on one worker, and reports the per-layer metrics.

Every campaign is checked: `run_plan` returns `Ok` with every job
persisted, finds at least one hazard, and writes the same result digest
on every run of the same plan. A campaign that fails a check counts as a
failed operation. Before the result line, one `row` line per campaign
records its numbers with the run's provenance.

Run from the repository root. The worker is built with
`cargo build --release` into `$CARGO_TARGET_DIR` (default
`.bench_build`); campaigns write under `.bench_work/` and are deleted.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("random_sweep", "exhaustive_sweep", "mine_pipeline", "adaptive_rounds")
DEFAULT_SEED = 7

# Plan sizes, and `plans`: the seeded suites one pass runs. The
# adaptive loop's hazard yield varies most between suites, so its passes
# average over more of them. `tiny` is for the benchmark's own test.
SIZES = {
    "full": {
        "random_sweep": {"plans": 4, "runs": 800, "count": 8},
        "exhaustive_sweep": {"plans": 4, "count": 6, "stride": 12},
        "mine_pipeline": {"plans": 4, "count": 6, "stride": 60},
        "adaptive_rounds": {"plans": 8, "count": 6, "stride": 80, "batch": 4, "rounds": 32},
    },
    "tiny": {
        "random_sweep": {"plans": 2, "runs": 60, "count": 4},
        "exhaustive_sweep": {"plans": 2, "count": 2, "stride": 40},
        "mine_pipeline": {"plans": 2, "count": 2, "stride": 60},
        "adaptive_rounds": {"plans": 2, "count": 2, "stride": 60, "batch": 4, "rounds": 4},
    },
}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "hazards_per_s": "1/s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
}

# Per-layer busy times: self times that, with `trace.unaccounted_s`,
# add up to `trace.wall_s`.
LAYER_BUSY = (
    "world.suite_build_s",
    "plan.control_s",
    "plan.report_s",
    "sim.golden_s",
    "sim.sweep_s",
    "store.open_s",
    "store.append_s",
    "store.finish_s",
    "store.read_s",
    "store.trace_read_s",
    "miner.fit_s",
    "miner.forecast_s",
    "acq.fit_s",
    "acq.select_s",
)

PER_LAYER = {
    **{name: "s" for name in LAYER_BUSY},
    "sim.jobs": "count",
    "sim.us_per_job": "us",
    "sim.effective_ratio": "ratio",
    "sim.hazard_yield": "ratio",
    "sim.first_hazard_s": "s",
    "sim.scaling_2w": "ratio",
    "store.append_p50_us": "us",
    "store.append_p99_us": "us",
    "store.append_tail_us": "us",
    "store.append_samples": "count",
    "store.records": "count",
    "miner.candidates": "count",
    "miner.candidates_per_s": "1/s",
    "miner.mined": "count",
    "miner.score_to_inject": "ratio",
    "acq.rounds": "count",
    "acq.jobs_to_first_hazard": "count",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead": "ratio",
}


def plan_toml(workload, size, seed, out_dir, workers):
    """The plan file for one campaign of `workload` on `seed`."""
    s = SIZES[size][workload]
    output = f'[output]\ndir = "{out_dir}"\nshards = 4\ncheckpoint_every = {{}}\n'
    scenarios = f'[scenarios]\nsource = "paper"\ncount = {s["count"]}\nseed = {seed}\n'
    head = f'name = "{workload}"\n\n[campaign]\nworkers = {workers}\nseed = {seed}\n'
    if workload == "random_sweep":
        # Ten-scene corruption windows: single-scene ones find no hazard
        # at all, and a zero hazard rate cannot be compared.
        return (
            head + f'kind = "random"\nruns = {s["runs"]}\nsink = "stats"\n\n' + scenarios
            + '\n[faults]\nsignals = "all"\nmodels = ["min", "max"]\nmodules = []\n'
            + "first_scene = 1\ntail_margin = 1\nwindow_scenes = 10\n\n"
            + output.format(8)
        )
    if workload == "adaptive_rounds":
        return (
            head + f'kind = "adaptive"\nscene_stride = {s["stride"]}\n\n'
            + f'[adaptive]\nbatch = {s["batch"]}\nmax_rounds = {s["rounds"]}\nconverge_eps = 0.0\n\n'
            + scenarios + "\n" + output.format(64)
        )
    kind = "exhaustive" if workload == "exhaustive_sweep" else "mine"
    return head + f'kind = "{kind}"\nscene_stride = {s["stride"]}\n\n' + scenarios + "\n" + output.format(64)


def subseeds(seed, plans):
    """The plan seeds a run derives from its workload seed."""
    return [(seed * plans + j) % (1 << 62) for j in range(plans)]


def nproc():
    return len(os.sched_getaffinity(0))


def build(root):
    """Builds the worker binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
        raise SystemExit("campaign benchmark: building the worker failed")
    return os.path.join(root, target, "release", "campaign-bench")


def run_child(cmd, cwd):
    """Runs one worker process; returns (parsed JSON or None, peak RSS MB, stderr)."""
    err_path = os.path.join(cwd, "stderr.txt")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as err:
        stderr = err.read().decode(errors="replace").strip()
    if proc.returncode != 0:
        return None, 0.0, stderr or f"exit status {proc.returncode}"
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), usage.ru_maxrss / 1024.0, stderr
    except (ValueError, IndexError):
        return None, 0.0, "unparseable worker output"


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.lstat(os.path.join(base, f)).st_size for f in files)
    return total


def provenance(root, args):
    """Where and how the numbers were made."""
    rev = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        rev = done.stdout.strip() or rev
    digest = hashlib.sha256()
    for top in ("crates", "compat", os.path.relpath(BENCH_DIR, root)):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {
        "git_rev": rev,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "size": SIZES[args.size][args.workload],
    }


def end_to_end(rows):
    """The end-to-end metrics of a run's campaigns."""
    wall = sum(r["wall_s"] for r in rows)
    return {
        # Each worker process draws one of two set-up speeds, so the
        # per-campaign medians are averaged rather than pooled.
        "setup_s": statistics.mean(statistics.median(r["setup_s"]) for r in rows),
        "jobs_per_s": sum(r["jobs"] for r in rows) / wall,
        "hazards_per_s": sum(r["hazards"] for r in rows) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rows),
        "store_mb": statistics.median(r["store_mb"] for r in rows),
    }


def per_layer(rows):
    """The per-layer metrics of a run's traced campaigns."""
    return {name: statistics.median(r["metrics"][name] for r in rows) for name in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args()
    for var in ("DRIVEFI_OBS", "DRIVEFI_PROFILE"):
        if var in os.environ:
            raise SystemExit(f"campaign benchmark: {var} is set; it changes the measured program")

    root = os.getcwd()
    binary = build(root)
    prov = provenance(root, args)
    work = os.path.join(root, ".bench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    seeds = subseeds(args.seed, SIZES[args.size][args.workload]["plans"])
    attempted = failed = 0
    digests = {}
    rows = []
    start = time.monotonic()
    try:
        while True:
            pass_start = time.monotonic()
            for sub in seeds:
                out_dir = os.path.join(work, f"plan-{sub}")
                plan = os.path.join(work, f"plan-{sub}.toml")
                with open(plan, "w") as f:
                    f.write(plan_toml(args.workload, args.size, sub, out_dir, nproc()))
                cmd = [binary, "trace", plan] if args.trace else [binary, "run", plan]
                attempted += 1
                row, rss, err = run_child(cmd, work)
                problem = None
                if row is None:
                    problem = err
                elif row["hazards"] < 1:
                    problem = "the campaign found no hazard"
                elif digests.setdefault(sub, row["digests"]) != row["digests"]:
                    problem = f"result digest changed between runs of plan seed {sub}"
                elif not args.trace:
                    row["peak_rss_mb"] = rss
                    row["store_mb"] = dir_bytes(out_dir) / 1e6
                for path in (out_dir, out_dir + ".traced", out_dir + ".1w"):
                    shutil.rmtree(path, ignore_errors=True)
                if problem:
                    failed += 1
                    print(f"failed plan seed {sub}: {problem}", file=sys.stderr)
                    continue
                print("row " + json.dumps(dict(prov, plan_seed=sub, **row)), flush=True)
                rows.append(row)
            # Start another pass only if it should end within the run.
            now = time.monotonic()
            if now + (now - pass_start) > start + args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # Another run is using it.

    units = PER_LAYER if args.trace else END_TO_END
    values = (per_layer if args.trace else end_to_end)(rows) if rows else dict.fromkeys(units, 0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
