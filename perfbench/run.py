#!/usr/bin/env python3
"""The repository's benchmark: host time of `mondrian run` from manifest
to result artifact, on three workloads, with its outputs checked.

    python3 perfbench/run.py --workload paper_serial --seed 7 --seconds 15 --trace 0

Run from the repository root. It builds the release `mondrian` binary
(default features, as users build it) and, for `--trace 1`, the
in-process layer timer in perfbench/driver, into $CARGO_TARGET_DIR (else
the root `target/`). Scratch files live in `.perfbench_work/` and are
removed on exit.

`--trace 0` times untraced `mondrian run` processes and prints every
end-to-end metric; `--trace 1` makes one traced pass and prints every
per-layer metric. Either way the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every run was `ok` and verified and every artifact
of one workload was identical; see perfbench/README.md.
"""

import argparse
import collections
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from pb import fidelity, manifests, spans, stats  # noqa: E402

WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 7
MIN_SAMPLES = 3
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = {
    # All 7 systems, serial schedule: the engine does the work.
    "paper_serial": {"kind": "paper", "concurrency": "serial",
                     "systems": manifests.ALL_SYSTEMS, "jobs": 1, "setups": 2},
    # Adaptive schedule on 3 systems: the pipeline schedule layer does the work.
    "paper_auto": {"kind": "paper", "concurrency": "auto",
                   "systems": manifests.AUTO_SYSTEMS, "jobs": 1, "setups": 2},
    # Many small runs against a filled store, last stage edited.
    "sweep_edit": {"kind": "sweep", "jobs": NPROC, "setups": 3},
}

END_TO_END = [
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("core.engine_ms", "ms"), ("core.events", "count"), ("core.events_per_ms", "1/ms"),
    ("pipeline.run_ms", "ms"), ("pipeline.schedule_ms", "ms"), ("pipeline.plan_ms", "ms"),
    ("pipeline.planner_won", "count"), ("pipeline.streamed_edges", "count"),
    ("pipeline.concurrent_waves", "count"),
    ("store.save_ms", "ms"), ("store.load_ms", "ms"), ("store.hits", "count"),
    ("store.misses", "count"), ("store.hit_ratio", "ratio"), ("store.bytes_written", "B"),
    ("store.bytes_read", "B"),
    ("ops.reference_ms", "ms"), ("ops.reference_hits", "count"),
    ("ops.reference_misses", "count"),
    ("workloads.source_ms", "ms"), ("cli.parse_ms", "ms"), ("cli.render_ms", "ms"),
    ("obs.metrics_ms", "ms"), ("cli.campaign_ms", "ms"), ("cli.worker_busy_share", "ratio"),
    ("trace.unattributed_ms", "ms"), ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"), ("trace.overhead_share", "ratio"),
    ("paper_orderings_held", "count"),
] + [
    (f"{name}.{system.lower()}", unit)
    for system in fidelity.REPORTED_SYSTEMS
    for name, unit in [
        ("mem.row_hit_ratio", "ratio"), ("mem.activations", "count"), ("mem.busy_ps", "ps"),
        ("mem.queue_ge64_share", "ratio"), ("noc.mesh_busy_ps", "ps"),
        ("noc.serdes_busy_ps", "ps"), ("cache.l1_miss_ratio", "ratio"),
        ("cache.llc_miss_ratio", "ratio"), ("phase.partition_ps", "ps"),
        ("phase.probe_ps", "ps"), ("sim.makespan_ps", "ps"), ("energy_j", "J"),
    ]
]


def clean_env():
    """The caller's environment without the variables that change what
    `mondrian run` does or where it caches."""
    env = dict(os.environ)
    for var in ("MONDRIAN_JOBS", "MONDRIAN_CACHE", "MONDRIAN_FAULT"):
        env.pop(var, None)
    return env


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(trace):
    """Builds the binaries the run needs and returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / "target")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(clean_env(), CARGO_TARGET_DIR=str(target))
    cmds = [["cargo", "build", "--release", "--offline", "-p", "mondrian-cli", "--bin", "mondrian"]]
    if trace:
        cmds.append(["cargo", "build", "--release", "--offline",
                     "--manifest-path", str(HERE / "driver" / "Cargo.toml")])
    for cmd in cmds:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return target / "release" / "mondrian", target / "release" / "perfbench-driver"


Sample = collections.namedtuple("Sample", "wall_s rss_mb code artifact")


def run_cli(mondrian, manifest, cache_dir, jobs):
    """One untraced `mondrian run`: host wall seconds from spawn to exit,
    the process's peak resident memory, its exit code and its artifact."""
    out = WORK / "result.json"
    out.unlink(missing_ok=True)
    args = [str(mondrian), "run", str(manifest), "--out", str(out), "--quiet",
            "--jobs", str(jobs)]
    args += ["--cache-dir", str(cache_dir)] if cache_dir else ["--no-cache"]
    with open(WORK / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=WORK, env=clean_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log((WORK / "stderr.log").read_text(errors="replace")[-2000:])
    artifact = out.read_bytes() if out.exists() else b""
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode, artifact)


class Check:
    """Counts sweep points attempted and failed over artifacts that must
    all be identical: a run that is not ok or not verified fails, and so
    does every point of an artifact that differs from the first."""

    def __init__(self, what):
        self.what = what
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.digest = None
        self.problems = []

    def add(self, code, artifact):
        try:
            doc = json.loads(artifact)
        except ValueError:
            doc = None
        if doc is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{self.what}: no artifact (exit code {code})")
            return None
        attempted, failed = fidelity.run_outcomes(doc)
        if code != 0 and failed == 0:
            failed = attempted
        if failed:
            self.problems.append(f"{self.what}: {failed} of {attempted} runs not ok or unverified")
        if self.first is None:
            self.first, self.digest = artifact, fidelity.sim_digest(doc)
        elif artifact != self.first:
            failed = attempted
            self.problems.append(
                f"{self.what}: artifact differs from the first one "
                f"(simulated digest {fidelity.sim_digest(doc)} vs {self.digest})")
        self.attempted += attempted
        self.failed += failed
        return doc


def fresh_dir(name):
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def write_manifest(name, text):
    path = WORK / name
    path.write_text(text)
    return path


def workload_manifests(spec, seed):
    """(base, timed): sweep_edit's store-filling campaign (None for the
    paper workloads) and the manifest that is timed."""
    if spec["kind"] == "paper":
        text = manifests.paper_manifest(seed, spec["concurrency"], spec["systems"])
        return None, write_manifest("manifest.toml", text)
    return (write_manifest("base.toml", manifests.sweep_manifest(seed, manifests.SWEEP_BASE_OP)),
            write_manifest("manifest.toml", manifests.sweep_manifest(seed, manifests.SWEEP_EDIT_OP)))


def fill_store(mondrian, base, jobs, name, check):
    """The cold base campaign into a new store: sweep_edit's set-up."""
    store = fresh_dir(name)
    sample = run_cli(mondrian, base, store, jobs)
    check.add(sample.code, sample.artifact)
    return store, sample.wall_s


def measure(workload, seed, seconds, mondrian):
    """Times untraced runs for `seconds` (at least MIN_SAMPLES of them)
    after the workload's set-up, and returns the checks and samples."""
    spec = WORKLOADS[workload]
    jobs = spec["jobs"]
    check = Check(workload)
    checks = [check]
    setups = []
    base, manifest = workload_manifests(spec, seed)
    if base is None:
        # Set-up is one warm-up run; every run starts from an empty store.
        for _ in range(spec["setups"]):
            sample = run_cli(mondrian, manifest, fresh_dir("store"), jobs)
            check.add(sample.code, sample.artifact)
            setups.append(sample.wall_s)

        def prepare():
            return fresh_dir("store")
    else:
        base_check = Check(f"{workload} set-up")
        checks.append(base_check)
        for i in range(spec["setups"]):
            template, wall = fill_store(mondrian, base, jobs, f"filled{i}", base_check)
            setups.append(wall)

        def prepare():
            store = fresh_dir("store")
            shutil.copytree(template, store)
            return store

    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        store = prepare()
        sample = run_cli(mondrian, manifest, store, jobs)
        shutil.rmtree(store, ignore_errors=True)
        doc = check.add(sample.code, sample.artifact)
        events = doc.get("metrics", {}).get("engine", {}).get("events", 0) if doc else 0
        samples.append((sample, events))

    if base is not None:
        # The store must serve what a storeless run computes.
        sample = run_cli(mondrian, manifest, None, jobs)
        check.add(sample.code, sample.artifact)
    return checks, setups, samples


def result_line(checks, metrics, extra_ok=True):
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    correct = extra_ok and failed == 0 and attempted > 0
    return correct, {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                     "metrics": metrics}


def end_to_end(workload, seed, seconds, mondrian):
    checks, setups, samples = measure(workload, seed, seconds, mondrian)
    series = {
        "wall_s": [s.wall_s for s, _ in samples],
        "events_per_s": [ev / s.wall_s for s, ev in samples],
        "peak_rss_mb": [s.rss_mb for s, _ in samples],
        "setup_s": setups,
    }
    check = checks[0]
    print(f"{workload} (seed {seed}): {len(samples)} timed runs, "
          f"simulated digest {check.digest}")
    metrics = {}
    for name, unit in END_TO_END:
        n, med, q1, q3 = stats.summary(series[name])
        print(f"  {name:<14} n={n:<3} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} {unit}")
        metrics[name] = {"value": med, "unit": unit}
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    print(f"  fail_share     {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    if workload == "paper_serial" and check.first:
        for line in fidelity.ledger(json.loads(check.first)):
            print(line)
    for c in checks:
        for problem in c.problems:
            print(f"  FAILED: {problem}")
    return result_line(checks, metrics)


def traced(workload, seed, mondrian, driver):
    """One untraced `mondrian run`, then the in-process driver over the
    same manifest and store state; returns the per-layer metrics."""
    spec = WORKLOADS[workload]
    jobs = spec["jobs"]
    check = Check(workload)
    checks = [check]
    base, manifest = workload_manifests(spec, seed)
    # One store each for the command, the driver's campaign and its replay.
    stores = [fresh_dir(f"store{i}") for i in range(3)]
    if base is not None:
        base_check = Check(f"{workload} set-up")
        checks.append(base_check)
        template, _ = fill_store(mondrian, base, jobs, "filled", base_check)
        for store in stores:
            shutil.copytree(template, store)

    untraced = run_cli(mondrian, manifest, stores[0], jobs)
    doc = check.add(untraced.code, untraced.artifact)
    layers_path, artifact_path = WORK / "layers.json", WORK / "driver-result.json"
    proc = subprocess.run(
        [str(driver), "--manifest", str(manifest), "--jobs", str(jobs),
         "--campaign-store", str(stores[1]), "--replay-store", str(stores[2]),
         "--artifact", str(artifact_path), "--out", str(layers_path)],
        cwd=WORK, env=clean_env(), stdout=sys.stderr)
    driver_ok = proc.returncode == 0 and layers_path.exists()
    check.add(proc.returncode, artifact_path.read_bytes() if artifact_path.exists() else b"")
    if not driver_ok or doc is None:
        for c in checks:
            for problem in c.problems:
                print(f"  FAILED: {problem}")
        return result_line(checks, {}, extra_ok=False)

    layers = json.loads(layers_path.read_text())
    metrics = layer_metrics(layers, doc, untraced.wall_s * 1e3)
    print(f"{workload} (seed {seed}): traced pass, simulated digest {check.digest}")
    for name, unit in PER_LAYER:
        print(f"  {name:<32} {metrics[name]['value']:<14.6g} {unit}")
    for line in fidelity.ledger(doc):
        print(line)
    for c in checks:
        for problem in c.problems:
            print(f"  FAILED: {problem}")
    return result_line(checks, metrics)


def layer_metrics(layers, doc, untraced_ms):
    """Reduces the driver's output and the artifact to PER_LAYER."""
    self_ms = spans.self_ms_by_name(layers["spans"])
    replay_ms = layers["replay_ms"]
    # The traced path from manifest to artifact, in process.
    traced_ms = layers["parse_ms"] + replay_ms + layers["render_ms"]
    hits, misses = layers["store_hits"], layers["store_misses"]
    won, streamed, concurrent = fidelity.schedule_counts(doc)
    values = {
        "core.engine_ms": layers["engine_ms"],
        "core.events": layers["events"],
        "core.events_per_ms": layers["events"] / layers["engine_ms"] if layers["engine_ms"] else 0,
        "pipeline.run_ms": self_ms.get("pipeline.run", 0.0),
        "pipeline.schedule_ms": layers["schedule_ms"],
        "pipeline.plan_ms": layers["plan_ms"],
        "pipeline.planner_won": won,
        "pipeline.streamed_edges": streamed,
        "pipeline.concurrent_waves": concurrent,
        "store.save_ms": self_ms.get("store.save", 0.0),
        "store.load_ms": self_ms.get("store.load", 0.0),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes_written": layers["store_bytes_written"],
        "store.bytes_read": layers["store_bytes_read"],
        "ops.reference_ms": layers["reference_ms"],
        "ops.reference_hits": layers["reference_hits"],
        "ops.reference_misses": layers["reference_misses"],
        "workloads.source_ms": layers["source_ms"],
        "cli.parse_ms": layers["parse_ms"],
        "cli.render_ms": layers["render_ms"],
        "obs.metrics_ms": layers["metrics_ms"],
        "cli.campaign_ms": layers["campaign_ms"],
        "cli.worker_busy_share": layers["sim_wall_ms"] / (layers["jobs"] * layers["campaign_ms"]),
        "trace.unattributed_ms": self_ms.get("replay", 0.0),
        "trace.unattributed_share": self_ms.get("replay", 0.0) / replay_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_share": (traced_ms - untraced_ms) / untraced_ms,
        "paper_orderings_held": fidelity.orderings_held(doc),
    }
    sim = fidelity.system_metrics(doc)
    units = dict(PER_LAYER)
    out = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, (value, unit) in sim.items():
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        log(f"perfbench: {ROOT} is not a checkout of the repository (no Cargo.toml or crates/cli)")
        return 2

    # A terminated benchmark still stops and reaps the process it waits on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        mondrian, driver = build(args.trace)
        if args.trace:
            correct, line = traced(args.workload, args.seed, mondrian, driver)
        else:
            correct, line = end_to_end(args.workload, args.seed, args.seconds, mondrian)
    except subprocess.CalledProcessError as e:
        log(f"perfbench: build failed: {e}")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
