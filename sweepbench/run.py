#!/usr/bin/env python3
"""The FRACAS sweep benchmark: wall-clock cost of classified injections.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `bench_sweep` and
`bench_trace` binaries of this directory's Cargo package (release
profile; target directory `$CARGO_TARGET_DIR`, else `.bench_build`),
then measures one workload:

* `--trace 0` alternates zero-fault sweeps (set-up) and full sweeps of
  the workload, each in its own process with one worker thread per CPU,
  from an empty database and sink, until `--seconds` are used (at least
  one of each). It reports medians of `inj_per_s`, `setup_s` and
  `peak_rss_mb`, and `classified_frac` over every full sweep.
* `--trace 1` runs one full sweep, then the serial traced replay of the
  same sweep, and reports the per-layer figures (see `LAYER_METRICS`).

`--seed` is the campaign seed the fault lists are drawn from. Every
database is checked: it must cover every scenario with exactly the
planned record count, and its SHA-256 must equal the digest pinned in
`pins.json` for the workload and seed, when one is pinned. The traced
replay must reproduce the full sweep's database byte for byte, match
`inject_one` on every injection (compared after the traced part ends),
and attribute at least 95% of its wall time to named layers. The last line of standard output is the result
object; the exit status is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

# Each workload is a closed batch: the sweep flags select the scenario set,
# fault space and prune mode; the seed argument draws the fault list.
WORKLOADS = {
    # SIRA-32 injections are the slow ones (soft-float code runs ~50x the
    # instructions of SIRA-64). The 17 two-core scenarios keep a set-up
    # sweep near 5 s, so several sweeps fit in one run.
    "sira32-regs-full": {"flags": ["--isa", "sira32", "--cores", "2"], "faults": 40},
    # Only ~14% of faults execute: checkpoint ladders, golden traces and
    # class planning are most of the sweep.
    "sira64-regs-classes": {"flags": ["--isa", "sira64", "--prune-classes"], "faults": 100},
    # Non-ephemeral domains: no reconvergence probe, every faulty run goes
    # to the end; text flips re-lower predecoded slots, value faults live
    # in store-buffer and cache-line overlays.
    "sira64-mem-full": {
        "flags": ["--isa", "sira64", "--text-faults", "--storebuf-faults", "--cachedata-faults"],
        "faults": 40,
    },
}

# (name, unit, better)
END_TO_END = [
    ("inj_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("classified_frac", "ratio", "higher"),
]

# (name, unit, better, end-to-end metric it should move)
LAYER_METRICS = [
    ("build.s", "s", "lower", "setup_s"),
    ("golden.s", "s", "lower", "setup_s; inj_per_s on sira64-regs-classes"),
    ("golden.minst_per_s", "Minst/s", "higher", "setup_s; inj_per_s on sira64-regs-classes"),
    ("ladder.s", "s", "lower", "setup_s, peak_rss_mb; inj_per_s on sira64-regs-classes"),
    ("ladder.snapshots", "count", "lower", "setup_s, peak_rss_mb"),
    ("trace.s", "s", "lower", "setup_s, peak_rss_mb on sira64-regs-classes"),
    ("trace.events", "count", "lower", "setup_s, peak_rss_mb on sira64-regs-classes"),
    ("plan.s", "s", "lower", "inj_per_s, setup_s on sira64-regs-classes"),
    ("plan.executed_frac", "ratio", "lower", "inj_per_s on sira64-regs-classes"),
    ("plan.decided", "count", "higher", "inj_per_s on sira64-regs-classes"),
    ("restore.s", "s", "lower", "inj_per_s on sira32-regs-full"),
    ("restore.boot_fallbacks", "count", "lower", "inj_per_s on sira32-regs-full"),
    ("replay.s", "s", "lower", "inj_per_s on sira32-regs-full"),
    ("replay.cycles_mean", "cycles", "lower", "inj_per_s on sira32-regs-full"),
    ("flip.s", "s", "lower", "inj_per_s on sira64-mem-full"),
    ("reconverge.s", "s", "lower", "inj_per_s on sira32-regs-full"),
    ("reconverge.attempts", "count", "lower", "inj_per_s on sira32-regs-full"),
    ("reconverge.hit_ratio", "ratio", "higher", "inj_per_s on sira32-regs-full"),
    ("postflip.s", "s", "lower", "inj_per_s on sira32-regs-full and sira64-mem-full"),
    ("postflip.minst_per_s", "Minst/s", "higher", "inj_per_s on sira32-regs-full and sira64-mem-full"),
    ("inject.p50_ms", "ms", "lower", "inj_per_s"),
    ("inject.p99_ms", "ms", "lower", "inj_per_s"),
    ("inject.count", "count", "lower", "inj_per_s"),
    ("inject.hangs", "count", "lower", "inj_per_s"),
    ("classify.s", "s", "lower", "inj_per_s"),
    ("sink.bytes", "bytes", "lower", "inj_per_s"),
    ("db.bytes", "bytes", "lower", "inj_per_s"),
    ("db.write_s", "s", "lower", "inj_per_s"),
    ("traced.coverage", "ratio", "higher", "explains inj_per_s"),
    ("fleet.efficiency", "ratio", "higher", "explains inj_per_s"),
]

MIN_COVERAGE = 0.95
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


class CheckFailed(Exception):
    """A correctness check failed; the run reports `correct: false`."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def threads():
    """Worker threads of a sweep: one per CPU this process may use."""
    return len(os.sched_getaffinity(0))


def child_env():
    """The environment for children, without the FRACAS_* knobs that could
    change a workload behind the benchmark's back."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FRACAS_")}


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds both binaries; returns their directory. Exits on failure."""
    env = child_env()
    env["CARGO_TARGET_DIR"] = str(target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        log(f"build failed ({done.returncode})")
        sys.exit(1)
    return target_dir() / "release"


def run_child(cmd, log_path):
    """Runs `cmd` to completion; returns (last stdout line as JSON, its peak
    RSS in MB). Stderr goes to `log_path`, shown when the child fails."""
    with open(log_path, "wb") as err, open(str(log_path) + ".out", "wb+") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-20:]
        raise CheckFailed(f"{Path(cmd[0]).name} exited {proc.returncode}:\n" + "\n".join(tail))
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def check_db(path, scenarios, faults):
    """Checks a sweep database's coverage and record counts. Returns
    (records, anomalies): the records present, and the Anomaly records plus
    the records of workloads whose golden run failed."""
    campaigns = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    ids = [c["id"] for c in campaigns]
    missing = sorted(set(scenarios) - set(ids))
    extra = sorted(set(ids) - set(scenarios))
    if missing or extra or len(ids) != len(set(ids)):
        raise CheckFailed(f"database covers {ids}, expected {scenarios}")
    records = anomalies = 0
    for c in campaigns:
        indices = [r["index"] for r in c["records"]]
        if c["faults"] != faults or indices != list(range(faults)):
            raise CheckFailed(f"{c['id']}: {len(indices)} records, expected {faults}")
        anomalies += c["tally"].get("anomaly", 0)
        records += len(indices)
    return records, anomalies


def check_digest(workload, seed, digest, pins):
    """Fails on a digest that differs from the pinned one; returns whether a
    pin existed."""
    pinned = pins.get(workload, {}).get("digests", {}).get(str(seed))
    if pinned is not None and pinned != digest:
        raise CheckFailed(f"{workload} seed {seed}: database sha256 {digest}, pinned {pinned}")
    return pinned is not None


def sweep_flags(workload, seed, faults, n_threads, db):
    spec = WORKLOADS[workload]
    return spec["flags"] + ["--faults", str(faults), "--seed", str(seed),
                            "--threads", str(n_threads), "--db", str(db), "--sink", f"{db}.wal"]


def one_sweep(bins, workdir, tag, workload, seed, faults, pins):
    """Runs one production sweep in a fresh directory and checks its
    database. Returns a dict with wall, rss, records, anomalies, digest."""
    sweep_dir = workdir / tag
    sweep_dir.mkdir()
    db = sweep_dir / "db.jsonl"
    out, rss = run_child([str(bins / "bench_sweep")] + sweep_flags(workload, seed, faults, threads(), db),
                         sweep_dir / "stderr.log")
    records, anomalies = check_db(db, out["scenarios"], faults)
    digest = sha256(db)
    if faults == WORKLOADS[workload]["faults"]:
        pinned = check_digest(workload, seed, digest, pins)
        log(f"  {tag}: {out['wall_s']:.3f} s, {records} records, sha256 {digest[:16]}"
            f" ({'matches pin' if pinned else 'no pin for this seed'})")
    else:
        log(f"  {tag}: {out['wall_s']:.3f} s")
    return {"wall": out["wall_s"], "rss": rss, "records": records, "anomalies": anomalies,
            "digest": digest, "attempted": len(out["scenarios"]) * faults}


def measure(bins, workdir, workload, seed, seconds, pins):
    """Alternates set-up and full sweeps until `seconds` are used."""
    faults = WORKLOADS[workload]["faults"]
    deadline = time.monotonic() + seconds
    setups, mains, last = [], [], {}
    while True:
        kind = "setup" if len(setups) <= len(mains) else "main"
        if setups and mains and time.monotonic() + last[kind] > deadline:
            break
        started = time.monotonic()
        n = len(setups) + len(mains)
        if kind == "setup":
            setups.append(one_sweep(bins, workdir, f"{n:02d}-setup", workload, seed, 0, pins))
        else:
            mains.append(one_sweep(bins, workdir, f"{n:02d}-main", workload, seed, faults, pins))
        last[kind] = time.monotonic() - started
    attempted = sum(m["attempted"] for m in mains)
    failed = sum(m["anomalies"] for m in mains)
    metrics = {
        "inj_per_s": statistics.median((m["records"] - m["anomalies"]) / m["wall"] for m in mains),
        "setup_s": statistics.median(s["wall"] for s in setups),
        "peak_rss_mb": statistics.median(m["rss"] for m in mains),
        "classified_frac": (attempted - failed) / attempted,
    }
    log(f"  {len(setups)} set-up and {len(mains)} full sweep(s)")
    return metrics, attempted, failed


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    by_name = {}
    for s, c in zip(spans, child):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
    return by_name


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the exclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(trace, spans, sweep_wall, n_threads):
    """Reduces the traced replay's spans and counters to LAYER_METRICS."""
    selfs = self_times(spans)
    get = lambda name: selfs.get(name, 0.0)  # noqa: E731
    golden = get("golden")
    traced = "trace" in selfs
    inject_ms = [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == "inject"]
    executed = trace["executed"]
    # The fleet runs one golden execution per workload, carrying ladder and
    # trace capture; the replay runs each separately, so their spans hold
    # the golden run again.
    serial = sum(selfs.values()) - golden * (2 if traced else 1)
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    return {
        "build.s": get("build"),
        "golden.s": golden,
        "golden.minst_per_s": ratio(trace["golden_instructions"] / 1e6, golden),
        "ladder.s": get("ladder") - golden,
        "ladder.snapshots": trace["snapshots"],
        "trace.s": get("trace") - golden if traced else 0.0,
        "trace.events": trace["trace_events"],
        "plan.s": get("plan"),
        "plan.executed_frac": ratio(executed, trace["planned_faults"]),
        "plan.decided": trace["decided"],
        "restore.s": get("restore"),
        "restore.boot_fallbacks": trace["boot_fallbacks"],
        "replay.s": get("replay"),
        "replay.cycles_mean": ratio(trace["replay_cycles"], executed),
        "flip.s": get("flip"),
        "reconverge.s": get("reconverge"),
        "reconverge.attempts": trace["reconverge_attempts"],
        "reconverge.hit_ratio": ratio(trace["reconverge_hits"], trace["reconverge_attempts"]),
        "postflip.s": get("postflip"),
        "postflip.minst_per_s": ratio(trace["postflip_instructions"] / 1e6, get("postflip")),
        "inject.p50_ms": percentile(inject_ms, 50),
        "inject.p99_ms": percentile(inject_ms, 99),
        "inject.count": executed,
        "inject.hangs": trace["hangs"],
        "classify.s": get("classify"),
        "sink.bytes": trace["sink_bytes"],
        "db.bytes": trace["db_bytes"],
        "db.write_s": get("db"),
        "traced.coverage": ratio(sum(selfs.values()), trace["wall_s"]),
        "fleet.efficiency": ratio(serial, n_threads * sweep_wall),
    }


def measure_traced(bins, workdir, workload, seed, pins):
    """One full sweep, then its serial traced replay."""
    faults = WORKLOADS[workload]["faults"]
    main = one_sweep(bins, workdir, "00-main", workload, seed, faults, pins)
    trace_dir = workdir / "01-trace"
    trace_dir.mkdir()
    db = trace_dir / "db.jsonl"
    trace, _ = run_child([str(bins / "bench_trace")] + sweep_flags(workload, seed, faults, 1, db),
                         trace_dir / "stderr.log")
    if trace["mismatches"]:
        raise CheckFailed(f"{trace['mismatches']} replayed injection(s) differ from inject_one")
    if sha256(db) != main["digest"]:
        raise CheckFailed("the traced replay's database differs from the sweep's")
    spans = [json.loads(line) for line in Path(f"{db}.spans.jsonl").read_text().splitlines()]
    metrics = layer_metrics(trace, spans, main["wall"], threads())
    log(f"  traced replay: {trace['wall_s']:.3f} s, {len(spans)} spans;"
        f" {trace['executed']} injections checked against inject_one in {trace['verify_s']:.3f} s")
    if metrics["traced.coverage"] < MIN_COVERAGE:
        raise CheckFailed(f"spans cover {metrics['traced.coverage']:.3f} of the traced time,"
                          f" below {MIN_COVERAGE}")
    return metrics, main["attempted"], main["anomalies"]


def provenance(workload, seed):
    """The stamp printed with every result."""
    def probe(cmd):
        try:
            env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=30, check=False)
            return done.stdout.strip() if done.returncode == 0 else "unknown"
        except OSError:
            return "unknown"
    return {
        "git_rev": probe(["git", "rev-parse", "--short", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": probe(["rustc", "--version"]),
        "nproc": os.cpu_count(),
        "threads": threads(),
        "workload": workload,
        "seed": seed,
        "faults": WORKLOADS[workload]["faults"],
    }


def source_digest():
    """SHA-256 over the simulator's sources, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.relative_to(ROOT).parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def pin(bins, workdir, workload, seeds):
    """Records the database digest of one full sweep per seed in pins.json."""
    pins = load_pins()
    entry = pins.setdefault(workload, {"faults": WORKLOADS[workload]["faults"], "digests": {}})
    for seed in seeds:
        main = one_sweep(bins, workdir, f"pin-{seed}", workload, seed, entry["faults"], {})
        entry["digests"][str(seed)] = main["digest"]
        entry["scenarios"] = main["attempted"] // entry["faults"]
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0xFACA5)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED",
                        help="record the database digests of these seeds in pins.json")
    args = parser.parse_args(argv)

    bins = build()
    workdir = ROOT / ".bench_runs" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.pin:
            pin(bins, workdir, args.workload, args.pin)
            return 0
        pins = load_pins()
        stamp = provenance(args.workload, args.seed)
        log(f"{args.workload} seed {args.seed}: {stamp['faults']} faults per scenario,"
            f" {stamp['threads']} worker thread(s)")
        correct = True
        try:
            if args.trace:
                metrics, attempted, failed = measure_traced(bins, workdir, args.workload,
                                                            args.seed, pins)
            else:
                metrics, attempted, failed = measure(bins, workdir, args.workload, args.seed,
                                                     args.seconds, pins)
        except CheckFailed as e:
            log(f"CHECK FAILED: {e}")
            correct, metrics, attempted, failed = False, {}, 1, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    table = LAYER_METRICS if args.trace else END_TO_END
    units = {n: u for n, u, *_ in table}
    for name, unit, _, *moves in table if correct else []:
        log(f"  {name:<24} {metrics[name]:>14.6g} {unit:<8} {moves[0] if moves else ''}")
    print(json.dumps({"provenance": stamp}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
