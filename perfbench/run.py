#!/usr/bin/env python3
"""xaon end-to-end benchmark.

One run of one workload:

    python3 perfbench/run.py --workload cbr-5k --seed 1 --seconds 20 --trace 0

builds `xaon_perfbench` from the checkout's sources (Release, into
`.bench_build/`), runs it, checks its outputs and prints, as the last
line of stdout, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` its per-layer metrics (measured in a
separate traced run; spans go to `.bench_out/`). The line before it is
an info object: commit, source digest, CPU model, nproc, build type,
active util::scan lane, every output check and the latency sample count.
Each run's full record is also written under `.bench_out/results/`.

Other commands:

    python3 perfbench/run.py compare BASE_DIR NEW_DIR
        Diffs two sets of result records per workload x metric. Flags an
        end-to-end median that got worse by more than its bound, and any
        exact-count companion that differs between or within the sets.

    python3 perfbench/run.py golden
        Re-records perfbench/golden/sim-cbr-seed1.json, the simulated
        counters sim-cbr must reproduce bit for bit on the default seed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden", "sim-cbr-seed1.json")
DEFAULT_SEED = 1
GOLDEN_ROUNDS = 12
RUN_TIMEOUT_S = 170

# Per-layer counts that must repeat bit for bit from run to run (a later
# change may claim a gain on them only as an exact count).
EXACT = (
    "xml.elements_per_msg",
    "aon.allocs_per_msg",
    "aon.arena_bytes_per_msg",
    "scan.calls_per_msg",
    "aon.route_cache_hit_rate",
    "net.bytes_out_per_msg",
    "capture.ops",
    "uarch.ops",
)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds xaon_perfbench; returns its path."""
    bdir = build_dir()
    os.makedirs(OUT, exist_ok=True)
    logfile = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(logfile, "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % logfile)
    return os.path.join(bdir, "xaon_perfbench")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          cwd=ROOT, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: xaon_perfbench exited with %d"
                         % proc.returncode)
    return json.loads(lines[-1])


def source_digest():
    """SHA-1 over the sources the benchmark builds (the checkout need not
    be a git repository)."""
    h = hashlib.sha1()
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(raw):
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha1": source_digest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "build_type": raw["build_type"],
        "scan_impl": raw["scan_impl"],
    }


def golden_mismatches(raw):
    """Runs whose simulated counters differ from the golden file. Returns
    (failed runs as (platform, index), compared run count)."""
    with open(GOLDEN) as f:
        golden = json.load(f)["runs"]
    bad = []
    compared = 0
    for platform, runs in raw["sim_runs"].items():
        want = golden.get(platform, [])
        for i, counters in enumerate(runs):
            if i < len(want):
                compared += 1
                if counters != want[i]:
                    bad.append((platform, i))
    return bad, compared


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit("perfbench: unknown workload %r (have %s)"
                         % (args.workload, ", ".join(names)))
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    raw = run_binary(binary, cmd)

    checks = list(raw["checks"])
    failed = int(raw["failed"])
    if args.workload == "sim-cbr" and args.seed == DEFAULT_SEED:
        bad, compared = golden_mismatches(raw)
        checks.append({"name": "counters match golden file",
                       "ok": not bad and compared > 0,
                       "detail": "%d runs compared, mismatches: %s"
                                 % (compared, bad)})
        for platform, _ in bad:
            threads = 1 if platform.startswith("1") else 2
            failed += int(raw["sim_messages_per_thread"] * threads)
    correct = (all(c["ok"] for c in checks) and failed == 0
               and raw["attempted"] >= 1)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = raw["layer"].get(m["name"], 0.0) if args.trace \
            else raw[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(raw),
        "latency_samples": raw["latency_samples"],
        "latency_unit": raw["latency_unit"],
        "latency_p99_us": raw["latency_p99_us"],
        "setup_samples_s": raw["setup_samples"],
        "raw": {k: raw[k] for k in (
            "raw_msgs_per_s", "raw_latency_p50_us", "raw_latency_p90_us",
            "raw_cpu_us_per_msg", "raw_setup_s", "speed_factor_median",
            "speed_factor_min", "speed_factor_max")},
        "checks": checks,
    }
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": failed, "metrics": metrics}

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s.seed%d.trace%d.%d" % (args.workload, args.seed, args.trace,
                                     time.time_ns())
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"info": info, "result": result, "raw": raw}, f, indent=1)

    for c in checks:
        if not c["ok"]:
            log("check failed: %s (%s)" % (c["name"], c["detail"]))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def load_records(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records.append(json.load(f))
    return records


def spread(values):
    """(median, IQR as a share of the median) of a list of values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def compare(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load_records(args.base), load_records(args.new)]
    groups = {}
    exact = {}  # (workload, seed, metric) -> every value seen, both sets
    for side, records in enumerate(sets):
        for rec in records:
            info = rec["info"]
            for name, m in rec["result"]["metrics"].items():
                key = (info["workload"], info["trace"], name)
                groups.setdefault(key, ([], []))[side].append(m["value"])
                if name in EXACT:
                    exact.setdefault((info["workload"], info["seed"], name),
                                     set()).add(m["value"])
    flagged = 0
    print("%-14s %-28s %12s %7s %12s %7s %8s  %s" % (
        "workload", "metric", "base", "iqr", "new", "iqr", "change",
        "verdict"))
    for (workload, trace, name), (base, new) in sorted(groups.items()):
        if not base or not new or not any(base + new):
            continue  # missing on one side, or a metric of another workload
        mb, sb = spread(base)
        mn, sn = spread(new)
        change = (mn - mb) / abs(mb) if mb else 0.0
        verdict = ""
        if name in EXACT:
            # Exact counts depend on the seed's inputs: compare per seed.
            differs = [seed for (w, seed, n), values in exact.items()
                       if w == workload and n == name and len(values) > 1]
            if differs:
                verdict = "EXACT COUNT DIFFERS on seeds %s" % sorted(differs)
                flagged += 1
            else:
                verdict = "exact count repeats"
        elif not trace and name in bounds:
            m = bounds[name]
            worse = change > 0 if m["better"] == "lower" else change < 0
            if abs(change) <= m["bound"]:
                verdict = "within bound %.2f" % m["bound"]
            elif worse:
                verdict = "WORSE than bound %.2f" % m["bound"]
                flagged += 1
            else:
                verdict = "better beyond bound %.2f" % m["bound"]
            if max(sb, sn) > m["bound"]:
                verdict += " (unresolved: spread above bound)"
        print("%-14s %-28s %12.6g %6.1f%% %12.6g %6.1f%% %7.1f%%  %s" % (
            workload, name, mb, sb * 100, mn, sn * 100, change * 100,
            verdict))
    print("%d flagged" % flagged)
    return 1 if flagged else 0


def golden(_args):
    binary = build()
    raw = run_binary(binary, ["--workload", "sim-cbr", "--seed",
                              str(DEFAULT_SEED), "--seconds", "1",
                              "--rounds", str(GOLDEN_ROUNDS)], timeout=None)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump({
            "about": "sim-cbr simulated counters on seed %d: per platform, "
                     "one entry per System::run in order (run 0 is the "
                     "reproduction's warm-up), each [wall_ns, clockticks, "
                     "busy_cycles, inst_retired, ops, branch_retired, "
                     "branch_mispredicted, l1d_accesses, l1d_misses, "
                     "l1i_accesses, l1i_misses, l2_accesses, l2_misses, "
                     "bus_transactions, bus_wait_cycles, "
                     "coherence_invalidations, prefetch_fills]"
                     % DEFAULT_SEED,
            "runs": raw["sim_runs"]}, f, indent=1)
    log("wrote %s" % GOLDEN)
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        return compare(p.parse_args(argv[1:]))
    if argv and argv[0] == "golden":
        return golden(argv[1:])
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
