#!/usr/bin/env python3
"""Repository benchmark: one workload of the sweep engine, end to end or
traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Builds the library, `sparsify_cli` and the
perfbench driver from source under $CARGO_TARGET_DIR (default
.bench_build), runs the driver, checks the correctness gate, and prints
one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace). Exits non-zero when the build fails or the
gate finds wrong outputs. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402

DEFAULT_SEED = 42
DRIVER_TIMEOUT_S = 170

# The fixed dataset recipes and grids of the three workloads. Flags match
# `sparsify_cli sweep` one to one (the drift guard passes them to it).
WORKLOADS = {
    "score_heavy": {
        "dataset": "ego-Facebook", "scale": "1",
        "algos": ",".join(ledger.ALL_ALGOS),
        "metrics": "kcore", "runs": 3,
        "export_digest_seed42": "7d319e15541396c8",
    },
    "traversal_heavy": {
        "dataset": "ca-AstroPh", "scale": "0.5",
        "algos": "RN,LD,KN",
        "metrics": "spsp,eccentricity,diameter,betweenness,closeness",
        "runs": 2,
        "export_digest_seed42": "6ad26e853a220931",
    },
    "store_heavy": {
        "dataset": "ego-Facebook", "scale": "0.25",
        "algos": "RN,KN,RD,FF,ALG,LS-MH,LD,LS",
        "metrics": "connectivity,isolated,degree,kcore", "runs": 100,
        "export_digest_seed42": "36e9ad9d9099664d",
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(out):
    """Configures (once) and builds the driver and sparsify_cli."""
    cmake_dir = os.path.join(out, "cmake")
    if not any(os.path.exists(os.path.join(cmake_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return (os.path.join(cmake_dir, "perfbench_driver"),
            os.path.join(cmake_dir, "sparsify", "sparsify_cli"))


def sweep_flags(w, seed):
    return ["--dataset=" + w["dataset"], "--scale=" + w["scale"],
            "--algos=" + w["algos"], "--metrics=" + w["metrics"],
            "--runs=%d" % w["runs"], "--seed=%d" % seed]


def drift_guard(cli, driver, name, w, seed, threads, driver_export, out):
    """Once per build and workload: a real `sparsify_cli sweep --store
    --resume` with the same flags must export the same bytes as the
    driver's store. Returns a problem string or None."""
    stamp_dir = os.path.join(out, "drift")
    stamp = os.path.join(stamp_dir, name + ".ok")
    key = name + "".join(" %d %d" % (st.st_mtime_ns, st.st_size)
                         for st in (os.stat(cli), os.stat(driver)))
    if os.path.exists(stamp) and open(stamp).read() == key:
        return None
    store = os.path.join(out, "work", "drift-%s-%d" % (name, os.getpid()))
    shutil.rmtree(store, ignore_errors=True)
    try:
        sweep = subprocess.run(
            [cli, "sweep"] + sweep_flags(w, seed) +
            ["--store=" + store, "--resume", "--threads=%d" % threads],
            stdout=subprocess.DEVNULL, timeout=DRIVER_TIMEOUT_S)
        if sweep.returncode != 0:
            return "sparsify_cli sweep exited %d" % sweep.returncode
        exported = subprocess.run([cli, "export", "--store=" + store],
                                  stdout=subprocess.PIPE, check=True,
                                  timeout=DRIVER_TIMEOUT_S).stdout
    finally:
        shutil.rmtree(store, ignore_errors=True)
    with open(driver_export, "rb") as f:
        if f.read() != exported:
            return ("drift: the driver's store export differs from "
                    "`sparsify_cli sweep` with the same flags")
    os.makedirs(stamp_dir, exist_ok=True)
    with open(stamp, "w") as f:
        f.write(key)
    return None


def run_driver(driver, mode, w, args, threads, work, export_file, trace_file):
    cmd = [driver, "--mode=" + mode] + sweep_flags(w, args.seed) + [
        "--seconds=%d" % args.seconds, "--threads=%d" % threads,
        "--work-dir=" + work, "--export-file=" + export_file]
    if trace_file:
        cmd += ["--trace-file=" + trace_file,
                "--probe-algos=" + ",".join(ledger.ALL_ALGOS),
                "--probe-metrics=" + ",".join(ledger.ALL_METRICS)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_driver exited %d" % proc.returncode)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    out = build_dir()
    threads = min(os.cpu_count() or 1, 4)

    try:
        driver, cli = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    export_file = work + ".export.csv"
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_file = os.path.join(
            out, "traces", "%s-seed%d.json" % (args.workload, args.seed))
    try:
        raw = run_driver(driver, "trace" if args.trace else "e2e", w, args,
                         threads, work, export_file, trace_file)
        problems = ledger.gate(raw)
        digest = ledger.export_digest(raw)
        if args.seed == DEFAULT_SEED and digest != w["export_digest_seed42"]:
            problems.append("export digest %s differs from the recorded %s "
                            "at seed %d" % (digest, w["export_digest_seed42"],
                                            DEFAULT_SEED))
        drift = drift_guard(cli, driver, args.workload, w, args.seed,
                            threads, export_file, out)
        if drift:
            problems.append(drift)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: run failed: %s" % e)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(export_file):
            os.remove(export_file)

    attempted, failed = ledger.counts(raw)
    if args.trace:
        values, notes = ledger.trace_metrics(raw)
        spec = ledger.per_layer_spec()
    else:
        values, notes = ledger.e2e_metrics(raw)
        spec = ledger.END_TO_END

    print("# perfbench %s seed=%d threads=%d filesystem=%s fsync=batch "
          "closed loop, one sweep at a time" % (
              args.workload, args.seed, threads, raw["filesystem"]))
    for name, unit, _ in spec:
        note = notes.get(name)
        print("# %s = %.6g %s%s" % (name, values[name], unit,
                                    " (%s)" % note if note else ""))
    print("# failed_unit_ratio = %.6g ratio (%d failed / %d attempted "
          "units)" % (ledger.ratio(failed, attempted), failed, attempted))
    print("# export_digest = %s" % digest)
    if trace_file:
        print("# trace = %s (%d spans)" % (trace_file, raw["trace_events"]))
    for p in problems:
        log("perfbench: CORRECTNESS: " + p)
    print(json.dumps(ledger.result(not problems, attempted, failed, values,
                                   spec)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
