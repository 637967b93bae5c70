#!/usr/bin/env python3
"""Same-host benchmark of zonalhist: zonal jobs end to end, layers traced.

Run from the repository root:

    python3 perfbench/run.py --workload hist_block_bq --seed 1 \
        --seconds 12 --trace 0

It builds the library, `zhist` and `zh_perfbench` under .bench_build/,
generates the workload's inputs from the seed, measures for the given
seconds, checks every output bit for bit against the per-cell oracle
(zonal_scanline), and prints one JSON object as its last stdout line.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run; `--workload all` runs every workload in turn.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "zonalhist")
DRIVER_BUILD = os.path.join(BUILD, "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"

SETUP_REPS = 3        # set-ups per run; setup_s is their median
MIN_JOBS = 3          # a job workload runs at least this many jobs
TRACED_REPLAYS = 3    # traced replays per traced job run
PROBE_MAX_MB = 512    # cap on each copy-probe array (MiB)

# Job workloads: the zhist command line for work directory `d`. Tile and
# bin values match the constants in driver.cpp.
JOBS = {
    "hist_block_bq": lambda d, out, ranks: [
        "hist", f"{d}/block.bq", f"{d}/zones.tsv", "-o", out,
        "--bins", "5000", "--tile", "360"],
    "catalog_conus_s30": lambda d, out, ranks: [
        "catalog", f"{d}/catalog", "-o", out, "--bins", "1000",
        "--tile", "12"],
    "cluster_journal": lambda d, out, ranks: [
        "hist", f"{d}/conus6.zgrid", f"{d}/zones.tsv", "-o", out,
        "--bins", "1000", "--tile", "12", "--ranks", str(ranks),
        "--partitions", "2x4", "--checkpoint-dir", f"{out}.journal"],
}
WORKLOADS = ["hist_block_bq", "catalog_conus_s30", "query_mix_s30",
             "cluster_journal"]

END_TO_END = [
    ("mcells_per_s", "Mcells/s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("io.read_raster_s", "s"), ("io.read_raster_mb_s", "MB/s"),
    ("io.parse_zones_s", "s"), ("io.write_csv_s", "s"),
    ("io.csv_rows", "count"),
    ("bqtree.decode_s", "s"), ("bqtree.cells_decoded", "count"),
    ("bqtree.decode_mcells_s", "Mcells/s"), ("bqtree.bytes_in", "B"),
    ("bqtree.bw_frac", "ratio"), ("bqtree.par_speedup", "x"),
    ("step1.s", "s"), ("step1.cells", "count"),
    ("step1.mcells_s", "Mcells/s"), ("step1.table_mb", "MB"),
    ("step1.bw_frac", "ratio"), ("step1.par_speedup", "x"),
    ("step2.s", "s"), ("step2.candidate_pairs", "count"),
    ("step2.kept_ratio", "ratio"),
    ("step3.s", "s"), ("step3.bin_adds", "count"),
    ("step3.gadds_s", "Gadds/s"),
    ("step4.s", "s"), ("step4.cell_tests", "count"),
    ("step4.edge_tests", "count"), ("step4.edge_tests_per_cell", "ratio"),
    ("step4.rows_scanned", "count"), ("step4.inside_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"), ("cache.fills", "count"),
    ("cache.evictions", "count"), ("cache.resident_mb", "MB"),
    ("query.cells_filled", "count"),
    ("cluster.partitions", "count"), ("cluster.comm_bytes", "B"),
    ("cluster.rank_imbalance", "ratio"), ("cluster.retries", "count"),
    ("journal.records", "count"), ("journal.bytes", "B"),
    ("journal.record_s", "s"),
    ("host.copy_gbs", "GB/s"), ("host.copy_array_mb", "MB"),
    ("host.llc_mb", "MB"),
    ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def run_quiet(cmd, logfile):
    with open(logfile, "ab") as f:
        rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(logfile, "rb") as f:
            tail = f.read()[-3000:].decode(errors="replace")
        fail(f"command failed ({rc}): {' '.join(cmd)}\n{tail}")


def build():
    """Build the library and zhist with the repository's own build file,
    then zh_perfbench against it."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "zh.hpp"))):
        fail(f"no zonalhist sources next to {BENCH_DIR}", 2)
    # Compilers keep their temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DZH_BUILD_TESTS=OFF",
                   "-DZH_BUILD_BENCH=OFF", "-DZH_BUILD_EXAMPLES=OFF"],
                  logfile)
    run_quiet(["cmake", "--build", LIB_BUILD, "--target", "zhist",
               "-j", jobs], logfile)
    if not os.path.isfile(os.path.join(DRIVER_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", DRIVER_BUILD,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                   f"-DZH_BUILD_DIR={LIB_BUILD}"], logfile)
    run_quiet(["cmake", "--build", DRIVER_BUILD, "-j", jobs], logfile)
    zhist = os.path.join(LIB_BUILD, "tools", "zhist")
    driver = os.path.join(DRIVER_BUILD, "zh_perfbench")
    for exe in (zhist, driver):
        if not os.access(exe, os.X_OK):
            fail(f"build produced no {exe}")
    return zhist, driver


def llc_bytes():
    """Largest cache size sysfs reports for cpu0 (the last-level cache)."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "size")) as f:
                text = f.read().strip()
        except OSError:
            continue
        m = re.fullmatch(r"(\d+)([KMG]?)", text)
        if m:
            scale = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            best = max(best, int(m.group(1)) * scale[m.group(2)])
    return best


def fingerprint():
    """CPU model, nproc, compiler, build type and LLC size of this host."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    with open(os.path.join(LIB_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                out = subprocess.run([path, "--version"],
                                     capture_output=True, text=True)
                lines = out.stdout.splitlines()
                compiler = lines[0] if lines else path
    return {"cpu": cpu, "nproc": os.cpu_count() or 1, "compiler": compiler,
            "build_type": BUILD_TYPE, "llc_bytes": llc_bytes()}


def last_json(text):
    lines = [ln for ln in text.strip().splitlines() if ln.startswith("{")]
    if not lines:
        raise ValueError("no JSON line in output")
    return json.loads(lines[-1])


def run_driver(driver, args):
    p = subprocess.run([driver] + args, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"zh_perfbench {' '.join(args)} exited {p.returncode}:\n"
             f"{p.stderr[-3000:]}")
    return last_json(p.stdout)


def timed_process(argv, stdout_path, stderr_path):
    """Spawn, wait; return (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=so, stderr=se)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage.ru_maxrss / 1024.0


def same_file(path, oracle_bytes):
    try:
        with open(path, "rb") as f:
            return f.read() == oracle_bytes
    except OSError:
        return False


def remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


class Tally:
    """Operations attempted and failed; every failure is printed."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED {self.workload} seed {self.seed}: {what}")


def job_loop(zhist, workload, work, seconds, oracle, tally, ranks):
    """Closed loop of zhist jobs, one client, for `seconds`."""
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_JOBS:
        out = os.path.join(work, f"job{i}.csv")
        err = os.path.join(work, "job.stderr")
        argv = [zhist] + JOBS[workload](work, out, ranks)
        rc, wall, peak = timed_process(argv, os.devnull, err)
        ok = rc == 0 and same_file(out, oracle)
        if rc != 0:
            with open(err, "rb") as f:
                what = f"job {i} exited {rc}: " + \
                    f.read()[-500:].decode(errors="replace")
        else:
            what = f"job {i} output differs from the oracle"
        tally.record(ok, what)
        if ok:
            walls.append(wall)
            rss.append(peak)
        remove(out)
        remove(f"{out}.journal")
        i += 1
    return walls, rss


def end_to_end(latencies, cells, setup, rss):
    if not latencies:
        return None
    rates = [c / s / 1e6 for c, s in zip(cells, latencies)]
    return {
        "mcells_per_s": statistics.median(rates),
        "ops_per_s": len(latencies) / sum(latencies),
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * quantile(latencies, 0.90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def probe_host(driver, fp):
    llc_mb = fp["llc_bytes"] / (1 << 20)
    array_mb = int(min(max(4 * llc_mb, 64), PROBE_MAX_MB))
    res = run_driver(driver, ["probe", "--mb", str(array_mb)])
    return {"host.copy_gbs": res["copy_gbs"],
            "host.copy_array_mb": res["array_mb"],
            "host.llc_mb": fp["llc_bytes"] / 1e6}


def bw_fracs(metrics, copy_gbs):
    """Computed bytes moved per layer second, over the copy bandwidth."""
    for layer, secs in (("bqtree", "bqtree.decode_s"), ("step1", "step1.s")):
        moved = metrics.pop(f"bytes_moved.{layer}", 0.0)
        t = metrics.get(secs, 0.0)
        metrics[f"{layer}.bw_frac"] = \
            moved / t / (copy_gbs * 1e9) if t > 0 and copy_gbs > 0 else 0.0


def run_job_workload(args, zhist, driver, fp, work, tally):
    reps = 1 if args.trace else SETUP_REPS
    prep = run_driver(driver, ["prepare", "--workload", args.workload,
                               "--seed", str(args.seed), "--dir", work,
                               "--reps", str(reps)])
    with open(os.path.join(work, "oracle.csv"), "rb") as f:
        oracle = f.read()
    ranks = min(4, fp["nproc"])
    seconds = args.seconds / 2 if args.trace else args.seconds
    walls, rss = job_loop(zhist, args.workload, work, seconds, oracle, tally,
                          ranks)
    log(f"{args.workload}: {len(walls)} jobs, {prep['cells']:.0f} cells, "
        f"{prep['zones']:.0f} zones, set-ups {prep['setup_s']}")
    if not args.trace:
        return end_to_end(walls, [prep["cells"]] * len(walls),
                          prep["setup_s"],
                          statistics.median(rss) if rss else 0.0)

    # Traced run: replays of the job's layer calls in zh_perfbench, timed
    # from outside like the jobs, each checked against the oracle.
    per_metric, coverage, traced = {}, [], []
    spans = os.path.join(OUT, f"{args.workload}-{args.seed}-spans.json")
    for i in range(TRACED_REPLAYS):
        out = os.path.join(work, f"trace{i}.csv")
        stdout_path = os.path.join(work, "trace.stdout")
        argv = [driver, "trace-job", "--workload", args.workload, "--dir",
                work, "--out", out, "--spans", spans]
        rc, wall, _ = timed_process(argv, stdout_path,
                                    os.path.join(work, "trace.stderr"))
        ok = rc == 0 and same_file(out, oracle)
        tally.record(ok, f"traced replay {i} exited {rc} or its output "
                         "differs from the oracle")
        remove(out)
        if not ok:
            continue
        with open(stdout_path) as f:
            res = last_json(f.read())
        traced.append(wall)
        coverage.append(res["top_level_s"] / wall)
        for k, v in res["metrics"].items():
            per_metric.setdefault(k, []).append(v)
    metrics = {k: statistics.median(v) for k, v in per_metric.items()}
    metrics["io.csv_rows"] = oracle.count(b"\n") - 1  # minus the header
    if coverage:
        metrics["trace.coverage"] = statistics.median(coverage)
    if traced and walls:
        metrics["trace.overhead_frac"] = \
            statistics.median(traced) / statistics.median(walls) - 1.0
    if args.workload == "hist_block_bq":
        par = run_driver(driver, ["parspeed", "--dir", work])
        metrics["bqtree.par_speedup"] = par["bqtree.par_speedup"]
        metrics["step1.par_speedup"] = par["step1.par_speedup"]
    return metrics


def run_query(args, driver, work, tally):
    """The query session runs inside zh_perfbench; peak RSS is that
    process's."""
    run_driver(driver, ["prepare", "--workload", args.workload, "--seed",
                        str(args.seed), "--dir", work])
    spans = os.path.join(OUT, f"{args.workload}-{args.seed}-spans.json")
    argv = [driver, "query", "--dir", work, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--reps", "1" if args.trace else str(SETUP_REPS),
            "--trace", str(args.trace), "--spans", spans]
    out_path = os.path.join(work, "query.stdout")
    err_path = os.path.join(work, "query.stderr")
    rc, _, peak = timed_process(argv, out_path, err_path)
    with open(err_path, "rb") as f:
        err = f.read().decode(errors="replace")
    sys.stderr.write(err)
    try:
        with open(out_path) as f:
            res = last_json(f.read())
    except ValueError:
        fail(f"query session exited {rc} without a result")
    tally.attempted += int(res["attempted"])
    tally.failed += int(res["failed"])
    lat = res["latency_s"]
    log(f"{args.workload}: {len(lat)} queries, set-ups {res['setup_s']}")
    if args.trace:
        return res["metrics"]
    return end_to_end(lat, res["cells"], res["setup_s"], peak)


def run_workload(args, zhist, driver, fp):
    """Run one workload; return the result object the benchmark prints."""
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally(args.workload, args.seed)
    try:
        if args.workload in JOBS:
            values = run_job_workload(args, zhist, driver, fp, work, tally)
        else:
            values = run_query(args, driver, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if values is None:
        fail("no operation succeeded; nothing to report")
    if args.trace:
        values.update(probe_host(driver, fp))
        bw_fracs(values, values["host.copy_gbs"])
        names = PER_LAYER
    else:
        names = END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=fp)
    with open(os.path.join(
            OUT, f"{args.workload}-{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    log(f"{args.workload}: failed_ratio {tally.failed}/{tally.attempted}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    zhist, driver = build()
    fp = fingerprint()
    log("host " + json.dumps(fp))
    os.makedirs(OUT, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_workload(args, zhist, driver, fp)))
        return
    for name in WORKLOADS:
        args.workload = name
        result = run_workload(args, zhist, driver, fp)
        print(json.dumps(dict(result, workload=name)), flush=True)


if __name__ == "__main__":
    main()
