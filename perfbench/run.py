#!/usr/bin/env python3
"""caba-perfbench: seeded throughput benchmark of the CABA simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig07 --seed 1 --seconds 20 --trace 0

It builds the simulator, the caba_sweepd daemon and the caba_perfbench
driver (perfbench.cc) into .bench_build/, runs one workload, checks
every result it produced, prints a summary of every metric with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md for both lists and what each should move).

    python3 perfbench/run.py --regen-golden

rewrites golden.json from the current build (do it only when a change
is meant to alter simulated results).
"""

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TMP = ROOT / ".bench_build" / "tmp"
BIN = BUILD / "bin"
GOLDEN = HERE / "golden.json"

# Per-workload simulation scale (Workload loop-trip multiplier). 0.1 is
# one or two loop trips per warp, the cheapest a cell can be.
# "trace_passes" sizes the traced run's pair of passes to a few seconds.
WORKLOADS = {
    "fig07": {"kind": "sim", "scale": 0.1, "trace_passes": 1},
    "algos": {"kind": "sim", "scale": 0.1, "trace_passes": 1},
    "low_occ": {"kind": "sim", "scale": 1.0, "trace_passes": 15},
    "warm": {"kind": "warm", "scale": 0.1},
}
SIM_WORKLOADS = [w for w, c in WORKLOADS.items() if c["kind"] == "sim"]
DEFAULT_SEED = 0x5EED  # Workload's own default seed (24301).
PROBE_SECONDS = 3.0
DAEMON_STARTS = 61
CHILD_TIMEOUT_S = 170

# Metric names and units come from BENCHMARK.json, the benchmark's
# contract; run.py computes exactly the metrics it lists.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def hermetic_env(extra=None):
    """The environment of every child: no CABA_* knob leaks in (scale,
    jobs, audit, trace, loop modes, cell cache, profiler)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CABA_")}
    env.update(extra or {})
    return env


def build():
    """Configures (once) and builds the benchmark's targets."""
    BUILD.mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    logf = BUILD / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
              "--target", "caba_perfbench", "caba_sweepd"]]
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=hermetic_env()).returncode != 0:
                out.flush()
                tail = logf.read_text(errors="replace").splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def run_child(args, env=None, cwd=None, preexec_fn=None):
    """Runs caba_perfbench with @p args; returns its JSON lines."""
    cmd = [str(BIN / "caba_perfbench")] + [str(a) for a in args]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env or hermetic_env(),
                       cwd=cwd, timeout=CHILD_TIMEOUT_S, text=True,
                       preexec_fn=preexec_fn)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {p.returncode}")
    return [json.loads(line) for line in p.stdout.splitlines() if line]


def quantile(values, q):
    """Nearest-rank quantile of @p values (q in [0, 1])."""
    v = sorted(values)
    return v[min(len(v) - 1, max(0, int(-(-q * len(v) // 1)) - 1))]


def ratio(num, den):
    return num / den if den else 0.0


def load_golden():
    if GOLDEN.exists():
        return json.loads(GOLDEN.read_text())
    return {"sim": {}, "warm": []}


# ---------------------------------------------------------------------------
# Simulation workloads


def row(cell):
    return [cell["app"], cell["design"], cell["cycles"], cell["instructions"]]


def check_cells(cells, pass_rows, golden_rows):
    """Counts the cells that fail a check. Every seed: clean end-of-run
    audit, instruction count equal to the kernel's static count, and
    every repeat of a cell identical to its first run. The seeds in
    golden.json: every row equal to its golden row."""
    failed = 0
    for c in cells:
        i = c["cell"] % len(pass_rows)
        bad = []
        if c["audit_failures"]:
            bad.append(f"{c['audit_failures']} audit failures")
        if c["instructions"] != c["static_instructions"]:
            bad.append(f"instructions {c['instructions']} != static "
                       f"{c['static_instructions']}")
        if row(c) != pass_rows[i]:
            bad.append(f"repeat differs: {row(c)} vs {pass_rows[i]}")
        if golden_rows is not None and row(c) != golden_rows[i]:
            bad.append(f"golden mismatch: {row(c)} vs {golden_rows[i]}")
        if bad:
            failed += 1
            log(f"cell {c['cell']} {c['app']}/{c['design']}: " + "; ".join(bad))
    return failed


def sim_cells(out):
    return [x for x in out if "cell" in x]


def pass_of(cells):
    """First-run rows of each position of the pass."""
    first = {}
    for c in cells:
        first.setdefault(c["app"] + "/" + c["design"], row(c))
    return list(first.values())


def sim_end_to_end(name, seed, seconds, golden):
    scale = WORKLOADS[name]["scale"]
    out = run_child(["sim", "--workload", name, "--seed", seed,
                     "--seconds", seconds, "--scale", scale])
    setups = out[0]["setup_pass_ns"]
    cells = sim_cells(out)
    rows = pass_of(cells)
    n = len(rows)
    failed = check_cells(cells, rows, golden)

    # Per position of the pass, the median over its repeats: every run
    # measures the same cells, however many passes fit.
    def per_position(key):
        runs = {}
        for c in cells:
            runs.setdefault(c["cell"] % n, []).append(key(c))
        return [statistics.median(runs[i]) for i in range(n)]

    cell_s = sum(per_position(lambda c: c["cell_ns"])) / 1e9
    run_s = sum(per_position(lambda c: c["run_ns"])) / 1e9
    cycles = sum(r[2] for r in rows)
    metrics = {
        "cells_per_s": n / cell_s,
        "sim_cycles_per_s": cycles / run_s,
        "setup_s": statistics.median(setups) / 1e9,
        "peak_rss_mb": out[-1]["peak_rss_kb"] / 1024,
    }
    info = {"cells": len(cells), "passes": len(cells) / n, "pass_cells": n,
            "setup_passes": len(setups)}
    return metrics, len(cells), failed, info


def prof_buckets(path):
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "caba-prof-v1":
        fail(f"{path}: not a caba-prof-v1 document")
    return {(e["component"], e["phase"]): (e["ns"], e["calls"])
            for e in doc["entries"]}


def sim_per_layer(name, seed, golden):
    scale = WORKLOADS[name]["scale"]
    args = ["sim", "--workload", name, "--seed", seed, "--passes",
            WORKLOADS[name]["trace_passes"], "--scale", scale]
    plain = sim_cells(run_child(args))
    prof_path = TMP / f"prof-{os.getpid()}.json"
    traced = sim_cells(run_child(args, env=hermetic_env(
        {"CABA_PROF": str(prof_path)})))
    b = prof_buckets(prof_path)
    prof_path.unlink()
    probe = run_child(["probe", "--workload", name, "--seed", seed,
                       "--seconds", PROBE_SECONDS, "--scale", scale])[0]

    failed = check_cells(plain, pass_of(plain), golden)
    # The traced run must simulate exactly what the untraced one did.
    failed += abs(len(plain) - len(traced))
    for p, t in zip(plain, traced):
        if row(p) != row(t):
            failed += 1
            log(f"traced cell {t['cell']} differs: {row(t)} vs {row(p)}")

    def ns(comp, phases=("cycle", "catch_up", "jump")):
        return sum(b[(comp, ph)][0] for ph in phases)

    def calls(comp, phase="cycle"):
        return b[(comp, phase)][1]

    comps = ["sm", "xbar_req", "xbar_reply", "partition", "wire", "loop"]
    # Every bucket but loop/cycle is exclusive; loop/cycle is the whole
    # run() loop, so the loop's own time is the residual.
    exclusive = sum(ns(c) for c in comps) - b[("loop", "cycle")][0]
    span = sum(c["run_ns"] for c in traced)  # GpuSystem::run, traced
    xbar_ns = ns("xbar_req") + ns("xbar_reply")
    xbar_cycles = calls("xbar_req") + calls("xbar_reply")
    k = {key: sum(c["counters"][key] for c in plain)
         for key in plain[0]["counters"]}
    l2 = k["l2_hits"] + k["l2_misses"]
    md = k["md_hits"] + k["md_misses"]
    row_total = probe["dram_row_hits"] + probe["dram_row_misses"]
    m = {name: 0 for name, _ in PER_LAYER}  # the warm-only layers stay 0
    m.update({
        "workloads.build_ms": statistics.median(c["build_ns"] for c in plain) / 1e6,
        "gpu.construct_ms": statistics.median(c["construct_ns"] for c in plain) / 1e6,
        "gpu.launch_ms": statistics.median(c["launch_ns"] for c in plain) / 1e6,
        "gpu.run_ns_per_cycle": ratio(sum(c["run_ns"] for c in plain),
                                      sum(c["cycles"] for c in plain)),
        "gpu.trace_overhead": span / sum(c["run_ns"] for c in plain) - 1,
        "gpu.prof_coverage": ratio(b[("loop", "cycle")][0], span),
        "sim.sm.ns_per_cycle": ratio(ns("sm"), calls("sm")),
        "sim.sm.share": ratio(ns("sm"), span),
        "sim.sm.cycles": calls("sm"),
        "mem.partition.ns_per_cycle": ratio(ns("partition"), calls("partition")),
        "mem.partition.share": ratio(ns("partition"), span),
        "mem.partition.cycles": calls("partition"),
        "mem.xbar.ns_per_cycle": ratio(xbar_ns, xbar_cycles),
        "mem.xbar.share": ratio(xbar_ns, span),
        "mem.xbar.cycles": xbar_cycles,
        "gpu.wire.share": ratio(ns("wire"), span),
        "gpu.jump.share": ratio(b[("loop", "jump")][0], span),
        "gpu.loop_self.share": ratio(b[("loop", "cycle")][0] - exclusive, span),
        "gpu.jumps": calls("loop", "jump"),
        "mem.model.lookup_ns": probe["model_lookup_ns"],
        "mem.model.memo_hit_ratio": 1 - ratio(probe["model_lines_compressed"],
                                              probe["model_lookups"]),
        "mem.model.lookups": probe["model_lookups"],
        "mem.dram.ns_per_cycle": probe["dram_ns_per_cycle"],
        "mem.dram.probe_row_hit_ratio": ratio(probe["dram_row_hits"], row_total),
        "mem.dram.probe_reads": probe["lines"],
        "sim.instructions": sum(c["instructions"] for c in plain),
        "caba.assist_instructions": k["sm_assist_instructions"],
        "caba.awt_reject_ratio": ratio(k["awc_awt_full_rejections"],
                                       k["awc_triggers"]),
        "caba.awt_triggers": k["awc_triggers"],
        "mem.l2.hit_ratio": ratio(k["l2_hits"], l2),
        "mem.l2.accesses": l2,
        "mem.md.hit_ratio": ratio(k["md_hits"], md),
        "mem.md.lookups": md,
        "mem.dram.queue_wait_per_read": ratio(k["dram_queue_wait_cycles"],
                                              k["dram_reads"]),
        "mem.dram.queue_wait_per_read_p50": statistics.median(
            ratio(c["counters"]["dram_queue_wait_cycles"],
                  c["counters"]["dram_reads"]) for c in plain),
        "mem.dram.reads": k["dram_reads"],
        "mem.dram.idle_scan_ratio": ratio(k["dram_sched_no_eligible"],
                                          calls("partition")),
        "mem.model.lines_compressed": k["model_lines_compressed"],
    })
    for algo in ("bdi", "fpc", "cpack"):
        for op in ("compress", "decompress"):
            m[f"compress.{algo}.{op}_mb_s"] = probe[f"{algo}_{op}_mb_s"]
    info = {"cells": len(plain) + len(traced)}
    return m, len(plain) + len(traced), failed, info


# ---------------------------------------------------------------------------
# The warm workload: a running caba_sweepd serving cached cells


def vm_hwm_kb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def warm_cpu():
    """The one CPU the warm client and the primed daemon share. In a
    closed loop only one of them works at a time, and sharing a CPU
    keeps cross-CPU wake-ups (costly and erratic in a VM) out of every
    round trip."""
    return {max(os.sched_getaffinity(0))}


def pin_warm():
    os.sched_setaffinity(0, warm_cpu())


def pin_threads(pid, cpus):
    """Pins every thread of process @p pid to @p cpus. Threads it
    starts later inherit the pin."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), cpus)


class Daemon:
    """caba_sweepd on a socket in TMP (a relative path, so the socket
    address stays short however deep the checkout is)."""

    def __init__(self, sock):
        self.sock = sock
        self.proc = None

    def start(self):
        """Starts the daemon on the warm CPU; returns the seconds from
        its exec until it accepts a connection. This process polls from
        the other CPUs without sleeping, so the figure is the daemon's
        own start-up and not the polling interval."""
        (TMP / self.sock).unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [str(BIN / "caba_sweepd"), "--socket", self.sock], cwd=TMP,
            env=hermetic_env(), preexec_fn=pin_warm,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        t0 = time.perf_counter()  # Popen returns once the exec is done
        cwd = os.getcwd()
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, (cpus - warm_cpu()) or cpus)
        os.chdir(TMP)
        try:
            while True:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    try:
                        s.connect(self.sock)
                        return time.perf_counter() - t0
                    except OSError:
                        pass
                if self.proc.poll() is not None:
                    fail("caba_sweepd exited during start-up")
                if time.perf_counter() - t0 > 30:
                    fail("caba_sweepd did not start within 30 s")
        finally:
            os.chdir(cwd)
            os.sched_setaffinity(0, cpus)

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def warm_run(seed, seconds):
    """Set-up (median of DAEMON_STARTS daemon starts; the last one
    serves), prime on every CPU, then the closed loop on one CPU
    (skipped when @p seconds is None). Returns the prime line, the
    client's lines, the set-up samples and the daemon's peak RSS."""
    d = Daemon(f"sweepd-{os.getpid()}.sock")
    scale = WORKLOADS["warm"]["scale"]
    cpus = os.sched_getaffinity(0)
    starts = []
    out = []
    try:
        for i in range(DAEMON_STARTS):
            starts.append(d.start())
            if i + 1 < DAEMON_STARTS:
                d.stop()
        pin_threads(d.proc.pid, cpus)
        prime = run_child(["prime", "--socket", d.sock, "--scale", scale],
                          cwd=TMP)[0]
        if seconds is not None:
            pin_threads(d.proc.pid, warm_cpu())
            out = run_child(["warm", "--socket", d.sock, "--seed", seed,
                             "--seconds", seconds, "--scale", scale],
                            cwd=TMP, preexec_fn=pin_warm)
        daemon_kb = vm_hwm_kb(d.proc.pid)
    finally:
        d.stop()
        (TMP / d.sock).unlink(missing_ok=True)
    return prime, out, starts, daemon_kb


def check_warm(prime, reqs, golden):
    """A request fails unless it was served entirely from the cache and
    every row equals the primed grid's golden row."""
    grid = {(r[0], r[1]): r for r in golden}
    failed = 0
    if ([list(r) for r in prime["prime_rows"]] != golden or
            prime["prime_simulations"] != len(golden)):
        failed += 1
        log("primed grid differs from golden.json or was not simulated cold")
    for r in reqs:
        want = sorted([a, d] for a in r["apps"] for d in r["designs"])
        got = sorted([x[0], x[1]] for x in r["rows"])
        bad = (not r["ok"] or r["simulations"] != 0 or
               r["cache_served"] != r["cells"] or got != want or
               any(list(x) != grid.get((x[0], x[1])) for x in r["rows"]))
        if bad:
            failed += 1
            log(f"request {r['request']} failed its checks")
    return failed


def warm_metrics(seed, seconds, golden, trace):
    prime, out, starts, daemon_kb = warm_run(seed, seconds)
    reqs = [x for x in out if "request" in x]
    failed = check_warm(prime, reqs, golden)
    attempted = len(reqs) + 1
    rtt_ms = [r["rtt_ns"] / 1e6 for r in reqs]
    cells = sum(r["cells"] for r in reqs)
    info = {"requests": len(reqs), "daemon_starts": len(starts),
            "kinds": {k: sum(r["kind"] == k for r in reqs)
                      for k in ("experiment", "grid", "subset")}}
    if not trace:
        served_cycles = sum(x[2] for r in reqs for x in r["rows"])
        return {
            "cells_per_s": cells / (sum(rtt_ms) / 1e3),
            "sim_cycles_per_s": served_cycles / (sum(rtt_ms) / 1e3),
            "setup_s": statistics.median(starts),
            "peak_rss_mb": (out[-1]["peak_rss_kb"] + daemon_kb) / 1024,
        }, attempted, failed, info
    server = statistics.mean(r["server_ms"] for r in reqs)
    m = {name: 0 for name, _ in PER_LAYER}  # nothing is simulated
    m.update({
        "harness.req_p50_ms": statistics.median(rtt_ms),
        "harness.req_p99_ms": quantile(rtt_ms, 0.99),
        "harness.grid_req_p50_ms": statistics.median(
            r["rtt_ns"] / 1e6 for r in reqs if r["kind"] != "subset"),
        "harness.server_ms": server,
        "sweepd.transport_ms": statistics.mean(rtt_ms) - server,
        "harness.cache_served_ratio": ratio(sum(r["cache_served"] for r in reqs),
                                            cells),
        "harness.cells_requested": cells,
        "harness.payload_kb": statistics.mean(r["payload_bytes"] for r in reqs) / 1024,
    })
    return m, attempted, failed, info


# ---------------------------------------------------------------------------


def record(args):
    """Commit, build type and host of this result."""
    commit = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = p.stdout.strip() or None
    build_type = None
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    cpu = None
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "build_type": build_type, "nproc": os.cpu_count(), "cpu": cpu,
            "machine": platform.machine()}


def regen_golden():
    """Rewrites golden.json: rows of one pass of every simulation
    workload for each seed in `seeds`, plus the warm grid."""
    seeds = [DEFAULT_SEED] + list(range(32))
    jobs = [(s, w) for s in seeds for w in SIM_WORKLOADS]

    def one(job):
        s, w = job
        return job, [row(c) for c in sim_cells(run_child(
            ["sim", "--workload", w, "--seed", s, "--passes", 1,
             "--scale", WORKLOADS[w]["scale"]]))]

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = dict(pool.map(one, jobs))
    sim = {str(s): {w: results[(s, w)] for w in SIM_WORKLOADS} for s in seeds}
    prime, _, _, _ = warm_run(DEFAULT_SEED, None)
    doc = {"schema": "caba-perfbench-golden-v1",
           "scales": {w: c["scale"] for w, c in WORKLOADS.items()},
           "sim": sim, "warm": prime["prime_rows"]}
    GOLDEN.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    log(f"wrote {GOLDEN} ({len(seeds)} seeds)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-golden", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    build()
    if args.regen_golden:
        regen_golden()
        return
    if args.workload is None:
        ap.error("--workload is required")

    golden = load_golden()
    if WORKLOADS[args.workload]["kind"] == "warm":
        g = golden["warm"]
        metrics, attempted, failed, info = warm_metrics(
            args.seed, args.seconds, g, args.trace)
    else:
        g = golden["sim"].get(str(args.seed), {}).get(args.workload)
        if args.trace:
            metrics, attempted, failed, info = sim_per_layer(
                args.workload, args.seed, g)
        else:
            metrics, attempted, failed, info = sim_end_to_end(
                args.workload, args.seed, args.seconds, g)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"record": record(args), "info": info,
                      "golden_checked": g is not None,
                      "failed_frac": failed / attempted}))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
