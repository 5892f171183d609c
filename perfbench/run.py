#!/usr/bin/env python3
"""Run one perfbench workload for a fixed time and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload null-fusion --seed 0 --seconds 30 --trace 0

Builds perfbench/main.go, then runs it in fresh processes, one iteration
each, until --seconds have passed. Every iteration regenerates the four
industrial subjects from --seed, compiles them (set-up) and analyses them
with the workload's engine and checkers. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, each the median over the
iterations; with --trace 1 they are the per-layer ones from traced
iterations. Artifacts (the full result with its stamp, and for traced
runs a Perfetto trace and the per-layer ledger) go to
.bench_out/<workload>/seed-<n>/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("null-fusion", "null-pinpoint", "value-fusion")

END_TO_END = {
    "setup_s": "s",
    "analysis_cpu_s": "s",
    "peak_rss_mb": "MiB",
    "cond_mb": "MiB",
}

PER_LAYER = {
    "lang.parse_s": "s",
    "sema.check_s": "s",
    "unroll.normalize_s": "s",
    "ssa.build_s": "s",
    "pdg.build_s": "s",
    "pdg.vertices": "count",
    "pdg.edges": "count",
    "driver.alloc_mb": "MiB",
    "absint.build_s": "s",
    "absint.alloc_mb": "MiB",
    "absint.decided": "count",
    "sparse.pruned": "count",
    "sparse.enumerate_s": "s",
    "sparse.candidates": "count",
    "fusioncore.build_s": "s",
    "fusioncore.local_preprocess_s": "s",
    "fusioncore.simplified": "count",
    "solver.probe_s": "s",
    "sat.search_s": "s",
    "sat.conflicts": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "smt.preprocess_s": "s",
    "solver.preprocessed": "count",
    "engines.unattributed_s": "s",
    "engines.unattributed_share": "share",
    "solver.session_cache_hits": "count",
    "solver.reused_clauses": "count",
    "engines.check_s": "s",
    "engines.cand_p50_ms": "ms",
    "engines.cand_p90_ms": "ms",
    "engines.alloc_mb": "MiB",
    "runtime.gc_cpu_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between two traced iterations of one
# seed; cond_mb is read off the iteration result, the rest off its layers.
DETERMINISTIC = (
    "sat.conflicts", "sat.decisions", "sat.propagations", "absint.decided",
    "sparse.pruned", "sparse.candidates", "pdg.vertices", "pdg.edges",
    "fusioncore.simplified", "cond_mb",
)

# The whole run must end within 180 s; leave room to stop a child.
RUN_LIMIT_S = 170.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root):
    """Builds the benchmark binary with every Go cache inside the checkout."""
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    base = os.path.join(out, "perfbench")
    home = os.path.join(base, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(base, "gocache"),
        "GOPATH": os.path.join(base, "gopath"),
        "GOMODCACHE": os.path.join(base, "gopath", "mod"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, "config"),
        "XDG_CACHE_HOME": os.path.join(home, "cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    os.makedirs(home, exist_ok=True)
    binary = os.path.join(base, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."],
                          cwd=os.path.join(root, "perfbench"), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=850)
    if proc.returncode != 0:
        raise RuntimeError("build failed:\n" + proc.stdout)
    return binary


def iterate(binary, workload, seed, traced, trace_file, deadline):
    """Runs one iteration in a fresh process and returns its result."""
    cmd = [binary, "-workload", workload, "-seed", str(seed)]
    if traced:
        cmd.append("-trace")
        if trace_file:
            cmd += ["-trace-file", trace_file]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("iteration failed (exit %d): %s" % (proc.returncode, err.strip()))
    return json.loads(out.strip().splitlines()[-1])


def percentile(xs, q):
    """Interpolates linearly between the closest ranks."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i + 1 >= len(xs):
        return xs[-1]
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def stamp(root):
    """Identifies the code measured: commit when in git, and a digest of the sources."""
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    paths = [os.path.join(root, "go.mod")]
    for top in ("internal", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            paths += [os.path.join(dirpath, n) for n in filenames if n.endswith((".go", ".mod"))]
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return {"commit": commit, "source_sha256": h.hexdigest(), "nproc": os.cpu_count()}


def check_sinks(outdir, workload, seed, digest, sinks):
    """Compares the reported sink set with the other null-deref engine's on the same seed.

    Each null-* run records its sinks; when the sibling's record for the
    same seed and sources exists, the two must be identical.
    """
    if not workload.startswith("null-"):
        return True
    d = os.path.join(outdir, "sinks", "seed-%d" % seed)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, workload + ".json"), "w") as f:
        json.dump({"source_sha256": digest, "sinks": sinks}, f)
    other = "null-pinpoint" if workload == "null-fusion" else "null-fusion"
    path = os.path.join(d, other + ".json")
    if not os.path.isfile(path):
        return True
    with open(path) as f:
        rec = json.load(f)
    if rec["source_sha256"] != digest or rec["sinks"] == sinks:
        return True
    log("%s and %s report different sink sets on seed %d: only %s: %s; only %s: %s" % (
        workload, other, seed,
        workload, sorted(set(sinks) - set(rec["sinks"])),
        other, sorted(set(rec["sinks"]) - set(sinks))))
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    st = stamp(root)
    outdir = os.path.join(root, ".bench_out")
    rundir = os.path.join(outdir, args.workload, "seed-%d" % args.seed)
    os.makedirs(rundir, exist_ok=True)

    # The measured window starts after the build.
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    traced, untraced = [], []
    while True:
        t = time.monotonic()
        if args.trace:
            # Traced and untraced iterations alternate: two traced ones for
            # the determinism check, an untraced one for the overhead.
            want_traced = len(traced) <= len(untraced)
            tf = os.path.join(rundir, "trace.json") if not traced else ""
            r = iterate(binary, args.workload, args.seed, want_traced, tf, deadline)
            (traced if want_traced else untraced).append(r)
            done = len(traced) >= 2 and len(untraced) >= 1
        else:
            untraced.append(iterate(binary, args.workload, args.seed, False, "", deadline))
            done = len(untraced) >= 2
        now = time.monotonic()
        if done and (now - t0 >= args.seconds or now + (now - t) > deadline):
            break

    iters = traced + untraced
    first = iters[0]
    correct = all(r["verdict_errors"] == 0 for r in iters)
    if any(r["sinks"] != first["sinks"] for r in iters):
        log("reported sink sets differ between iterations of one seed")
        correct = False
    correct = check_sinks(outdir, args.workload, args.seed, st["source_sha256"], first["sinks"]) and correct
    attempted = sum(r["candidates"] for r in iters)
    failed = sum(r["failed"] for r in iters)
    st.update({"go_version": first["go_version"], "gomaxprocs": first["gomaxprocs"]})

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    def latency(rs, q):
        # Taken over every decision of the given iterations.
        return percentile([x for r in rs for x in r["latencies_ms"]], q)

    summary = {"workload": args.workload, "seed": args.seed, "stamp": st,
               "iterations": iters, "verdict_errors": sum(r["verdict_errors"] for r in iters),
               "failed_share": failed / attempted, "candidates": first["candidates"],
               "cand_p50_ms": latency(untraced, 0.5), "cand_p90_ms": latency(untraced, 0.9)}
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["engines.unattributed_share"] = (
            layers["engines.unattributed_s"] / layers["engines.check_s"]
            if layers["engines.check_s"] > 0 else 0.0)
        layers["trace.overhead_s"] = med(traced, "analysis_wall_s") - med(untraced, "analysis_wall_s")
        layers["engines.cand_p50_ms"] = summary["cand_p50_ms"]
        layers["engines.cand_p90_ms"] = summary["cand_p90_ms"]
        a, b = traced[0], traced[1]
        differs = [k for k in DETERMINISTIC
                   if json.dumps(a.get(k, a["layers"].get(k))) != json.dumps(b.get(k, b["layers"].get(k)))]
        for k in differs:
            log("count %s differs between two traced iterations" % k)
        ledger = {
            "workload": args.workload, "seed": args.seed, "stamp": st,
            "layers": layers, "units": PER_LAYER,
            "bases": {"absint.decided": "sparse.candidates", "sparse.pruned": "sparse.candidates",
                      "engines.unattributed_s": "engines.check_s"},
            "tracing_overhead": {"traced_analysis_wall_s": med(traced, "analysis_wall_s"),
                                 "untraced_analysis_wall_s": med(untraced, "analysis_wall_s")},
            "determinism": {"checked": list(DETERMINISTIC), "differs": differs},
        }
        with open(os.path.join(rundir, "layers.json"), "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": med(iters, k), "unit": u} for k, u in END_TO_END.items()}
    summary["metrics"] = metrics
    with open(os.path.join(rundir, "result-trace%d.json" % args.trace), "w") as f:
        json.dump(summary, f, indent=1)
    log("%s seed %d: %d iteration(s), %d candidates, verdict_errors %d, failed_share %.4f, commit %s, %s, GOMAXPROCS %d, nproc %s" % (
        args.workload, args.seed, len(iters), first["candidates"], summary["verdict_errors"],
        summary["failed_share"], st["commit"], st["go_version"], st["gomaxprocs"], st["nproc"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(str(e))
        sys.exit(1)
