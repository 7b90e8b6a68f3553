#!/usr/bin/env python3
"""Galactos benchmark suite runner (see README.md).

  python3 perfsuite/run_benchmark.py [--seed S] [--out DIR] [--smoke]
      Every workload, each in its own process with tracing off and then once
      more with tracing on. Prints every metric as `workload metric value
      unit` and writes DIR/results.json (default build/bench-out/).
  python3 perfsuite/run_benchmark.py --workload W [--seed S] [--seconds T]
                                     [--trace 0|1]
      One workload. The last stdout line is one JSON object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.
  python3 perfsuite/run_benchmark.py compare A.json B.json
      Applies the BENCHMARK.json bounds to two results.json files.

Metric names, units, directions and bounds come from BENCHMARK.json. The
measuring program (suite.cpp) is built from source into .bench_build/.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "perfsuite"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that must repeat exactly between runs of one seed.
EXACT = ["engine.pairs", "engine.candidates", "dist.pair_imbalance",
         "dist.halo_bytes"]


def fail(msg):
    print(f"run_benchmark: error: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def call(cmd, timeout):
    """Runs cmd, forwarding its stderr; returns stdout. Exits on failure."""
    try:
        p = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {cmd[0]} {cmd[1]}")
    if p.returncode != 0:
        fail(f"exit code {p.returncode}: {' '.join(map(str, cmd))}")
    return p.stdout


def build():
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed (the library sources must sit beside "
                 "perfsuite/)")
    cmd = ["cmake", "--build", BUILD, "--target", "perfsuite", "-j",
           str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode != 0:
        fail("build failed")


def measure(workload, seed, seconds, trace, out, smoke):
    """Generates the workload's catalogs, then measures them in one process."""
    data = out / "data" / workload
    data.mkdir(parents=True, exist_ok=True)
    flags = ["--smoke"] if smoke else []
    call([EXE, "gen", "--workload", workload, "--seed", seed, "--dir", data,
          *flags], timeout=120)
    cmd = [EXE, "run", "--workload", workload, "--dir", data, "--seconds",
           seconds, *flags]
    if trace:
        cmd += ["--trace", out / f"trace_{workload}.json"]
    return json.loads(call(cmd, timeout=170))


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def end_to_end(raw):
    s = raw["samples"]
    return {
        "wall_s": summary(s["wall_s"]),
        "pairs_per_s": summary([p / w for p, w in zip(s["pairs"],
                                                      s["wall_s"])]),
        "setup_s": summary(s["setup_s"]),
        "cpu_s": summary(s["cpu_s"]),
        "peak_rss_mb": summary([raw["peak_rss_mb"]]),
    }


def per_layer(raw):
    s = raw["samples"]
    med = {k: statistics.median(v) for k, v in s.items()}
    one_pass = raw["catalogs"]  # samples of the first pass: exact counts
    m = {
        "io.read_s": med["read_s"],
        "io.bytes": med["io_bytes"],
        "index.build_s": med["build_s"],
        "batch.wall_p90_s": (statistics.quantiles(s["wall_s"], n=10)[-1]
                             if len(s["wall_s"]) > 1 else s["wall_s"][0]),
        "trace.overhead_frac": raw["trace_overhead_frac"],
        "kernel.bucket_gflops": raw["bucket_gflops"],
        "verify.zeta_rel_err": raw["zeta_rel_err"],
        "engine.pairs": sum(s["pairs"][:one_pass]),
    }
    # The rank pipeline does not expose the engine split, so on the
    # distributed workload it comes from the single-node reference run of
    # the same catalog.
    eng = raw.get("engine_ref") or med
    for k in ("traverse_s", "query_s", "kernel_s", "zeta_s", "merge_s",
              "unattributed_s", "kernel_gflops"):
        m["engine." + k] = eng[k]
    m["engine.candidates"] = (eng["candidates"] if "engine_ref" in raw
                              else sum(s["candidates"][:one_pass]))
    m["engine.candidate_ratio"] = m["engine.candidates"] / m["engine.pairs"]
    m["kernel.efficiency"] = m["engine.kernel_gflops"] / (
        raw["threads"] * m["kernel.bucket_gflops"])
    # Shares of the dist.run_distributed span; a single-node workload is one
    # rank that never partitions, exchanges halos or reduces.
    dist = {"partition_frac": 0.0, "halo_wait_frac": 0.0,
            "owned_pass_frac": 0.0, "secondary_pass_frac": 0.0,
            "reduce_frac": 0.0, "straggler_frac": 0.0, "halo_hidden_frac": 0.0,
            "pair_imbalance": 1.0, "halo_bytes": 0.0, "wire_bytes": 0.0,
            "held_over_owned": 1.0}
    for k, single_node in dist.items():
        m["dist." + k] = med.get(k, single_node)
    return {k: {"value": v} for k, v in m.items()}


def select(metrics, declared):
    """The declared metrics, with their declared units."""
    out = {}
    for d in declared:
        if d["name"] not in metrics:
            fail(f"metric {d['name']} was not measured")
        out[d["name"]] = dict(metrics[d["name"]], unit=d["unit"])
    return out


def finite(metrics):
    return all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in metrics.values())


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def run_one(args):
    """One workload, one mode, one result line."""
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload} ({', '.join(WORKLOADS)})")
    build()
    raw = measure(args.workload, args.seed, args.seconds, args.trace,
                  args.out, args.smoke)
    metrics = (select(per_layer(raw), SPEC["per_layer"]) if args.trace
               else select(end_to_end(raw), SPEC["end_to_end"]))
    print_metrics(args.workload, metrics)
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print(json.dumps({
        "correct": failed == 0 and finite(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))


def run_all(args):
    """Every workload untraced then traced; writes results.json."""
    build()
    seconds = 0 if args.smoke else (args.seconds or SPEC["run_seconds"])
    results = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
               "workloads": {}}
    ok = True
    for w in WORKLOADS:
        plain = measure(w, args.seed, seconds, False, args.out, args.smoke)
        traced = measure(w, args.seed, seconds, True, args.out, args.smoke)
        e2e = select(end_to_end(plain), SPEC["end_to_end"])
        layers = select(per_layer(traced), SPEC["per_layer"])
        attempted = int(plain["attempted"] + traced["attempted"])
        failed = int(plain["failed"] + traced["failed"])
        correct = failed == 0 and finite(e2e) and finite(layers)
        ok = ok and correct
        print_metrics(w, e2e)
        print_metrics(w, layers)
        print(f"{w} error_rate {failed / attempted:.6g} ratio")
        results["workloads"][w] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "config": {k: plain[k] for k in ("galaxies", "catalogs", "lmax",
                                             "ranks", "threads")},
            "end_to_end": e2e, "per_layer": layers,
        }
    path = args.out / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {path}")
    if not ok:
        fail("a workload failed verification or emitted a non-finite metric")


def compare(a_path, b_path):
    """Parent A against change B under the BENCHMARK.json bounds.

    Per (metric, workload): `worse` when B's median is worse than A's by more
    than the bound; `unresolved` when A's own interquartile spread is wider
    than the bound, unless every B sample beats every A sample; `within`
    otherwise. Exact counts must be identical.
    """
    a, b = (json.loads(Path(p).read_text())["workloads"]
            for p in (a_path, b_path))
    bad = False
    print(f"{'workload':16} {'metric':24} {'A':>12} {'B':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for w in WORKLOADS:
        if w not in a or w not in b:
            print(f"{w:16} missing from {'A' if w not in a else 'B'}")
            bad = True
            continue
        for d in SPEC["end_to_end"]:
            ma, mb = a[w]["end_to_end"][d["name"]], b[w]["end_to_end"][d["name"]]
            sign = 1 if d["better"] == "lower" else -1
            change = sign * (mb["value"] - ma["value"]) / ma["value"]
            spread = (ma["q3"] - ma["q1"]) / ma["value"]
            if spread > d["bound"]:
                better = (max(mb["samples"]) < min(ma["samples"])
                          if sign > 0 else
                          min(mb["samples"]) > max(ma["samples"]))
                verdict = "within" if better else "unresolved"
            else:
                verdict = "worse" if change > d["bound"] else "within"
            bad = bad or verdict == "worse"
            print(f"{w:16} {d['name']:24} {ma['value']:12.6g} "
                  f"{mb['value']:12.6g} {change:+8.3f} {d['bound']:6.2f}  "
                  f"{verdict}")
        for name in EXACT:
            va = a[w]["per_layer"][name]["value"]
            vb = b[w]["per_layer"][name]["value"]
            verdict = "identical" if va == vb else "differs"
            bad = bad or va != vb
            print(f"{w:16} {name:24} {va:12.6g} {vb:12.6g} {'':8} {'exact':>6}"
                  f"  {verdict}")
    return 1 if bad else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run_benchmark.py compare A.json B.json")
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload only")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float,
                   help=f"measuring time per run (default "
                        f"{SPEC['run_seconds']})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / "build" / "bench-out")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one repetition")
    args = p.parse_args()
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload:
        if args.seconds is None:
            args.seconds = 0 if args.smoke else SPEC["run_seconds"]
        run_one(args)
    else:
        run_all(args)


if __name__ == "__main__":
    main()
