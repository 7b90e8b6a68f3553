#!/usr/bin/env python3
"""Gate a fresh bench JSON against the committed baseline it was run for.

Usage: check_bench_regression.py BASELINE FRESH | --self-test

The baseline's "gates" list holds every bound, in BENCHMARK.json's terms:
{"metric": PATH, "better": "lower"|"higher", "bound": B, "limit": L}.
PATH descends with dots; "name[k1,k2]" walks the list "name", pairing its
rows across the two files by the fields k1, k2. Each baseline row needs,
for "lower", fresh <= base * (1 + B) and fresh <= L ("higher": fresh >=
base * (1 - B) and fresh >= L); B or L may be left out. "rule": "same"
needs the object's "keys" to agree (the run config); "rule": "monotone"
needs the fresh rows, in key order, each strictly better than the last.
A row whose "skip_unless" PATH is false in either file is skipped (an ISA
the host lacks). A baseline row missing from the fresh file fails (exit
1); a bad file or gate, a differing config or a gate on a metric the
baseline lacks exits 2 with one "error:" line, never a traceback.
"""

import json
import os
import subprocess
import sys
import tempfile

BASELINES = os.path.join(os.path.dirname(__file__), "..", "bench", "baselines")


def error(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        error(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        error(f"{path}: expected a JSON object, not {type(doc).__name__}")
    return doc


def resolve(doc, path):
    """{row key: value} for PATH in DOC; the key is () outside row lists."""
    found = {(): doc}
    for seg in path.split("."):
        name, _, keys = seg.rstrip("]").partition("[")
        found = {k: n[name] for k, n in found.items()
                 if isinstance(n, dict) and name in n}
        if keys:
            try:
                found = {k + tuple(row[f] for f in keys.split(",")): row
                         for k, rows in found.items() for row in rows}
            except (KeyError, TypeError):
                error(f"malformed row: a row of '{name}' lacks [{keys}]")
    return found


def check(gate, base, fresh):
    """Prints one line per checked value; returns how many failed."""
    path, rule, better = gate["metric"], gate.get("rule"), gate.get("better")
    bound, limit = gate.get("bound"), gate.get("limit")
    if rule not in (None, "same", "monotone") or (
            rule != "same" and better not in ("lower", "higher")):
        error(f"gate on {path}: unknown rule {rule!r} or better {better!r}")
    bvals, fvals = resolve(base, path), resolve(fresh, path)
    if not bvals:
        error(f"gate on {path}: the baseline lacks this metric")
    sign = 1 if better == "lower" else -1
    if rule == "same":
        for key, bv in bvals.items():
            for k in gate["keys"]:
                b, f = bv.get(k), fvals.get(key, {}).get(k)
                if b != f:
                    error(f"{path}.{k} differs: baseline={b!r} fresh={f!r}, "
                          f"so the runs are not comparable")
        return 0
    if rule == "monotone":
        seq = [(k, float(v)) for k, v in sorted(fvals.items())]
        bad = [f"REGRESSED {path} {ka} -> {kb}: {a:.4g} -> {b:.4g}, not "
               f"monotone {better}" for (ka, a), (kb, b) in zip(seq, seq[1:])
               if sign * (b - a) >= 0]
        print("\n".join(bad or [f"ok        {path}: monotone {better}"]))
        return len(bad)
    skip = {k for doc in (base, fresh) if gate.get("skip_unless")
            for k, v in resolve(doc, gate["skip_unless"]).items() if not v}
    failed = 0
    for key, bv in sorted(bvals.items()):
        label = f"{path} {key}" if key else path
        if key in skip:
            print(f"skipped   {label}: {gate['skip_unless']} is false")
        elif key not in fvals:
            failed += 1
            print(f"MISSING   {label}: in the baseline, not the fresh file")
        else:
            b, f = float(bv), float(fvals[key])
            lims = [limit] if limit is not None else []
            lims += [b * (1 + sign * bound)] if bound is not None else []
            worst = sign * min(sign * v for v in lims)
            bad = sign * (f - worst) > 0
            failed += bad
            print(f"{'REGRESSED' if bad else 'ok':<9} {label}: base {b:.4g} "
                  f"fresh {f:.4g} limit {worst:.4g}")
    return failed


def compare(base_path, fresh_path):
    base, fresh = load(base_path), load(fresh_path)
    gates = base.get("gates")
    if not isinstance(gates, list) or not gates:
        error(f"{base_path} declares no gates list")
    try:
        failed = sum(check(g, base, fresh) for g in gates)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        error(f"malformed bench JSON or gate ({type(e).__name__}: {e})")
    print(f"\n{failed or 'no'} regression{'s' * (failed != 1)} vs "
          f"{base_path} ({len(gates)} gates)")
    return 1 if failed else 0


# Self-test cases per committed baseline: the exit status (0 pass, 1
# regression, 2 error), a needle for stdout, the failing lines or the one
# "error:" line respectively, and a statement that mutates the fresh copy d
# or the baseline copy b (d = None: no fresh file).
CASES = {"BENCH_dist.ci.json": [
    (0, "no regressions", ""),
    (2, "cannot load", "d = None"),
    (2, "cannot load", "d = '{\"config\": {'"),
    (2, "expected a JSON object", "d = [1, 2]"),
    (2, "malformed row", "d['runs'][1].pop('ranks')"),
    (2, "not comparable", "d['config']['n'] += 1"),
    (2, "malformed bench", "d['runs'][0]['pair_imbalance'] = 'x'"),
    (1, "pair_imbalance", "for r in d['runs']: r['pair_imbalance'] *= 2"),
    (1, "MISSING   runs", "d['runs'].pop()"),
    (1, "ratio", "for p in d['halo_compression']['policies']: p['ratio'] = 1"),
    (1, "zeta_max", "d['halo_compression']['policies'][0].update("
                    "zeta_max_rel_diff=1e-6)"),
    (1, "MISSING   halo", "d.pop('halo_compression')"),
    (2, "malformed row", "d['halo_compression']['policies'][0].clear()"),
], "BENCH_dist.soak.json": [
    (1, "elapsed_vs_1rank", "for r in d['runs']: r['elapsed_vs_1rank'] *= 3"),
    (1, "hidden", "d['pipeline_ab']['modes'][0]['hidden_fraction'] = 0"),
], "BENCH_fig4.ci.json": [
    (2, "declares no gates", "b.pop('gates')"),
    (1, "kernel_gflops", "d['leaf_blocked']['kernel_gflops'] /= 9"),
    (1, "candidate_ratio", "d['leaf_blocked']['candidate_ratio'] = 2.6"),
    (1, "query_share", "d['leaf_blocked']['query_share'] *= 2"),
    (1, "MISSING   leaf", "d['leaf_blocked'].pop('candidate_ratio')"),
    (1, "isa_ab", "for r in d['kernel_isa_ab']: r['kernel_gflops'] = 0"),
    (0, "skipped", "d['kernel_isa_ab'][-1].update(supported=False)"),
    (1, "MISSING   kernel_isa", "d['kernel_isa_ab'].pop()"),
], "BENCH_fft.ci.json": [
    (2, "baseline lacks", "b['gates'][1]['metric'] = 'x'"),
    (1, "max_rel_err", "d['committed']['max_rel_err'] = 8e-4"),
    (1, "not monotone", "d['grids'][-1]['interlaced_err'] = 9e-4"),
    (1, "crossover_grid", "d['crossover_grid'] *= 2"),
    (1, "MISSING   grids", "d['grids'].pop(1)"),
]}


def self_test():
    failures = 0
    cases = [(name, *c) for name, cs in CASES.items() for c in cs]
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, want, needle, stmt) in enumerate(cases):
            ns = {f: load(os.path.join(BASELINES, name)) for f in "bd"}
            exec(stmt, ns)
            argv = [os.path.join(tmp, f"{i}{s}.json") for s in "bd"]
            for path, doc in zip(argv, (ns["b"], ns["d"])):
                if doc is not None:
                    with open(path, "w") as f:
                        f.write(doc if type(doc) is str else json.dumps(doc))
            p = subprocess.run([sys.executable, __file__] + argv,
                               capture_output=True, text=True)
            failed = "".join(ln for ln in p.stdout.splitlines(True)
                             if ln.startswith(("REGRESSED", "MISSING")))
            ok = (p.returncode == want and p.stderr.count("\n") == want // 2
                  and needle in (p.stdout, failed, p.stderr)[want])
            print(f"self-test: {'ok  ' if ok else 'FAIL'} {name}: "
                  f"{stmt or 'identical files'} (exit {p.returncode})")
            if not ok:
                failures += 1
                sys.stderr.write(p.stdout + p.stderr)
    if failures:
        sys.exit(f"self-test: {failures} of {len(cases)} cases failed")
    print(f"self-test: all {len(cases)} cases passed")


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2 or argv[0].startswith("-"):
        error("usage: check_bench_regression.py BASELINE FRESH | --self-test")
    sys.exit(compare(*argv))


if __name__ == "__main__":
    main(sys.argv[1:])
