#!/usr/bin/env python3
"""Gate a committed bench baseline against a freshly generated JSON.

Three file kinds are understood, auto-detected from the "bench" tag:

bench_dist_scaling (BENCH_dist.json) — FAILS (exit 1) when the
distributed pipeline regressed, so the CI artifact trend is enforced
rather than eyeballed:

  * pair imbalance — max/mean kernel pairs per (ranks, policy) run. The
    partition is deterministic for a given catalog/config, so this metric
    is machine-independent: any growth beyond --imbalance-tol is a real
    partitioner regression.
  * wall time (optional, --time-tol) — compared as the NORMALIZED scaling
    shape elapsed(r)/elapsed(1 rank, same policy), not absolute seconds,
    so a slower/faster runner cannot trip it; only a worse scaling curve
    can (e.g. rank parallelism breaking). Disabled unless --time-tol is
    given because the shape is still host-sensitive in the extreme
    (single-core baselines are the worst case, so regressions against
    them are conservative).
  * halo-hiding (optional, --hidden-tol) — per overlap mode of the
    pipeline_ab section, the hidden fraction
    halo_hidden / (halo_hidden + halo_blocked) must not drop more than
    --hidden-tol below the baseline's. This is what catches an overlap
    regression (e.g. the owned pass silently re-serialized behind the
    exchange) that total wall time hides. Modes whose halo window is
    microscopic in either file (< --hidden-floor seconds) are skipped:
    max/min noise there is meaningless.

fig4_breakdown (BENCH_fig4.json) — the kernel-GFLOP/s floor:

  * engine kernel throughput (--kernel-gflops-floor) — for the
    leaf-blocked traversal (leaf_blocked), the fresh kernel_gflops must stay
    at or above baseline * FLOOR. FLOOR is a fraction (e.g. 0.6):
    generous enough that runner-to-runner hardware variance passes,
    tight enough that a silent fall-back to the scalar kernel (a ~4-8x
    drop on any SIMD host) fails loudly. Baselines
    recorded before the SIMD kernel carry no kernel_gflops key and are
    skipped with a notice; a FRESH file missing the key is a violation
    (the bench stopped reporting the gated metric).
  * kernel ISA A/B coverage — every kernel_isa_ab row the baseline
    marks supported must exist in the fresh file. A fresh row marked
    unsupported is skipped with a notice (runner genuinely lacks the
    ISA — e.g. no AVX-512); a missing row is a violation (the A/B
    matrix silently shrank). Supported-on-both rows are also held to
    the same GFLOP/s floor.
  * candidate ratio (--candidate-ratio-ceiling) — the traversal's fresh
    candidates/pairs ratio must stay at or below an ABSOLUTE ceiling.
    The ratio is a pure function of the pruning geometry (deterministic
    for a given catalog/config, machine-independent), so any growth is
    a real pruning regression, not runner noise. Baselines recorded
    before the metric existed are skipped with a notice; a FRESH file
    missing the metric while the baseline has it is a violation.
  * neighbor-query share (--query-share-tol) — the traversal's fresh
    neighbor-query seconds as a fraction of total_seconds must not
    exceed the baseline's share by more than TOL (absolute). Shares,
    not seconds, so a uniformly slower/faster runner cannot trip it;
    only the traversal growing relative to the rest of the engine can.

fft_estimator (BENCH_fft.json) — the mesh-estimator accuracy contract:

  * committed accuracy (--fft-err-ceiling) — the committed grid config's
    max gated relative error vs the tree backend must stay at or below
    an ABSOLUTE ceiling. The mock catalog is seeded and the estimator is
    deterministic up to FFT round-off, so the ceiling needs no baseline
    slack; pick it with margin over the committed value (e.g. 5e-4 over
    a measured 2.5e-4) so libm/compiler variation passes but an aliasing
    or kernel-normalization regression (typically >= 2x) fails loudly.
  * per-grid error drift (--fft-err-tol) — each baseline grid row's
    interlaced error may grow by at most this fraction in the fresh
    file. Catches a coarse-grid regression the committed (finest) gate
    would miss. A baseline grid row missing from the fresh file is a
    violation (the convergence sweep shrank).
  * convergence monotonicity — the fresh interlaced errors must strictly
    decrease as grid_n grows. A non-converging sweep means the estimator
    stopped measuring the signal (e.g. the bin kernels froze at one
    resolution), which per-grid drift tolerances cannot see.
  * crossover — the fresh crossover_grid (coarsest grid meeting the
    target error) must exist and must not exceed the baseline's:
    needing a finer mesh for the same accuracy is a regression.

The run configs must match between baseline and fresh file — comparing
different workloads is meaningless — unless --allow-config-mismatch is
given. Baseline runs missing from the fresh file fail too (shrinking
coverage is a regression).

Every failure mode exits with a single-line "error: ..." diagnostic —
a missing, truncated, or schema-malformed JSON file must read as one
actionable line in a CI log, never a Python traceback. `--self-test`
exercises exactly those paths by re-invoking this script as a
subprocess against synthetic good/bad fixtures (wired into ctest and
the CI chaos leg, so the gate's own error handling is itself gated).

Usage:
  tools/check_bench_regression.py --baseline bench/baselines/BENCH_dist.ci.json \
      --fresh BENCH_dist.ci.json [--imbalance-tol 0.25] [--time-tol 0.25]
  tools/check_bench_regression.py --baseline bench/baselines/BENCH_fig4.ci.json \
      --fresh BENCH_fig4.json --kernel-gflops-floor 0.6
  tools/check_bench_regression.py --baseline bench/baselines/BENCH_fft.ci.json \
      --fresh BENCH_fft.json --fft-err-ceiling 5e-4
  tools/check_bench_regression.py --self-test
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Below this, max/mean noise (a handful of pairs moving across a cut) can
# exceed any relative tolerance without meaning anything.
IMBALANCE_ABS_FLOOR = 0.02

# The distributed correctness contract: the LET pipeline's results must
# match the single-node engine to this tolerance. The bench records
# zeta_max_rel_diff as the worst payload deviation normalized by the
# payload's max magnitude — summation-order and mixed-precision round-off
# lands at ~1e-13, a single flipped pair at ~1e-7, so this gate separates
# the regimes by three decades either way.
HALO_ZETA_REL_GATE = 1e-10

CONFIG_KEYS = ("n", "rmax", "side", "lmax", "max_ranks", "catalog")

# kernel_isa and threads are deliberately absent: they record the level
# auto-detect and the thread count the engine resolved to on the
# generating host, which legitimately differ between the baseline machine
# and the runner.
FIG4_CONFIG_KEYS = ("n", "rmax", "lmax", "nbins", "precision", "index")

# "gate" is included: it sets which multipoles enter the gated-error max,
# so errors measured at different gates are not comparable.
FFT_CONFIG_KEYS = ("n_galaxies", "box_side", "rmin", "rmax", "nbins",
                   "lmax", "assignment", "interlace", "compensate",
                   "edge_antialias", "gate")


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    if not isinstance(doc, dict):
        sys.exit(f"error: {path}: top level is {type(doc).__name__}, "
                 f"expected a JSON object")
    return doc


def runs_by_key(doc):
    return {(r["ranks"], r["policy"]): r for r in doc.get("runs", [])}


def normalized_time(runs, key):
    """elapsed(r, policy) / elapsed(1, policy); None when not computable."""
    base = runs.get((1, key[1]))
    if base is None or base["elapsed_seconds"] <= 0:
        return None
    return runs[key]["elapsed_seconds"] / base["elapsed_seconds"]


def ab_modes_by_name(doc):
    """pipeline_ab mode rows keyed by overlap_mode; {} when absent."""
    ab = doc.get("pipeline_ab", {})
    return {m["overlap_mode"]: m for m in ab.get("modes", [])}


def hidden_fraction(mode_row):
    denom = (mode_row.get("halo_hidden_seconds", 0.0)
             + mode_row.get("halo_blocked_seconds", 0.0))
    if denom <= 0:
        return None, 0.0
    return mode_row.get("halo_hidden_seconds", 0.0) / denom, denom


def check_hidden(baseline, fresh, tol, floor, violations):
    base_modes = ab_modes_by_name(baseline)
    fresh_modes = ab_modes_by_name(fresh)
    if not base_modes:
        print("hidden-fraction gate: baseline has no pipeline_ab modes "
              "(pre-two-pass baseline?) — skipping")
        return
    print(f"\n{'mode':<12} {'hidden(base)':>12} {'hidden(fresh)':>13}"
          f"  verdict")
    for name in sorted(base_modes):
        if name == "sequential":
            continue  # nothing is hidden by construction
        base_frac, base_denom = hidden_fraction(base_modes[name])
        row = fresh_modes.get(name)
        if row is None:
            violations.append(
                f"pipeline_ab mode '{name}' missing from the fresh file")
            print(f"{name:<12} {'—':>12} {'MISSING':>13}")
            continue
        fresh_frac, fresh_denom = hidden_fraction(row)
        if min(base_denom, fresh_denom) < floor:
            print(f"{name:<12} {'—':>12} {'—':>13}  skipped "
                  f"(halo window < {floor:g}s)")
            continue
        verdict = "ok"
        if fresh_frac < base_frac - tol:
            verdict = "REGRESSED"
            violations.append(
                f"pipeline_ab mode '{name}': hidden fraction "
                f"{base_frac:.3f} -> {fresh_frac:.3f} "
                f"(drop > {tol:.2f})")
        print(f"{name:<12} {base_frac:>12.3f} {fresh_frac:>13.3f}  {verdict}")


def check_halo_compression(fresh, ceiling, violations):
    """LET halo bytes must stay at or below CEILING x the full-shell bytes
    (what a flat f64 shower of the same R_max shell would send: 32 B per
    shipped point) for every policy in the fresh file's halo_compression
    section, and the LET run must agree with the single-node engine on
    zeta to the distributed 1e-10 gate. Both are absolute contracts (the
    catalog is seeded and the partition deterministic), so no baseline
    section is needed."""
    hc = fresh.get("halo_compression")
    if hc is None:
        violations.append(
            "fresh file carries no halo_compression section "
            "(the bench stopped reporting the gated metric)")
        print("\nhalo-compression gate: section MISSING from the fresh file")
        return
    print(f"\n{'policy':<17} {'full-shell B':>12} {'LET B':>12} {'ratio':>7}"
          f" {'ceiling':>8} {'zeta diff':>10}  verdict")
    for row in hc.get("policies", []):
        policy = row["policy"]
        full = row["full_shell_bytes"]
        let = row["let_bytes"]
        ratio = let / full if full else 0.0
        zdiff = row.get("zeta_max_rel_diff", 0.0)
        verdicts = []
        if full and let > ceiling * full:
            verdicts.append(
                f"halo_compression ({policy}): LET bytes {let} exceed "
                f"{ceiling:g} x full-shell {full} (ratio {ratio:.3f} — the "
                f"pruned exchange stopped compressing)")
        if zdiff > HALO_ZETA_REL_GATE:
            verdicts.append(
                f"halo_compression ({policy}): zeta_max_rel_diff {zdiff:.3e} "
                f"exceeds the {HALO_ZETA_REL_GATE:g} distributed gate "
                f"(the LET pipeline no longer matches the single-node "
                f"engine)")
        print(f"{policy:<17} {full:>12} {let:>12} {ratio:>7.3f}"
              f" {ceiling:>8.3f} {zdiff:>10.2e}  "
              f"{'REGRESSED' if verdicts else 'ok'}")
        violations.extend(verdicts)


def query_share(driver_row):
    """neighbor-query seconds / total_seconds; None when not computable."""
    total = driver_row.get("total_seconds")
    query = driver_row.get("neighbor query")
    if total is None or query is None or total <= 0:
        return None
    return query / total


def check_fig4(baseline, fresh, args):
    """fig4_breakdown mode: the kernel-GFLOP/s floor + ISA A/B coverage."""
    mismatched = [
        k for k in FIG4_CONFIG_KEYS
        if baseline.get("config", {}).get(k) != fresh.get("config", {}).get(k)
    ]
    if mismatched and not args.allow_config_mismatch:
        for k in mismatched:
            print(f"config mismatch on '{k}': baseline="
                  f"{baseline.get('config', {}).get(k)!r} fresh="
                  f"{fresh.get('config', {}).get(k)!r}")
        sys.exit("error: baseline and fresh configs differ — these runs are "
                 "not comparable (--allow-config-mismatch to override)")

    floor = args.kernel_gflops_floor
    if floor is None:
        sys.exit("error: fig4_breakdown files need --kernel-gflops-floor "
                 "(fraction of the baseline GFLOP/s the fresh run must keep, "
                 "e.g. 0.6)")

    violations = []
    print(f"{'metric':<28} {'base GF/s':>10} {'fresh GF/s':>10}"
          f" {'floor':>8}  verdict")

    def gate(label, base_gf, fresh_gf):
        if base_gf is None:
            print(f"{label:<28} {'—':>10} {'—':>10} {'—':>8}  skipped "
                  f"(baseline predates the kernel_gflops metric)")
            return
        if fresh_gf is None:
            violations.append(
                f"{label}: fresh file carries no kernel_gflops "
                f"(the bench stopped reporting the gated metric)")
            print(f"{label:<28} {base_gf:>10.2f} {'MISSING':>10}")
            return
        lim = base_gf * floor
        bad = fresh_gf < lim
        if bad:
            violations.append(
                f"{label}: kernel_gflops {base_gf:.2f} -> {fresh_gf:.2f} "
                f"(below floor {lim:.2f} = baseline x {floor:g})")
        print(f"{label:<28} {base_gf:>10.2f} {fresh_gf:>10.2f}"
              f" {lim:>8.2f}  {'REGRESSED' if bad else 'ok'}")

    for traversal in ("leaf_blocked",):
        gate(f"engine {traversal}",
             baseline.get(traversal, {}).get("kernel_gflops"),
             fresh.get(traversal, {}).get("kernel_gflops"))

    if args.candidate_ratio_ceiling is not None:
        ceiling = args.candidate_ratio_ceiling
        for traversal in ("leaf_blocked",):
            label = f"{traversal} candidate ratio"
            base_cr = baseline.get(traversal, {}).get("candidate_ratio")
            fresh_cr = fresh.get(traversal, {}).get("candidate_ratio")
            if fresh_cr is None:
                if base_cr is None:
                    print(f"{label:<28} {'—':>10} {'—':>10} {'—':>8}  skipped "
                          f"(pre-candidate-ratio baseline and fresh file)")
                    continue
                violations.append(
                    f"{label}: fresh file carries no candidate_ratio "
                    f"(the bench stopped reporting the gated metric)")
                print(f"{label:<28} {base_cr:>10.3f} {'MISSING':>10}")
                continue
            bad = fresh_cr > ceiling
            if bad:
                violations.append(
                    f"{label}: candidates/pairs {fresh_cr:.3f} exceeds the "
                    f"ceiling {ceiling:g} (pruning regressed)")
            base_s = f"{base_cr:.3f}" if base_cr is not None else "—"
            print(f"{label:<28} {base_s:>10} {fresh_cr:>10.3f}"
                  f" {ceiling:>8.3f}  {'REGRESSED' if bad else 'ok'}")

    if args.query_share_tol is not None:
        tol = args.query_share_tol
        for traversal in ("leaf_blocked",):
            label = f"{traversal} query share"
            base_sh = query_share(baseline.get(traversal, {}))
            fresh_sh = query_share(fresh.get(traversal, {}))
            if base_sh is None:
                print(f"{label:<28} {'—':>10} {'—':>10} {'—':>8}  skipped "
                      f"(baseline predates the phase breakdown)")
                continue
            if fresh_sh is None:
                violations.append(
                    f"{label}: fresh file carries no neighbor-query phase "
                    f"(the bench stopped reporting the gated metric)")
                print(f"{label:<28} {base_sh:>10.3f} {'MISSING':>10}")
                continue
            lim = base_sh + tol
            bad = fresh_sh > lim
            if bad:
                violations.append(
                    f"{label}: neighbor-query share {base_sh:.3f} -> "
                    f"{fresh_sh:.3f} (above {lim:.3f} = baseline + {tol:g})")
            print(f"{label:<28} {base_sh:>10.3f} {fresh_sh:>10.3f}"
                  f" {lim:>8.3f}  {'REGRESSED' if bad else 'ok'}")

    base_ab = {r["isa"]: r for r in baseline.get("kernel_isa_ab", [])}
    fresh_ab = {r["isa"]: r for r in fresh.get("kernel_isa_ab", [])}
    for isa, base_row in sorted(base_ab.items()):
        label = f"bucket kernel isa:{isa}"
        if not base_row.get("supported"):
            continue  # the baseline host could not measure it
        fresh_row = fresh_ab.get(isa)
        if fresh_row is None:
            violations.append(
                f"kernel_isa_ab row '{isa}' missing from the fresh file "
                f"(the A/B matrix shrank)")
            print(f"{label:<28} {'—':>10} {'MISSING':>10}")
            continue
        if not fresh_row.get("supported"):
            print(f"{label:<28} {'—':>10} {'—':>10} {'—':>8}  skipped "
                  f"(runner does not support {isa})")
            continue
        gate(label, base_row.get("kernel_gflops"),
             fresh_row.get("kernel_gflops"))

    if violations:
        print(f"\n{len(violations)} regression(s) vs {args.baseline}:")
        for v in violations:
            print(f"  - {v}")
        sys.exit(1)
    print(f"\nno regressions vs {args.baseline} "
          f"(kernel GFLOP/s floor {floor:g}x baseline"
          + (f", candidate ratio <= {args.candidate_ratio_ceiling:g}"
             if args.candidate_ratio_ceiling is not None
             else ", ratio check off")
          + (f", query share tol {args.query_share_tol:g}"
             if args.query_share_tol is not None
             else ", query share check off")
          + ")")


def check_fft(baseline, fresh, args):
    """fft_estimator mode: the mesh-estimator accuracy contract."""
    mismatched = [
        k for k in FFT_CONFIG_KEYS
        if baseline.get("config", {}).get(k) != fresh.get("config", {}).get(k)
    ]
    if mismatched and not args.allow_config_mismatch:
        for k in mismatched:
            print(f"config mismatch on '{k}': baseline="
                  f"{baseline.get('config', {}).get(k)!r} fresh="
                  f"{fresh.get('config', {}).get(k)!r}")
        sys.exit("error: baseline and fresh configs differ — these runs are "
                 "not comparable (--allow-config-mismatch to override)")

    ceiling = args.fft_err_ceiling
    if ceiling is None:
        sys.exit("error: fft_estimator files need --fft-err-ceiling "
                 "(absolute cap on the committed grid's max gated relative "
                 "error vs the tree backend, e.g. 5e-4)")

    violations = []

    committed = fresh.get("committed", {})
    fresh_err = committed.get("max_rel_err")
    base_err = baseline.get("committed", {}).get("max_rel_err")
    print(f"{'metric':<28} {'baseline':>10} {'fresh':>10} {'limit':>10}"
          f"  verdict")
    if fresh_err is None:
        violations.append(
            "fresh file carries no committed.max_rel_err "
            "(the bench stopped reporting the gated metric)")
        print(f"{'committed max_rel_err':<28} "
              f"{base_err if base_err is not None else '—':>10} "
              f"{'MISSING':>10}")
    else:
        bad = fresh_err > ceiling
        if bad:
            violations.append(
                f"committed grid {committed.get('grid_n')}: max_rel_err "
                f"{fresh_err:.3e} exceeds the ceiling {ceiling:g} "
                f"(accuracy contract broken)")
        base_s = f"{base_err:.3e}" if base_err is not None else "—"
        print(f"{'committed max_rel_err':<28} {base_s:>10} "
              f"{fresh_err:>10.3e} {ceiling:>10.0e}  "
              f"{'REGRESSED' if bad else 'ok'}")

    tol = args.fft_err_tol
    base_grids = {g["grid_n"]: g for g in baseline.get("grids", [])}
    fresh_grids = {g["grid_n"]: g for g in fresh.get("grids", [])}
    for n in sorted(base_grids):
        label = f"grid {n} interlaced err"
        bg = base_grids[n].get("interlaced_err")
        row = fresh_grids.get(n)
        if row is None:
            violations.append(
                f"grid {n} missing from the fresh file "
                f"(the convergence sweep shrank)")
            print(f"{label:<28} {bg:>10.3e} {'MISSING':>10}")
            continue
        fg = row.get("interlaced_err")
        lim = bg * (1 + tol)
        bad = fg > lim
        if bad:
            violations.append(
                f"grid {n}: interlaced err {bg:.3e} -> {fg:.3e} "
                f"(+{100 * (fg / bg - 1):.1f}% > {100 * tol:.0f}%)")
        print(f"{label:<28} {bg:>10.3e} {fg:>10.3e} {lim:>10.3e}  "
              f"{'REGRESSED' if bad else 'ok'}")

    seq = sorted(fresh_grids)
    for lo, hi in zip(seq, seq[1:]):
        e_lo = fresh_grids[lo].get("interlaced_err")
        e_hi = fresh_grids[hi].get("interlaced_err")
        if e_lo is not None and e_hi is not None and e_hi >= e_lo:
            violations.append(
                f"convergence broke: interlaced err did not decrease from "
                f"grid {lo} ({e_lo:.3e}) to grid {hi} ({e_hi:.3e})")

    base_x = baseline.get("crossover_grid")
    fresh_x = fresh.get("crossover_grid")
    if base_x is not None:
        if fresh_x is None:
            violations.append(
                "fresh file has no crossover_grid — no swept grid met the "
                "target error")
            print(f"{'crossover grid':<28} {base_x:>10} {'MISSING':>10}")
        else:
            bad = fresh_x > base_x
            if bad:
                violations.append(
                    f"crossover grid {base_x} -> {fresh_x}: a finer mesh is "
                    f"now needed for the target error")
            print(f"{'crossover grid':<28} {base_x:>10} {fresh_x:>10}"
                  f" {base_x:>10}  {'REGRESSED' if bad else 'ok'}")

    if violations:
        print(f"\n{len(violations)} regression(s) vs {args.baseline}:")
        for v in violations:
            print(f"  - {v}")
        sys.exit(1)
    print(f"\nno regressions vs {args.baseline} "
          f"(committed err <= {ceiling:g}, per-grid err tol "
          f"{tol:.0%}, monotone convergence, crossover <= {base_x})")


def compare(args):
    baseline = load(args.baseline)
    fresh = load(args.fresh)

    for kind, checker in (("fig4_breakdown", check_fig4),
                          ("fft_estimator", check_fft)):
        if baseline.get("bench") == kind or fresh.get("bench") == kind:
            if baseline.get("bench") != fresh.get("bench"):
                sys.exit(f"error: bench kind mismatch: baseline="
                         f"{baseline.get('bench')!r} "
                         f"fresh={fresh.get('bench')!r}")
            checker(baseline, fresh, args)
            return

    mismatched = [
        k for k in CONFIG_KEYS
        if baseline.get("config", {}).get(k) != fresh.get("config", {}).get(k)
    ]
    if mismatched and not args.allow_config_mismatch:
        for k in mismatched:
            print(f"config mismatch on '{k}': baseline="
                  f"{baseline.get('config', {}).get(k)!r} fresh="
                  f"{fresh.get('config', {}).get(k)!r}")
        sys.exit("error: baseline and fresh configs differ — these runs are "
                 "not comparable (--allow-config-mismatch to override)")

    base_runs = runs_by_key(baseline)
    fresh_runs = runs_by_key(fresh)
    if not base_runs:
        sys.exit(f"error: no runs in baseline {args.baseline}")

    violations = []
    print(f"{'ranks':>5} {'policy':<17} {'imb(base)':>10} {'imb(fresh)':>10}"
          f" {'t_norm(base)':>12} {'t_norm(fresh)':>13}  verdict")
    for key in sorted(base_runs):
        ranks, policy = key
        base = base_runs[key]
        fresh_run = fresh_runs.get(key)
        if fresh_run is None:
            violations.append(f"run (ranks={ranks}, policy={policy}) "
                              f"missing from {args.fresh}")
            print(f"{ranks:>5} {policy:<17} {'—':>10} {'MISSING':>10}")
            continue

        verdicts = []
        bi, fi = base["pair_imbalance"], fresh_run["pair_imbalance"]
        if fi > bi * (1 + args.imbalance_tol) + IMBALANCE_ABS_FLOOR:
            verdicts.append(
                f"pair imbalance {bi:.3f} -> {fi:.3f} "
                f"(+{100 * (fi / bi - 1):.1f}% > {100 * args.imbalance_tol:.0f}%)")

        bt = normalized_time(base_runs, key)
        ft = normalized_time(fresh_runs, key)
        if args.time_tol is not None and bt and ft and ranks > 1:
            if ft > bt * (1 + args.time_tol):
                verdicts.append(
                    f"normalized wall time {bt:.3f} -> {ft:.3f} "
                    f"(+{100 * (ft / bt - 1):.1f}% > {100 * args.time_tol:.0f}%)")

        fmt_t = lambda t: f"{t:.3f}" if t is not None else "—"
        print(f"{ranks:>5} {policy:<17} {bi:>10.3f} {fi:>10.3f}"
              f" {fmt_t(bt):>12} {fmt_t(ft):>13}  "
              f"{'REGRESSED' if verdicts else 'ok'}")
        for v in verdicts:
            violations.append(f"(ranks={ranks}, policy={policy}): {v}")

    if args.hidden_tol is not None:
        check_hidden(baseline, fresh, args.hidden_tol, args.hidden_floor,
                     violations)

    if args.halo_bytes_ratio_ceiling is not None:
        check_halo_compression(fresh, args.halo_bytes_ratio_ceiling,
                               violations)

    if violations:
        print(f"\n{len(violations)} regression(s) vs {args.baseline}:")
        for v in violations:
            print(f"  - {v}")
        sys.exit(1)
    print(f"\nno regressions vs {args.baseline} "
          f"(imbalance tol {args.imbalance_tol:.0%}"
          + (f", time tol {args.time_tol:.0%}" if args.time_tol is not None
             else ", time check off")
          + (f", hidden tol {args.hidden_tol:.2f}"
             if args.hidden_tol is not None else ", hidden check off")
          + (f", halo bytes ratio <= {args.halo_bytes_ratio_ceiling:g}"
             if args.halo_bytes_ratio_ceiling is not None
             else ", halo check off")
          + ")")


def self_test():
    """Re-invoke this script against synthetic fixtures and assert every
    failure mode stays a single actionable line (never a traceback)."""
    me = os.path.abspath(__file__)

    dist_doc = {
        "bench": "dist_scaling",
        "config": {k: 1 for k in CONFIG_KEYS},
        "runs": [
            {"ranks": 1, "policy": "pair_weighted", "pair_imbalance": 1.0,
             "elapsed_seconds": 2.0},
            {"ranks": 4, "policy": "pair_weighted", "pair_imbalance": 1.1,
             "elapsed_seconds": 0.6},
        ],
    }
    dist_doc["halo_compression"] = {
        "ranks": 4, "let_f32": True,
        "policies": [
            {"policy": "pair_weighted", "full_shell_bytes": 100000,
             "let_bytes": 42000, "ratio": 0.42,
             "let_points_shipped": 3125,
             "zeta_max_rel_diff": 3e-13},
        ],
    }
    regressed = json.loads(json.dumps(dist_doc))
    regressed["runs"][1]["pair_imbalance"] = 2.0
    malformed = json.loads(json.dumps(dist_doc))
    del malformed["runs"][1]["ranks"]
    halo_fat = json.loads(json.dumps(dist_doc))
    halo_fat["halo_compression"]["policies"][0]["let_bytes"] = 80000
    halo_drift = json.loads(json.dumps(dist_doc))
    halo_drift["halo_compression"]["policies"][0]["zeta_max_rel_diff"] = 1e-6
    halo_gone = json.loads(json.dumps(dist_doc))
    del halo_gone["halo_compression"]
    halo_broken = json.loads(json.dumps(dist_doc))
    del halo_broken["halo_compression"]["policies"][0]["let_bytes"]
    fig4 = {
        "bench": "fig4_breakdown",
        "config": {k: 1 for k in FIG4_CONFIG_KEYS},
        "leaf_blocked": {"kernel_gflops": 12.0, "candidate_ratio": 1.7,
                         "neighbor query": 1.0, "total_seconds": 8.0},
        "kernel_isa_ab": [],
    }
    fig4_slow = json.loads(json.dumps(fig4))
    fig4_slow["leaf_blocked"]["kernel_gflops"] = 1.0
    fig4_fat = json.loads(json.dumps(fig4))
    fig4_fat["leaf_blocked"]["candidate_ratio"] = 2.6
    fig4_slowquery = json.loads(json.dumps(fig4))
    fig4_slowquery["leaf_blocked"]["neighbor query"] = 4.0
    # A baseline recorded before the candidate-ratio / phase metrics
    # existed: both new gates must skip with a notice, not fail.
    fig4_prepr = json.loads(json.dumps(fig4))
    for drv in ("leaf_blocked",):
        for key in ("candidate_ratio", "neighbor query", "total_seconds"):
            del fig4_prepr[drv][key]

    fft = {
        "bench": "fft_estimator",
        "config": {k: 1 for k in FFT_CONFIG_KEYS},
        "grids": [
            {"grid_n": 32, "interlaced_err": 3e-3},
            {"grid_n": 64, "interlaced_err": 7e-4},
            {"grid_n": 128, "interlaced_err": 2.5e-4},
        ],
        "committed": {"grid_n": 128, "max_rel_err": 2.5e-4},
        "crossover_grid": 64,
    }
    fft_inaccurate = json.loads(json.dumps(fft))
    fft_inaccurate["committed"]["max_rel_err"] = 8e-4
    fft_nonmono = json.loads(json.dumps(fft))
    fft_nonmono["grids"][2]["interlaced_err"] = 9e-4
    fft_nonmono["committed"]["max_rel_err"] = 4.9e-4  # under the ceiling
    fft_latecross = json.loads(json.dumps(fft))
    fft_latecross["crossover_grid"] = 128
    fft_shrunk = json.loads(json.dumps(fft))
    del fft_shrunk["grids"][1]
    fft_shrunk["crossover_grid"] = 32  # keep only the sweep-shrink failure

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def fixture(name, content):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write(content if isinstance(content, str)
                        else json.dumps(content))
            return path

        good = fixture("good.json", dist_doc)
        cases = [
            ("identical files pass", 0, "no regressions",
             ["--baseline", good, "--fresh", good]),
            ("imbalance regression fails", 1, "regression",
             ["--baseline", good, "--fresh",
              fixture("regressed.json", regressed)]),
            ("missing file is one line", None, "error: cannot load",
             ["--baseline", good, "--fresh",
              os.path.join(tmp, "nope.json")]),
            ("truncated JSON is one line", None, "error: cannot load",
             ["--baseline", good, "--fresh",
              fixture("truncated.json", '{"bench": "dist_sc')]),
            ("non-object JSON is one line", None, "expected a JSON object",
             ["--baseline", good, "--fresh",
              fixture("array.json", "[1, 2]")]),
            ("missing field is one line", None, "malformed bench JSON",
             ["--baseline", good, "--fresh",
              fixture("malformed.json", malformed)]),
            ("halo ratio within ceiling passes", 0, "no regressions",
             ["--baseline", good, "--fresh", good,
              "--halo-bytes-ratio-ceiling", "0.5"]),
            ("halo ratio violation fails", 1, "stopped compressing",
             ["--baseline", good, "--fresh",
              fixture("halo_fat.json", halo_fat),
              "--halo-bytes-ratio-ceiling", "0.5"]),
            ("halo zeta drift from single node fails", 1,
             "no longer matches",
             ["--baseline", good, "--fresh",
              fixture("halo_drift.json", halo_drift),
              "--halo-bytes-ratio-ceiling", "0.5"]),
            ("fresh dropping halo_compression fails", 1,
             "stopped reporting the gated metric",
             ["--baseline", good, "--fresh",
              fixture("halo_gone.json", halo_gone),
              "--halo-bytes-ratio-ceiling", "0.5"]),
            ("malformed halo_compression is one line", None,
             "malformed bench JSON",
             ["--baseline", good, "--fresh",
              fixture("halo_broken.json", halo_broken),
              "--halo-bytes-ratio-ceiling", "0.5"]),
            ("fig4 needs an explicit floor", None, "--kernel-gflops-floor",
             ["--baseline", fixture("fig4.json", fig4), "--fresh",
              fixture("fig4b.json", fig4)]),
            ("fig4 floor violation fails", 1, "below floor",
             ["--baseline", os.path.join(tmp, "fig4.json"), "--fresh",
              fixture("fig4_slow.json", fig4_slow),
              "--kernel-gflops-floor", "0.6"]),
            ("fig4 ratio ceiling violation fails", 1, "exceeds the ceiling",
             ["--baseline", os.path.join(tmp, "fig4.json"), "--fresh",
              fixture("fig4_fat.json", fig4_fat),
              "--kernel-gflops-floor", "0.6",
              "--candidate-ratio-ceiling", "1.8"]),
            ("fig4 query share regression fails", 1, "neighbor-query share",
             ["--baseline", os.path.join(tmp, "fig4.json"), "--fresh",
              fixture("fig4_slowquery.json", fig4_slowquery),
              "--kernel-gflops-floor", "0.6",
              "--query-share-tol", "0.1"]),
            ("fig4 pre-metric files skip new gates", 0, "skipped",
             ["--baseline", fixture("fig4_prepr.json", fig4_prepr), "--fresh",
              os.path.join(tmp, "fig4_prepr.json"),
              "--kernel-gflops-floor", "0.6",
              "--candidate-ratio-ceiling", "1.8",
              "--query-share-tol", "0.1"]),
            ("fig4 fresh dropping ratio metric fails", 1,
             "stopped reporting",
             ["--baseline", os.path.join(tmp, "fig4.json"), "--fresh",
              os.path.join(tmp, "fig4_prepr.json"),
              "--kernel-gflops-floor", "0.6",
              "--candidate-ratio-ceiling", "1.8"]),
            ("fft needs an explicit ceiling", None, "--fft-err-ceiling",
             ["--baseline", fixture("fft.json", fft), "--fresh",
              os.path.join(tmp, "fft.json")]),
            ("fft identical files pass", 0, "no regressions",
             ["--baseline", os.path.join(tmp, "fft.json"), "--fresh",
              os.path.join(tmp, "fft.json"),
              "--fft-err-ceiling", "5e-4"]),
            ("fft committed ceiling violation fails", 1,
             "accuracy contract broken",
             ["--baseline", os.path.join(tmp, "fft.json"), "--fresh",
              fixture("fft_inaccurate.json", fft_inaccurate),
              "--fft-err-ceiling", "5e-4"]),
            ("fft broken convergence fails", 1, "convergence broke",
             ["--baseline", os.path.join(tmp, "fft.json"), "--fresh",
              fixture("fft_nonmono.json", fft_nonmono),
              "--fft-err-ceiling", "5e-4"]),
            ("fft later crossover fails", 1, "finer mesh is now needed",
             ["--baseline", os.path.join(tmp, "fft.json"), "--fresh",
              fixture("fft_latecross.json", fft_latecross),
              "--fft-err-ceiling", "5e-4"]),
            ("fft shrunken sweep fails", 1, "convergence sweep shrank",
             ["--baseline", os.path.join(tmp, "fft.json"), "--fresh",
              fixture("fft_shrunk.json", fft_shrunk),
              "--fft-err-ceiling", "5e-4"]),
        ]
        for name, want_rc, needle, argv in cases:
            p = subprocess.run([sys.executable, me] + argv,
                               capture_output=True, text=True)
            out = p.stdout + p.stderr
            ok = (needle in out and "Traceback" not in out
                  and (p.returncode == want_rc if want_rc is not None
                       else p.returncode != 0))
            print(f"self-test: {'ok  ' if ok else 'FAIL'} {name} "
                  f"(exit {p.returncode})")
            if not ok:
                failures.append(name)
                sys.stderr.write(out)
    if failures:
        sys.exit(f"self-test: {len(failures)} of {len(cases)} cases failed")
    print(f"self-test: all {len(cases)} cases passed")


def main():
    ap = argparse.ArgumentParser(
        description="fail on bench regressions vs a committed baseline")
    ap.add_argument("--baseline",
                    help="committed BENCH_dist.json to gate against")
    ap.add_argument("--fresh",
                    help="freshly generated BENCH_dist.json")
    ap.add_argument("--imbalance-tol", type=float, default=0.25,
                    help="max fractional pair-imbalance growth (default .25)")
    ap.add_argument("--time-tol", type=float, default=None,
                    help="max fractional normalized wall-time growth "
                         "(omitted = time check off)")
    ap.add_argument("--hidden-tol", type=float, default=None,
                    help="max absolute drop of the per-mode halo hidden "
                         "fraction hidden/(hidden+blocked) "
                         "(omitted = hidden check off)")
    ap.add_argument("--hidden-floor", type=float, default=1e-3,
                    help="skip the hidden check when the halo window "
                         "(hidden+blocked) is below this many seconds in "
                         "either file (default 1e-3)")
    ap.add_argument("--halo-bytes-ratio-ceiling", type=float, default=None,
                    help="dist files: per policy in the fresh file's "
                         "halo_compression section, LET halo bytes must stay "
                         "at or below this fraction of the full-shell bytes "
                         "(32 B per shipped point), and zeta_max_rel_diff vs "
                         "the single-node engine must stay within the 1e-10 "
                         "distributed gate (absolute contracts — no baseline "
                         "slack; omitted = halo check off)")
    ap.add_argument("--kernel-gflops-floor", type=float, default=None,
                    help="fig4 files: fresh kernel_gflops must stay at or "
                         "above baseline x FLOOR (a fraction, e.g. 0.6; "
                         "required for fig4_breakdown baselines)")
    ap.add_argument("--candidate-ratio-ceiling", type=float, default=None,
                    help="fig4 files: leaf_blocked candidates/pairs must stay "
                         "at or below this ABSOLUTE ceiling (the ratio is "
                         "deterministic for a config, so no baseline slack "
                         "is needed; omitted = ratio check off)")
    ap.add_argument("--query-share-tol", type=float, default=None,
                    help="fig4 files: leaf_blocked neighbor-query share of "
                         "total_seconds may exceed the baseline share by at "
                         "most this much, absolute (omitted = check off)")
    ap.add_argument("--fft-err-ceiling", type=float, default=None,
                    help="fft_estimator files: the committed grid's "
                         "max_rel_err vs the tree backend must stay at or "
                         "below this ABSOLUTE ceiling (the mock is seeded, "
                         "so no baseline slack is needed; required for "
                         "fft_estimator baselines, e.g. 5e-4)")
    ap.add_argument("--fft-err-tol", type=float, default=0.25,
                    help="fft_estimator files: max fractional growth of "
                         "each swept grid's interlaced error over the "
                         "baseline row (default .25 — absorbs libm/"
                         "compiler round-off, fails a real accuracy loss)")
    ap.add_argument("--allow-config-mismatch", action="store_true",
                    help="compare even when run configs differ")
    ap.add_argument("--self-test", action="store_true",
                    help="exercise the gate's own failure modes against "
                         "synthetic fixtures and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.baseline or not args.fresh:
        ap.error("--baseline and --fresh are required (or use --self-test)")

    try:
        compare(args)
    except SystemExit:
        raise
    except (KeyError, TypeError, AttributeError, IndexError) as e:
        # A bench file with the right JSON shape but missing/mis-typed
        # fields must still die on one actionable line, not a traceback.
        sys.exit(f"error: malformed bench JSON "
                 f"({type(e).__name__}: {e}) — missing or mis-typed field; "
                 f"regenerate the file with the current bench binary")


if __name__ == "__main__":
    main()
