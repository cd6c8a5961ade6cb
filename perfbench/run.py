"""sinech benchmark: time to solution on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each workload runs in fresh worker
processes (perfbench/worker.py) started one after another, with the
BLAS/OpenMP thread pools pinned to one thread before numpy loads.  Every
worker sets up from scratch (setup_s), then runs whole jobs for its share
of --seconds; every job's outputs are checked.  The last stdout line is
one JSON object: correct, attempted, failed and the metrics, which are
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1 (see BENCHMARK.json and perfbench/README.md).

run.py itself imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("logged-n64", "stride-n128", "settle-n64")

PROCESSES = 2   # fresh job workers per run (a traced run compares their counts)
SETUP_ONLY = 2  # set-up-only workers after each job worker
DEADLINE_S = 170.0    # the whole run, children included
# Time of worker.HostSpeed's kernel at the fast end of the reference host
# (a 2-vCPU Xeon VM: about the 10th percentile of its timings there).  A shared host's
# speed drifts by up to 2x over tens of seconds, so the reported times are
# rescaled to this speed: t * CAL_REF_S / (mean kernel time sampled during t).
CAL_REF_S = 0.0072
# The same for worker.interpreter_probe, run just after set-up to rescale
# setup_s: start-up is interpreter and import work, which HostSpeed's kernel
# does not track.
SETUP_CAL_REF_S = 0.0038

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# per-layer figures are per traced job; counters must repeat exactly
COUNTS = (
    "spectral.inverse.calls", "spectral.forward.calls", "spectral.gradient.calls",
    "spectral.bytes_computed",
    "model.nonlinear.calls", "model.diagnostics.calls", "model.diagnostics.rows",
    "integrator.steps", "integrator.minres.calls", "integrator.minres.iters",
    "analysis.equilibrium.calls", "analysis.equilibrium.newton_iters",
    "analysis.equilibrium.transforms", "analysis.minres.iters",
    "cli.output.bytes",
)
PER_LAYER = {
    "spectral.inverse.calls": "count", "spectral.inverse.self_s": "s",
    "spectral.forward.calls": "count", "spectral.forward.self_s": "s",
    "spectral.gradient.calls": "count", "spectral.gradient.self_s": "s",
    "spectral.bytes_computed": "B",
    "model.nonlinear.calls": "count", "model.nonlinear.self_s": "s",
    "model.diagnostics.calls": "count", "model.diagnostics.rows": "count",
    "model.diagnostics.self_s": "s", "model.diagnostics.ms_per_row": "ms",
    "model.diagnostics.transforms_per_row": "count",
    "integrator.steps": "count", "integrator.advance.ms_per_step": "ms",
    "integrator.advance.self_s": "s",
    "integrator.minres.calls": "count", "integrator.minres.iters": "count",
    "integrator.minres.self_s": "s",
    "analysis.equilibrium.calls": "count", "analysis.equilibrium.s": "s",
    "analysis.equilibrium.newton_iters": "count", "analysis.equilibrium.transforms": "count",
    "analysis.minres.iters": "count",
    "cli.output.s": "s", "cli.output.bytes": "B",
    "process.cpu_over_wall": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def spawn(args, timeout):
    """Run one worker; return its last stdout line parsed as JSON."""
    env = dict(os.environ, **THREAD_PINS)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args[:2])} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def at_reference_speed(seconds, cal_s, ref_s=CAL_REF_S):
    """A time measured while a probe took cal_s, at the speed where it takes ref_s."""
    return seconds * ref_s / cal_s


def layer_metrics(layer):
    """Per-layer figures of one traced job."""
    c, self_s, incl = layer["count"], layer["self_s"], layer["incl_s"]
    rows = c.get("model.diagnostics.rows", 0)
    steps = c.get("integrator.advance.calls", 0)
    m = {name: c.get(name, 0) for name in COUNTS}
    m["integrator.steps"] = steps
    for label in ("spectral.inverse", "spectral.forward", "spectral.gradient",
                  "model.nonlinear", "model.diagnostics", "integrator.advance",
                  "integrator.minres"):
        m[label + ".self_s"] = self_s.get(label, 0.0)
    def per(total, n):
        return total / n if n else 0.0

    m["model.diagnostics.ms_per_row"] = per(1e3 * incl.get("model.diagnostics", 0.0), rows)
    m["model.diagnostics.transforms_per_row"] = per(c.get("model.diagnostics.transforms", 0), rows)
    m["integrator.advance.ms_per_step"] = per(1e3 * incl.get("integrator.advance", 0.0), steps)
    m["analysis.equilibrium.s"] = incl.get("analysis.equilibrium", 0.0)
    m["cli.output.s"] = incl.get("cli.output", 0.0)
    return m


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, environment dict, notes)."""
    if not (ROOT / "src" / "sinech" / "__init__.py").is_file():
        raise BenchError(f"no sinech sources under {ROOT / 'src'}; run from a checkout")
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    spawn(["--prewarm"], deadline - time.monotonic())

    workers, setups = [], []
    for i in range(PROCESSES):
        # each job worker is followed by workers that only set up, so that
        # setup_s is a median over several start-ups spread over the run
        for budget in (seconds / PROCESSES,) + (0.0,) * SETUP_ONLY:
            t0 = time.monotonic()
            w = spawn([
                "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
                "--t0", repr(t0), "--trace", str(trace),
                "--workdir", str(workdir / (f"p{i}" if budget else "setup")),
            ], deadline - t0)
            setups.append(w)
            if budget:
                workers.append(w)

    jobs = [j for w in workers for j in w["jobs"]]
    notes = []
    # repeats of one input must give identical outputs (byte-identical files
    # for the CLI workloads)
    digests = Counter(j["digest"] for j in jobs if j["digest"] is not None)
    if len(digests) > 1:
        common = digests.most_common(1)[0][0]
        for j in jobs:
            if j["digest"] not in (common, None):
                j["failures"].append("outputs differ from the most common repeat")
    failed = sum(1 for j in jobs if j["failures"])
    for j in jobs:
        notes += j["failures"]

    counts_ok = True
    if not trace:
        metrics = {
            "setup_s": statistics.median(at_reference_speed(w["setup_s"], w["setup_cal_s"],
                                                            SETUP_CAL_REF_S) for w in setups),
            "wall_s": statistics.median(at_reference_speed(j["wall_s"], j["cal_s"]) for j in jobs),
            "peak_rss_mb": statistics.median(w["peak_rss_mib"] for w in workers),
        }
        units = END_TO_END
    else:
        per_job = [layer_metrics(layer) for w in workers for layer in w["layers"]]
        metrics = {name: statistics.median(m[name] for m in per_job)
                   for name in per_job[0] if name not in COUNTS}
        for name in COUNTS:
            values = [m[name] for m in per_job]
            if len(set(values)) != 1:
                counts_ok = False
                notes.append(f"count {name} differs between traced jobs: {values}")
            metrics[name] = values[0]
        untraced = statistics.median(at_reference_speed(j["wall_s"], j["cal_s"])
                                     for j in jobs if not j["traced"])
        traced = statistics.median(at_reference_speed(j["wall_s"], j["cal_s"])
                                   for j in jobs if j["traced"])
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        metrics["process.cpu_over_wall"] = statistics.median(w["cpu_over_wall"] for w in workers)
        units = PER_LAYER

    result = {
        "correct": failed == 0 and counts_ok,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = dict(workers[0]["env"], processes=PROCESSES, setups=len(setups), jobs=len(jobs),
               variant=workers[0]["variant"], elapsed_s=time.monotonic() - t_start,
               raw_wall_s=statistics.median(j["wall_s"] for j in jobs),
               raw_setup_s=statistics.median(w["setup_s"] for w in setups),
               setup_calibration_s=statistics.median(w["setup_cal_s"] for w in setups),
               calibration_s=statistics.median(j["cal_s"] for j in jobs))
    return result, env, notes


def report(workload, seed, result, env, notes):
    """Human-readable lines; the JSON result line follows them."""
    print(f"# perfbench {workload} seed={seed} (input variant {env['variant']}): "
          f"{env['jobs']} jobs in {env['processes']} processes, {env['setups']} set-ups, "
          f"{env['elapsed_s']:.1f} s")
    print("# env " + json.dumps({k: env[k] for k in
                                 ("python", "numpy", "scipy", "threads", "nproc",
                                  "cpu_count", "caches")}))
    for name, m in result["metrics"].items():
        print(f"# {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"# {'failed_frac':<40} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(f"# job wall time before rescaling {env['raw_wall_s']:.6g} s (median); host-speed kernel "
          f"{env['calibration_s'] * 1e3:.4g} ms against {CAL_REF_S * 1e3:.4g} ms")
    print(f"# set-up time before rescaling {env['raw_setup_s']:.6g} s (median); interpreter probe "
          f"{env['setup_calibration_s'] * 1e3:.4g} ms against {SETUP_CAL_REF_S * 1e3:.4g} ms")
    for note in notes:
        print(f"# FAILED: {note}")


def self_test():
    """Run every workload briefly, traced and untraced, and check that
    each metric named in BENCHMARK.json is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        if set(want) != set(END_TO_END if trace == 0 else PER_LAYER):
            print(f"self-test: BENCHMARK.json {key} does not list the metrics run.py emits")
            ok = False
        for workload in WORKLOADS:
            result, env, notes = run(workload, seed=0, seconds=1.0, trace=trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = {k: u for k, u in want.items() if got.get(k) != u}
            status = "ok" if result["correct"] and not missing else "FAIL"
            ok &= status == "ok"
            print(f"self-test {workload:<12} trace={trace}: {status} "
                  f"({result['attempted']} jobs, {env['elapsed_s']:.1f} s)"
                  + (f" missing or wrong unit: {missing}" if missing else "")
                  + "".join(f"\n    {n}" for n in notes))
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="sinech benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        result, env, notes = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, result, env, notes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
