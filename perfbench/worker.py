"""One benchmark process: set up one workload, run timed jobs, check them.

Started by ``run.py`` in a fresh interpreter whose BLAS/OpenMP thread
counts are already pinned to 1 in its environment.  It imports sinech
from the checkout's ``src/`` (never from an installed copy), builds the
workload, makes one warm-up call, then runs whole jobs until its time
share is used, checking every job's outputs.  It prints one JSON line.

Usage (normally only through run.py):
    python3 perfbench/worker.py --workload NAME --seed N --budget S
        --t0 MONOTONIC --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --prewarm
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import fft

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Reference values exist for this many input variants; --seed picks one.
N_VARIANTS = 32
# Final energies and norms against the values recorded at the seed commit.
REF_RTOL = 1e-9
# The stability indicator is the smallest eigenvalue of a dense restricted
# operator.  An iterative eigensolver on the full operator (ARPACK eigsh)
# agrees to 3e-14 here; this leaves room for such a solver's tolerance.
STABILITY_RTOL = 1e-6
# The logged energy may not rise by more than this between rows.
ENERGY_RISE_TOL = 1e-8


def import_sinech():
    """Import sinech from ROOT/src and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sinech

    where = Path(sinech.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"sinech imported from {where}, not from {src}")
    return sinech


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CliWorkload:
    """`sinech simulate` run in-process on one JSON config.

    A job is one cli.main call; its outputs are the files it writes.
    """

    def __init__(self, n_modes, band, amplitude, t_end, sample_every, dissip_rtol):
        self.n_modes = n_modes
        self.band = band
        self.amplitude = amplitude
        self.t_end = t_end
        self.sample_every = sample_every
        self.dissip_rtol = dissip_rtol
        self.n_steps = int(round(t_end / 1e-3))
        self.samples = 1 + self.n_steps // sample_every + (self.n_steps % sample_every != 0)

    def config(self, variant, t_end=None, sample_every=None):
        return {
            "grid": {"n_modes": self.n_modes},
            "nonlinearity": {"a3": 1.0, "a2": 0.0, "a1": -1.0},
            "initial": {"u": {"preset": "random_band", "band": self.band,
                              "amplitude": self.amplitude}},
            "scheme": {"dt": 1e-3},
            "t_end": self.t_end if t_end is None else t_end,
            "sample_every": self.sample_every if sample_every is None else sample_every,
            "seed": variant,
        }

    def _write(self, path, cfg):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg))

    def setup(self, variant, workdir):
        from sinech import cli

        self.cli = cli
        self.out = workdir / "out"
        self.cfg_path = workdir / "config.json"
        self._write(self.cfg_path, self.config(variant))
        # warm-up: two steps and three rows at the workload's grid size
        warm = workdir / "warm"
        self._write(warm / "config.json", self.config(variant, t_end=2e-3, sample_every=1))
        rc = cli.main(["simulate", "--config", str(warm / "config.json"),
                       "--output-dir", str(warm), "--quiet"])
        if rc != 0:
            raise RuntimeError(f"warm-up simulate exited {rc}")

    def job(self):
        return self.cli.main(["simulate", "--config", str(self.cfg_path),
                              "--output-dir", str(self.out), "--quiet"])

    def record(self, rc):
        """Values checked against the reference, plus the output digest."""
        traj = (self.out / "trajectory.csv").read_bytes()
        summ = (self.out / "summary.json").read_bytes()
        s = json.loads(summ)
        rows = traj.decode().splitlines()
        energy = [float(r.split(",")[4]) for r in rows[1:]]
        dissip = float(rows[-1].split(",")[8])
        return {
            "rc": rc,
            "header": rows[0],
            "energy": energy,
            "dissip_last": dissip,
            "values": {k: s[k] for k in ("energy_initial", "energy_final", "norm0_final",
                                         "norm2_final", "dissipation_integral", "t_final")},
            "samples": s["samples"],
            "digest": hashlib.sha256(traj + b"\0" + summ).hexdigest(),
        }

    def check(self, rec, ref):
        bad = []
        if rec["rc"] != 0:
            return [f"simulate exited {rec['rc']}"]
        if rec["header"] != "t,norm0,norm2,ut_Vprime,energy,calF,calG,calH,dissip_cum":
            bad.append(f"unexpected trajectory header {rec['header']!r}")
        if rec["samples"] != self.samples or len(rec["energy"]) != self.samples:
            bad.append(f"{len(rec['energy'])} rows, {rec['samples']} in summary, "
                       f"expected {self.samples}")
        e = rec["energy"]
        rise = max(b - a for a, b in zip(e, e[1:]))
        if rise > ENERGY_RISE_TOL:
            bad.append(f"energy rose by {rise:.3e} between rows")
        drop = e[0] - e[-1]
        if abs(rec["dissip_last"] - drop) > self.dissip_rtol * abs(drop):
            bad.append(f"|dissip_cum - drop| = {abs(rec['dissip_last'] - drop):.3e} "
                       f"> {self.dissip_rtol:g} * |drop| ({abs(drop):.3e})")
        v = rec["values"]
        if v["energy_final"] != e[-1] or v["dissipation_integral"] != rec["dissip_last"]:
            bad.append("summary.json disagrees with the last trajectory row")
        if not math.isclose(v["t_final"], self.t_end, rel_tol=1e-12):
            bad.append(f"t_final {v['t_final']!r} != {self.t_end}")
        for key, want in ref.items():
            if not math.isclose(v[key], want, rel_tol=REF_RTOL, abs_tol=1e-12):
                bad.append(f"{key} = {v[key]!r}, reference {want!r}")
        return bad

    def reference(self, rec):
        return {k: rec["values"][k] for k in ("energy_initial", "energy_final", "norm0_final",
                                               "norm2_final", "dissipation_integral")}


class SettleWorkload:
    """Implicit relaxation of several seeds of f = u^3 - 3u, then the
    Newton equilibrium solve and stability indicator from each final u.

    A job runs every seed of the variant through the public API; no IMEX
    step and no log row is computed.
    """

    n_modes = 64
    seeds_per_job = 3
    dt = 0.1
    n_steps = 40  # four time units

    def setup(self, variant, workdir):
        from sinech import analysis, integrator, spectral
        from sinech.integrator import SchemeConfig, State
        from sinech.model import Nonlinearity, SourceTerm
        from sinech.spectral import GridSpec, ModalField, random_band_limited

        # calls go through the modules so that a tracer's wrappers see them
        self.analysis, self.integrator, self.spectral = analysis, integrator, spectral
        grid = GridSpec(self.n_modes, math.pi)
        self.nl = Nonlinearity(1.0, 0.0, -3.0)
        self.g = SourceTerm.zero(grid)
        self.scheme = SchemeConfig(dt=self.dt, scheme="implicit_newton")
        # the unstable mode (1,1) at amplitude 0.5 plus a seeded low-mode
        # perturbation: every seed does similar work, so the job's cost
        # does not depend on which seeds the variant draws
        self.initial = [
            State(ModalField.single_mode(grid, 1, 1, 0.5)
                  + random_band_limited(grid, 3, 0.1, seed=self.seeds_per_job * variant + i),
                  ModalField.zeros(grid))
            for i in range(self.seeds_per_job)
        ]
        # warm-up: one implicit step builds the padded plans and buffers
        integrator.Stepper(self.initial[0], self.nl, self.g, self.scheme).advance()

    def job(self):
        out = []
        for init in self.initial:
            st = self.integrator.Stepper(init, self.nl, self.g, self.scheme)
            energy = [st.energy_total()]
            for _ in range(self.n_steps):
                st.advance()
                energy.append(st.energy_total())
            out.append((energy, st.state,
                        self.analysis.find_equilibrium(st.state.u, self.nl, self.g)))
        return out

    def record(self, out):
        norm_Hs, norm_pair = self.spectral.norm_Hs, self.spectral.norm_pair
        seeds = []
        for energy, state, eq in out:
            seeds.append({
                "energy": energy,
                "converged": eq.converged,
                "residual": eq.residual,
                "values": {
                    "energy_relaxed": energy[-1],
                    "norm0_relaxed": norm_pair(state.u, state.v, 0.0),
                    "energy_star": eq.energy_at,
                    "norm_v_star": norm_Hs(eq.u_star, 0.5),
                    "stability": eq.stability_indicator,
                },
            })
        blob = json.dumps([s["values"] for s in seeds]).encode()
        return {"seeds": seeds, "digest": hashlib.sha256(blob).hexdigest()}

    def check(self, rec, ref):
        bad = []
        for i, (s, want) in enumerate(zip(rec["seeds"], ref)):
            e = s["energy"]
            rise = max(b - a for a, b in zip(e, e[1:]))
            if rise > ENERGY_RISE_TOL:
                bad.append(f"seed {i}: energy rose by {rise:.3e} in one step")
            if not s["converged"]:
                bad.append(f"seed {i}: equilibrium solve did not converge")
            if not s["residual"] <= 1e-10:
                bad.append(f"seed {i}: equilibrium residual {s['residual']:.3e} > 1e-10")
            for key, val in s["values"].items():
                rtol = STABILITY_RTOL if key == "stability" else REF_RTOL
                if not math.isclose(val, want[key], rel_tol=rtol, abs_tol=1e-12):
                    bad.append(f"seed {i}: {key} = {val!r}, reference {want[key]!r}")
        if len(rec["seeds"]) != len(ref):
            bad.append(f"{len(rec['seeds'])} seeds, reference has {len(ref)}")
        return bad

    def reference(self, rec):
        return [s["values"] for s in rec["seeds"]]


WORKLOADS = {
    # default CLI sampling (one row per step): diagnostics dominate.  At
    # t_end = 1 (the horizon of the repository's own dissipation test) every
    # input variant balances its energy to 1e-5; shorter horizons do not
    # (up to 1.1e-5 at t_end = 0.6).
    "logged-n64": CliWorkload(64, 4, 1.0, t_end=1.0, sample_every=1,
                              dissip_rtol=1e-5),
    # step-bound: two rows in 500 steps.  Band-8, amplitude-2 data leaves an
    # O(dt^2) dissipation-balance error of 1.4-2.3e-4 at dt = 1e-3 (it falls
    # about 5x when dt halves), so the balance is checked to 1e-3 here.
    "stride-n128": CliWorkload(128, 8, 2.0, t_end=0.5, sample_every=500,
                               dissip_rtol=1e-3),
    "settle-n64": SettleWorkload(),
}


# ---------------------------------------------------------------------------
# the process
# ---------------------------------------------------------------------------

def cache_sizes():
    """CPU caches of cpu0 as {'L1-Data': '48K', ...}; empty where sysfs is absent."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        sizes[f"L{level}-{kind}"] = size
    return sizes


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": cache_sizes(),
    }


def load_reference(workload, variant):
    table = json.loads(REFERENCE.read_text())
    return table["workloads"][workload][str(variant)]


class HostSpeed:
    """Times a fixed kernel that does not use sinech: the host's current speed.

    On a shared host the vCPU speed drifts by up to 2x over tens of
    seconds, and by 20-50 % within a few seconds, in CPU time as much as
    in wall time (a neighbour on the sibling hyperthread, not lost time
    slices).  The kernel mixes the jobs' two kinds of work: DST-I on a
    128 x 128 array, which stays in cache, and elementwise passes over
    4 MiB arrays, which do not.  Contention slows the first less than the
    jobs and the second more (timed alone, job time goes as about the
    0.7-0.8th power of the DST part and the 1.6-1.9th of the other); the
    mix, about 75:25 in time, tracks all three workloads.  ``probe()``
    times it once; inside ``during()`` a timer signal also times it every
    PERIOD seconds while a job runs, and the time spent doing so is kept
    in ``spent`` so the caller can take it out of the job's wall time.
    A job costs the integral of the host's slowness over it, so it is
    rescaled by the mean of these samples, not by probes around it alone.
    """

    REPS = 12        # DST-I passes, about 5.5 ms at full speed
    STREAM_REPS = 2  # passes over the 4 MiB arrays, about 2 ms
    PERIOD = 0.5     # seconds between samples inside a job

    def __init__(self):
        rng = np.random.default_rng(0)
        self.data = rng.standard_normal((128, 128))
        self.stream = rng.standard_normal(2**19)
        self.out = np.empty_like(self.stream)
        self.samples, self.spent = [], 0.0

    def probe(self):
        start = time.perf_counter()
        x = self.data
        for _ in range(self.REPS):
            x = fft.dstn(x, type=1)
            x *= 1.0 / np.abs(x).max()
        for _ in range(self.STREAM_REPS):
            np.multiply(self.stream, 1.0000001, out=self.out)
            np.add(self.out, self.stream, out=self.out)
        return time.perf_counter() - start

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.probe())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def during(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# A fixed module of 60 small functions and classes, unrelated to sinech.
PROBE_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n    return [a + b * k for k in range({i})]\n"
    f"class C{i}:\n    x = {i}\n    def m(self):\n        return f{i}(self.x)"
    for i in range(60))


def interpreter_probe():
    """Seconds to compile and execute PROBE_SOURCE (about 4 ms at full
    speed).  Start-up is mostly interpreter work (unmarshalling and
    executing module bodies), which this tracks and the kernel of
    HostSpeed does not."""
    start = time.perf_counter()
    exec(compile(PROBE_SOURCE, "<probe>", "exec"), {})
    return time.perf_counter() - start


def run_jobs(wl, ref, budget, trace, speed):
    """Run jobs until the time share is used (at least one job, or one
    untraced/traced pair when tracing).  Returns the job list, the
    traced per-job layer figures and CPU over wall time of the jobs.
    A job's wall time excludes the host-speed samples taken while it
    ran; its cal_s is the mean of those samples and of the probes just
    before and just after it."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    jobs, layers = [], []
    cpu = busy = 0.0
    wall0 = time.perf_counter()
    cal_before = speed.probe()
    rounds = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.reset()
                tracer.install()
            with speed.during():
                cpu_start, start = time.process_time(), time.perf_counter()
                try:
                    try:
                        raw = wl.job()
                    finally:
                        wall = time.perf_counter() - start - speed.spent
                        cpu += time.process_time() - cpu_start - speed.spent
                        busy += wall
                        if traced:
                            tracer.uninstall()
                    rec = wl.record(raw)
                    failures = wl.check(rec, ref)
                    digest = rec["digest"]
                except Exception as exc:  # a failed job is counted, not fatal
                    failures, digest = [f"{type(exc).__name__}: {exc}"], None
                samples = list(speed.samples)
            cal_after = speed.probe()
            jobs.append({"wall_s": wall,
                         "cal_s": statistics.fmean([cal_before, *samples, cal_after]),
                         "traced": traced, "failures": failures, "digest": digest})
            cal_before = cal_after
            if traced:
                layers.append({"count": dict(tracer.count), "self_s": dict(tracer.self_s),
                               "incl_s": dict(tracer.incl_s)})
        rounds += 1
        elapsed = time.perf_counter() - wall0
        if elapsed + elapsed / rounds > budget:  # another round would overrun
            break
    return jobs, layers, cpu / busy


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--prewarm", action="store_true",
                    help="only import sinech, numpy and scipy (fills the bytecode cache)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="the input variant is seed mod N_VARIANTS")
    ap.add_argument("--budget", type=float, help="seconds of jobs; 0 = set up only")
    ap.add_argument("--t0", type=float, help="time.monotonic() when the parent started us")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)

    import_sinech()
    import sinech.analysis, sinech.cli  # noqa: E401,F401  (the whole package)
    if args.prewarm:
        print("{}")
        return 0

    wl = WORKLOADS[args.workload]
    variant = args.seed % N_VARIANTS
    ref = load_reference(args.workload, variant)
    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl.setup(variant, workdir)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "variant": variant, "env": environment(),
           # the interpreter's speed just after set-up, to rescale setup_s by
           "setup_cal_s": statistics.fmean(interpreter_probe() for _ in range(10))}
    if args.budget > 0:
        jobs, layers, cpu_over_wall = run_jobs(wl, ref, args.budget, args.trace, HostSpeed())
        out.update(jobs=jobs, layers=layers, cpu_over_wall=cpu_over_wall,
                   peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
