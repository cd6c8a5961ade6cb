"""Record the reference values the benchmark checks every job against.

    python3 perfbench/make_reference.py --commit <hash of the measured commit>

Runs one job of every workload for every input variant (seed % 32) at
the checked-out sources and writes perfbench/reference.json.  Run it
only at a commit whose results are trusted: a later run overwrites the
values that define "correct".  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import THREAD_PINS  # noqa: E402

os.environ.update(THREAD_PINS)  # before numpy loads
import worker  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    args = ap.parse_args(argv)

    worker.import_sinech()

    src = worker.ROOT / "src" / "sinech"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    table = {
        "commit": args.commit,
        "src_lines": src_lines,  # informational: src/sinech/*.py at that commit
        "versions": {"python": platform.python_version(), "numpy": worker.np.__version__,
                     "scipy": worker.scipy.__version__},
        "workloads": {},
    }
    scratch = HERE / "_work" / "reference"
    for name, wl in worker.WORKLOADS.items():
        table["workloads"][name] = {}
        for variant in range(worker.N_VARIANTS):
            workdir = scratch / name / str(variant)
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            wl.setup(variant, workdir)
            rec = wl.record(wl.job())
            ref = wl.reference(rec)
            # the job must pass its own checks against what it just produced
            bad = wl.check(rec, ref)
            if bad:
                raise SystemExit(f"{name} variant {variant}: {bad}")
            table["workloads"][name][str(variant)] = ref
            print(f"{name} variant {variant}: ok", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    worker.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
