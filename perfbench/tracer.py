"""Span tracing of sinech layer calls, installed from outside the package.

The tracer swaps selected functions for timing wrappers in every
``sinech.*`` module namespace that holds them (the modules import each
other's functions by name, so patching the defining module alone would
miss most calls) and restores the originals on ``uninstall``.  Each
wrapped call is timed on a stack of open calls; its self time is its
duration minus the time covered by the wrapped calls it made.  Only the
per-label counters are kept, not the individual calls.

Nothing in ``src/`` is changed; the benchmark decides what a layer
boundary is.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

TRANSFORMS = ("spectral.inverse", "spectral.forward", "spectral.gradient")
# labels whose enclosed transform calls are counted separately
TRANSFORM_SCOPES = ("model.diagnostics", "analysis.equilibrium")


def _transform_bytes(label, args, result):
    """Bytes read plus bytes written by one transform, computed from the
    array shapes (not measured: cache traffic is ignored)."""
    if label == "spectral.inverse":
        m = result.shape[0]
        return 2 * 8 * m * m  # padded modal block in, nodal grid out
    if label == "spectral.forward":
        m = args[0].shape[0]
        return 2 * 8 * m * m
    gx, gy = result  # spectral.gradient
    return 8 * (args[0].coeff.size + gx.size + gy.size)


class Tracer:
    """Collects per-label counters for one traced job at a time."""

    def __init__(self):
        self._patches = []  # (owner, attribute name, original)
        self.reset()

    def reset(self):
        self.count = Counter()   # calls and work counters
        self.self_s = Counter()  # label -> summed self time
        self.incl_s = Counter()  # label -> summed inclusive time
        self._stack = []         # [label, start, child time] of each open call
        self._active = Counter()

    # -- call bookkeeping --------------------------------------------------

    def _enter(self, label):
        self.count[label + ".calls"] += 1
        if label in TRANSFORMS:
            for scope in TRANSFORM_SCOPES:
                if self._active[scope]:
                    self.count[scope + ".transforms"] += 1
        self._active[label] += 1
        frame = [label, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        label, start, child = frame
        dur = end - start
        self._active[label] -= 1
        self.incl_s[label] += dur
        self.self_s[label] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, fn, label, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_minres(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            user_cb = kwargs.get("callback")

            def callback(xk):
                tracer.count[label + ".iters"] += 1
                if user_cb is not None:
                    user_cb(xk)

            kwargs["callback"] = callback
            frame = tracer._enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_everywhere(self, fn, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sinech" or modname.startswith("sinech.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, name, wrapper)

    def install(self):
        import sinech.analysis as analysis
        import sinech.cli as cli
        import sinech.integrator as integrator
        import sinech.model as model
        import sinech.spectral as spectral

        def transform_done(label):
            def after(args, kwargs, result):
                self.count["spectral.bytes_computed"] += _transform_bytes(label, args, result)
            return after

        def file_written(args, kwargs, result):
            self.count["cli.output.bytes"] += os.path.getsize(args[0])

        def equilibrium_done(args, kwargs, result):
            self.count["analysis.equilibrium.newton_iters"] += result.newton_iters

        def row_done(args, kwargs, result):
            self.count["model.diagnostics.rows"] += 1

        plain = [
            (spectral.nodal_values, "spectral.inverse", transform_done("spectral.inverse")),
            (spectral.modal_from_values, "spectral.forward", transform_done("spectral.forward")),
            (spectral.gradient_values, "spectral.gradient", transform_done("spectral.gradient")),
            (model.nonlinear_term_and_potential, "model.nonlinear", None),
            (model.f_eval_dealiased, "model.nonlinear", None),
            # one log row evaluates both functionals, higher_functionals first
            (model.higher_functionals, "model.diagnostics", row_done),
            (model.diagnostic_F, "model.diagnostics", None),
            (analysis.find_equilibrium, "analysis.equilibrium", equilibrium_done),
        ]
        for fn, label, after in plain:
            self._patch_everywhere(fn, self._wrap(fn, label, after))
        # the cli's output files: its JSON writer, snapshots and the CSV log
        self._patch(cli, "_write_json", self._wrap(cli._write_json, "cli.output", file_written))
        self._patch(cli, "save_field", self._wrap(cli.save_field, "cli.output", file_written))
        self._patch(integrator.TrajectoryLog, "write_csv",
                    self._wrap(integrator.TrajectoryLog.write_csv, "cli.output",
                               lambda a, k, r: file_written(a[1:], k, r)))
        self._patch(integrator.Stepper, "advance",
                    self._wrap(integrator.Stepper.advance, "integrator.advance"))
        self._patch(integrator, "minres", self._wrap_minres(integrator.minres, "integrator.minres"))
        self._patch(analysis, "minres", self._wrap_minres(analysis.minres, "analysis.minres"))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
