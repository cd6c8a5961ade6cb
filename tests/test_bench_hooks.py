"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py wraps sinech functions by name from outside the
package.  A rename that drops one of those names would only show up as
a failed traced benchmark run; this test runs a small traced workload
through the unmodified tracer and checks that every layer was seen.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from sinech import analysis, integrator, spectral
from sinech.integrator import SchemeConfig, State
from sinech.model import Nonlinearity, SourceTerm
from sinech.spectral import GridSpec, ModalField, random_band_limited

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not TRACER.is_file(), reason="perfbench/ is not in this checkout")
def test_tracer_sees_every_layer():
    grid = GridSpec(8, math.pi)
    nl = Nonlinearity(1.0, 0.0, -3.0)
    g = SourceTerm.zero(grid)
    init = State(random_band_limited(grid, 3, 0.5, seed=1), ModalField.zeros(grid))
    originals = (spectral.nodal_values, analysis.find_equilibrium,
                 integrator.Stepper.advance, integrator.minres, analysis.minres)

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        integrator.simulate(init, nl, g, SchemeConfig(dt=1e-2, scheme="implicit_newton"),
                            3e-2)
        rows = tracer.count["model.diagnostics.rows"]
        transforms = tracer.count["model.diagnostics.transforms"]
        gradients = tracer.count["spectral.gradient.calls"]
        # a2 != 0: the odd-type row terms still take a gradient on the 3N grid
        integrator.simulate(init, Nonlinearity(1.0, 0.5, -3.0), g, SchemeConfig(dt=1e-2), 1e-2)
        analysis.find_equilibrium(ModalField.single_mode(grid, 1, 1, 2.0), nl, g)
    finally:
        tracer.uninstall()

    for label in ("spectral.inverse", "spectral.forward", "spectral.gradient",
                  "model.nonlinear", "model.diagnostics",
                  "integrator.advance", "integrator.minres", "analysis.minres",
                  "analysis.equilibrium"):
        assert tracer.count[label + ".calls"] > 0, label
    assert tracer.count["integrator.advance.calls"] == 3 + 1
    assert rows == 4 and tracer.count["model.diagnostics.rows"] == 4 + 2
    # for a2 = 0 a row transforms u_t, A u, A u_t once and takes no gradient;
    # u on the 2N grid and P_n f(u) come from the step
    assert transforms == 3 * rows and gradients == 0
    assert originals == (spectral.nodal_values, analysis.find_equilibrium,
                         integrator.Stepper.advance, integrator.minres, analysis.minres)
