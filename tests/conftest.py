"""Shared test set-up: the same Hypothesis examples wherever a test runs.

Besides its seeded random choices, Hypothesis draws integers, floats,
bytes and strings from a pool of constants: a fixed global part, and
the literals it reads out of the local modules loaded at the time it
looks (here ``src/sinech``, and ``perfbench`` once a test has imported
it).  So the ``derandomize=True`` tests would draw other examples after
an edit of any literal in the package, and could draw others depending
on what ran before them.  The autouse fixture below empties the local
part for every test, through Hypothesis's private
``providers._get_local_constants`` and its ``CONSTANTS_CACHE`` of
filtered pools, so a derandomized test draws the same examples for one
Hypothesis version, run alone or in the suite.  The inputs that matter
are pinned with ``@example``.
"""

import pytest
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants


@pytest.fixture(autouse=True)
def _no_local_hypothesis_constants(monkeypatch):
    monkeypatch.setattr(providers, "_get_local_constants", Constants)
    providers.CONSTANTS_CACHE.cache.clear()
    yield
    providers.CONSTANTS_CACHE.cache.clear()
