"""The benchmark tracer wraps latthermo functions by name: every name must resolve.

``bench/tracing.py`` replaces public and private latthermo attributes (among
them ``spectral.generalized_eigen``, ``stationary._bordered_solve``,
``stationary._saddle_follow`` and ``Supercell._fft_shape``) for one traced
iteration. A rename or deletion in the package breaks the benchmark, not
the package's own tests; this test catches it.
"""

import importlib
from pathlib import Path

import numpy as np

from latthermo import Supercell, preset_model, relax_minimum

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_counts_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    saved = list(patcher._saved)
    try:
        assert saved and all(getattr(owner, attr) is not original
                             for owner, attr, original in saved)
        # a small minimum reads the wrapped names at call time (Supercell._fft_shape too)
        model = preset_model("square_misfit")
        point = relax_minimum(model, Supercell(model.spec, 3))
        assert np.isfinite(point.energy)
        assert tracer.counts["lattice.dft_calls"] > 0
        assert tracer.counts["assembly.hessian_calls"] > 0
    finally:
        patcher.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)
