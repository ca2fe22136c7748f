"""The benchmark tracer wraps latthermo functions by name: every name must resolve.

``bench/tracing.py`` replaces public and private latthermo attributes (among
them ``spectral.generalized_eigen``, ``stationary._bordered_solve``,
``stationary._saddle_follow`` and ``Supercell._fft_shape``) for one traced
iteration. A rename or deletion in the package breaks the benchmark, not
the package's own tests; this test catches it.

No pipeline stage calls ``Supercell.dft``/``idft``: ``FApplier`` applies F_N
by real-input FFTs of its own. The test reaches its ``lattice.dft_calls``
assertion by calling ``kernel_FN``, the dense kernel table, directly.
"""

import importlib
from pathlib import Path

import numpy as np

from latthermo import (Supercell, kernel_FN, preset_model, relax_minimum, site_entropies,
                       site_entropy_first_variation, stationary)

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
        # a small minimum, its site profile and first variation read the
        # wrapped names at call time (Supercell._fft_shape too). They apply
        # F_N by FApplier's real-input FFTs, so no pipeline stage calls the
        # complex DFT: the dense kernel table, the tests' oracle, is called
        # directly to reach the wrapped Supercell.dft/idft
        model = preset_model("square_misfit")
        point = relax_minimum(model, Supercell(model.spec, 3))
        assert np.isfinite(point.energy)
        assert tracer.counts["spectral.fapply_columns"] > 0
        assert np.isfinite(site_entropies(model, point).total)
        assert np.all(np.isfinite(site_entropy_first_variation(model, [0], point)))
        assert tracer.counts["lattice.dft_calls"] == 0
        assert np.all(np.isfinite(kernel_FN(model, point.u.cell).values))
        assert tracer.counts["lattice.dft_calls"] > 0
        assert tracer.counts["assembly.hessian_calls"] > 0
        # the N=3 double-well saddle from the midpoint of the minimum and its
        # mirror image goes through the wrapped find_saddle (looked up on its
        # module at call time), _saddle_follow and, in the Newton steps of
        # the minimum and the saddle, _bordered_solve
        model = preset_model("square_double_well")
        cell = Supercell(model.spec, 3)
        kick = np.zeros((cell.n, 2))
        kick[cell.index((0, 0))] = [0.15, 0.0]
        solves = tracer.counts["stationary.newton_solves"]
        minimum = relax_minimum(model, cell, initial_guess=kick)
        assert tracer.counts["stationary.newton_solves"] > solves
        act, u = cell.symmetry(model.mirror).act, minimum.u.values
        solves = tracer.counts["stationary.newton_solves"]
        saddle = stationary.find_saddle(model, cell, initial_guess=0.5 * (u + act(u)), max_iter=40)
        assert tracer.counts["stationary.newton_solves"] > solves
        assert saddle.route == "follow" and saddle.lam < 0
        assert tracer.counts["stationary.follow_attempts"] == 1
        assert tracer.counts["stationary.follow_converged"] == 1
        assert tracer.counts["stationary.saddle_iters"] == saddle.n_iter
    finally:
        patcher.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)
