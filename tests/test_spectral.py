import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from latthermo import (
    AmbiguousSpectrumError,
    DisplacementField,
    Supercell,
    conjugate_operator,
    generalized_eigen,
    hessian,
    kernel_F,
    kernel_FN,
    logdet_plus,
    matrix_log_plus,
    preset_model,
    projector_constants,
)
from latthermo import entropy_total, site_entropies, spectral
from latthermo.assembly import LinearLatticeOperator
from latthermo.config import load_config, model_from_config
from latthermo.potentials import PRESETS, symbol_h_batch
from latthermo.spectral import (
    FApplier,
    _extremal_eig,
    _inverse_sqrt_batch,
    _lanczos_ends,
    _mean_project,
    _perm_parity,
    classify_eigenvalues,
    log_plus_contour,
    logdet_plus_factorized,
    site_log_traces,
)

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"


def double_well_pair(N=4):
    """The N-cell square double-well minimum, relaxed from the kick, and the
    saddle found from the midpoint of it and its mirror image."""
    from latthermo import find_saddle, relax_minimum
    model = preset_model("square_double_well")
    cell = Supercell(model.spec, N)
    kick = np.zeros((cell.n, 2))
    kick[cell.index((0, 0))] = [0.15, 0.0]
    minimum = relax_minimum(model, cell, initial_guess=kick)
    act, u = cell.symmetry(model.mirror).act, minimum.u.values
    return model, cell, minimum, find_saddle(model, cell, initial_guess=0.5 * (u + act(u)))


def stable_state(name="square_misfit", N=4, scale=0.03, seed=0):
    model = PRESETS[name]()
    cell = Supercell(model.spec, N)
    rng = np.random.default_rng(seed)
    u = DisplacementField(cell, scale * rng.standard_normal((cell.n, model.spec.m)))
    return model, cell, u


def symbol_F(model, k):
    """F_hat(k) = h_hat(k)^-1/2 at one k != 0."""
    return _inverse_sqrt_batch(symbol_h_batch(model, np.asarray(k, dtype=float)[None]))[0]


class TestSymbolF:
    def test_chain_hand_inverse(self):
        model = preset_model("chain_harmonic")
        for k in (0.4, 1.1, 2.9):
            F = symbol_F(model, np.array([k]))
            assert abs(F[0, 0] - 1.0 / (2.0 * abs(np.sin(k / 2)))) < 1e-12

    def test_scalar_model_matches_pow(self):
        model = preset_model("chain_misfit")
        k = np.array([0.8])
        h = symbol_h_batch(model, k[None])[0]
        F = symbol_F(model, k)
        assert abs(F[0, 0] - h[0, 0].real ** -0.5) < 1e-12

    def test_inverse_square_root_residual(self):
        model = preset_model("square_anharmonic")
        rng = np.random.default_rng(1)
        for _ in range(5):
            k = rng.uniform(-np.pi, np.pi, 2)
            F = symbol_F(model, k)
            h = symbol_h_batch(model, k[None])[0]
            assert np.max(np.abs(F @ h @ F - np.eye(2))) < 1e-12

    def test_k_zero_rejected(self):
        model = preset_model("square_anharmonic")
        with pytest.raises(FloatingPointError):
            symbol_F(model, np.zeros(2))


class TestKernels:
    def test_FN_zero_mean_and_even(self):
        model, cell, _ = stable_state(N=4)
        FN = kernel_FN(model, cell)
        assert np.max(np.abs(FN.values.sum(axis=0))) < 1e-12
        neg = cell.site_indices(-cell.x)
        assert np.max(np.abs(FN.values - FN.values[neg])) < 1e-12
        sym = np.max(np.abs(FN.values - np.swapaxes(FN.values, 1, 2)))
        assert sym < 1e-12

    def test_kernel_F_even_structure(self):
        model = preset_model("square_anharmonic")
        table = kernel_F(model, M_quad=16)
        cell = table.cell
        # evenness transfers to differences: D_rho F(-l - rho) = -D_rho F(l) mirrored
        D = table.dtable()
        rng = np.random.default_rng(2)
        sx = cell.spec.stencil_x
        for _ in range(10):
            i = rng.integers(cell.n)
            j = rng.integers(cell.spec.nR)
            lhs = D[i, j]
            other = cell.index(-cell.x[i] - sx[j])
            rhs = -D[other, j]
            assert np.max(np.abs(lhs - rhs.T)) < 1e-10

    def test_kernel_F_validity_radius_guard(self):
        model = preset_model("square_anharmonic")
        with pytest.raises(ValueError):
            kernel_F(model, M_quad=8, max_offset=8.0)


class TestConjugation:
    def test_FopN_identities(self):
        for name, N in [("chain_harmonic", 6), ("square_anharmonic", 4)]:
            model = PRESETS[name]()
            cell = Supercell(model.spec, N)
            FN = kernel_FN(model, cell)
            Fmat = FN.dense_operator()
            assert Fmat.symmetry_defect() < 1e-12           # FopN1: self-adjoint
            H = hessian(model.homogenized(), cell.zero_field())
            pi = projector_constants(cell).mat
            A = conjugate_operator(FN, H, include_pi=True)
            dim = cell.n * cell.spec.m
            assert np.max(np.abs(A.dense() - np.eye(dim))) < 1e-10   # FopN2
            FP = Fmat.dense() @ pi
            PF = pi @ Fmat.dense()
            assert max(np.max(np.abs(FP)), np.max(np.abs(PF))) < 1e-12  # FopN3

    def test_conjugated_defect_spectrum_positive(self):
        model, cell, u = stable_state("square_misfit", N=4, scale=0.02)
        FN = kernel_FN(model, cell)
        H = hessian(model, u)
        A = conjugate_operator(FN, H, include_pi=True)
        w = np.linalg.eigvalsh(A.dense())
        assert w.min() > 0.1
        assert w.max() < 10.0


class TestLogdet:
    def test_known_eigenvalues(self):
        # diag(0, 0, 2, 2) -> 2 log 2
        model, cell, _ = stable_state("chain_harmonic", N=2)
        vals = np.diag([0.0, 0.0, 2.0, 2.0])
        op = LinearLatticeOperator(cell, vals)
        v, cls = logdet_plus(op, expected_zero=2)
        assert abs(v - 2 * np.log(2.0)) < 1e-12
        assert cls.n_positive == 2

    def test_identity_on_zero_mean_subspace(self):
        model, cell, _ = stable_state("chain_harmonic", N=2)
        n = cell.n
        pi = projector_constants(cell).mat
        op = LinearLatticeOperator(cell, np.eye(n) - pi)
        v, _ = logdet_plus(op, expected_zero=1)
        assert abs(v) < 1e-12

    def test_random_spd_oracle(self):
        model, cell, _ = stable_state("chain_harmonic", N=4)
        rng = np.random.default_rng(3)
        n = cell.n
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([np.zeros(1), rng.uniform(0.5, 3.0, n - 1)])
        A = (Q * lam) @ Q.T
        op = LinearLatticeOperator(cell, A)
        v, _ = logdet_plus(op, expected_zero=1)
        oracle = np.sum(np.log(lam[1:]))
        assert abs(v - oracle) < 1e-9 * max(1.0, abs(oracle))

    def test_dead_zone_raises(self):
        model, cell, _ = stable_state("chain_harmonic", N=2)
        vals = np.diag([1e-9, 1.0, 1.0, 1.0])   # ambiguous: inside (tau, 10 tau)
        op = LinearLatticeOperator(cell, vals)
        with pytest.raises(AmbiguousSpectrumError):
            logdet_plus(op, expected_zero=0)

    def test_factorized_matches_dense_minimum(self):
        model, cell, u = stable_state("square_misfit", N=4, scale=0.02)
        H = hessian(model, u)
        dense_val, _ = logdet_plus(H, expected_zero=2)
        fact_val = logdet_plus_factorized(H)
        assert abs(dense_val - fact_val) < 1e-9 * max(1.0, abs(dense_val))

    @pytest.mark.parametrize("name, N", [("square_misfit", 12), ("sheared_misfit", 6)])
    def test_factorized_matches_symbol_on_homogeneous_hessian(self, name, N):
        # two independent routes to log det+ H_N^hom: the bordered sparse LU of
        # the assembled Hessian, and the applier's sum of log det h_hat(k) =
        # -2 log |det F_hat(k)| over k != 0
        model = sheared_misfit() if name == "sheared_misfit" else PRESETS[name]()
        cell = Supercell(model.spec, N)
        fact_val = logdet_plus_factorized(hessian(model.homogenized(), cell.zero_field()))
        closed = FApplier(cell, model).logdet_hom
        assert abs(fact_val - closed) < 1e-10 * abs(closed)

    def test_factorized_matches_dense_indefinite(self):
        # flip one eigenvalue to emulate a saddle Hessian
        model, cell, u = stable_state("square_anharmonic", N=3, scale=0.02)
        H = hessian(model, u).dense()
        w, V = np.linalg.eigh(H)
        w2 = w.copy()
        w2[np.argmax(w > 1e-8)] *= -1.0          # smallest positive becomes negative
        A = (V * w2) @ V.T
        op = LinearLatticeOperator(cell, A)
        dense_val, cls = logdet_plus(op, expected_zero=2, expected_negative=1)
        neg = w2[w2 < -cls.tau_zero]
        op_sparse = LinearLatticeOperator(cell, sp.csr_matrix(A))
        assert len(neg) == 1
        fact_val = logdet_plus_factorized(op_sparse, negative=neg[0])
        assert abs(dense_val - fact_val) < 1e-8 * max(1.0, abs(dense_val))

    def test_perm_parity_matches_determinant_sign(self):
        # an independent parity: the sign of det of the permutation matrix
        rng = np.random.default_rng(4)
        swap = np.arange(9)
        swap[[2, 6]] = [6, 2]
        perms = [rng.permutation(n) for n in (1, 2, 3, 7, 40, 129) for _ in range(6)]
        for perm in perms + [swap, np.arange(9)]:
            assert _perm_parity(perm) == round(np.linalg.det(np.eye(len(perm))[perm]))
        assert _perm_parity(swap) == -1 and _perm_parity(np.arange(9)) == 1


class TestMatrixLogPlus:
    def test_scaled_identity(self):
        model, cell, _ = stable_state("chain_harmonic", N=2)
        op = LinearLatticeOperator(cell, 2.0 * np.eye(cell.n))
        L, _ = matrix_log_plus(op, expected_zero=0)
        assert np.max(np.abs(L.dense() - np.log(2.0) * np.eye(cell.n))) < 1e-12

    def test_trace_equals_logdet(self):
        model, cell, u = stable_state("square_misfit", N=3, scale=0.02)
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, hessian(model, u), include_pi=False)
        L, cls = matrix_log_plus(A, expected_zero=2)
        v, _ = logdet_plus(A, expected_zero=2)
        assert abs(np.trace(L.dense()) - v) < 1e-10 * max(1.0, abs(v))

    def test_annihilates_nonpositive_space(self):
        model, cell, u = stable_state("square_misfit", N=3, scale=0.02)
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, hessian(model, u), include_pi=False)
        L, _ = matrix_log_plus(A, expected_zero=2)
        const = np.tile([1.0, 0.5], (cell.n, 1)).reshape(-1)
        assert np.max(np.abs(L.dense() @ const)) < 1e-10

    def test_contour_cross_check(self):
        model, cell, u = stable_state("square_misfit", N=3, scale=0.02)
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, hessian(model, u), include_pi=False)
        L_eig, _ = matrix_log_plus(A, expected_zero=2)
        L_cont = log_plus_contour(A)
        assert np.max(np.abs(L_eig.dense() - L_cont)) < 1e-6

    def test_contour_with_pi_matches(self):
        model, cell, u = stable_state("square_misfit", N=3, scale=0.02)
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, hessian(model, u), include_pi=True)
        L_eig, _ = matrix_log_plus(A, expected_zero=0)
        L_cont = log_plus_contour(A)
        assert np.max(np.abs(L_eig.dense() - L_cont)) < 1e-6


class TestEigenpairs:
    def test_shifted_identity_smallest(self):
        model, cell, _ = stable_state("chain_harmonic", N=4)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(cell.n)
        w -= w.mean()
        w /= np.linalg.norm(w)
        A = 3.0 * np.eye(cell.n) - 2.5 * np.outer(w, w)
        lam, phi = _extremal_eig(sp.csr_matrix(A), cell, 3.0, k=1)
        assert abs(lam[0] - 0.5) < 1e-9
        assert abs(abs(phi[:, 0] @ w) - 1.0) < 1e-8

    def test_hom_smallest_matches_symbol(self):
        model = preset_model("square_anharmonic")
        cell = Supercell(model.spec, 4)
        H = hessian(model.homogenized(), cell.zero_field())
        gershgorin = float(abs(H.mat).sum(axis=1).max())
        lam, _ = _extremal_eig(H.mat, cell, gershgorin, k=1)
        ks = cell.dual.k
        nonzero = ~np.all(cell.dual.y == 0, axis=1)
        w = np.linalg.eigvalsh(symbol_h_batch(model, ks[nonzero]))
        assert abs(lam[0] - w.min()) < 1e-9

    @pytest.mark.parametrize("N", [4, 6])
    def test_subset_route_matches_full_eigh(self, N):
        # the dense route's LAPACK subset solve against a full eigh of the
        # symmetrised Hessian, its m translation zeros dropped: the expected
        # negatives + 2 lowest pairs at a minimum and a saddle
        model, cell, minimum, saddle = double_well_pair(N)
        m = cell.spec.m
        for pt, k in ((minimum, 2), (saddle, 3)):
            scale = float(abs(pt.H.mat).sum(axis=1).max())
            w, V = _extremal_eig(pt.H.mat, cell, scale, k=k)
            A = pt.H.dense()
            w_all, V_all = np.linalg.eigh(0.5 * (A + A.T))
            keep = np.delete(np.arange(len(w_all)), np.argsort(np.abs(w_all))[:m])[:k]
            assert w.shape == (k,) and V.shape == (cell.n * m, k)
            np.testing.assert_allclose(w, w_all[keep], rtol=0, atol=1e-12)
            assert np.max(1.0 - np.abs(np.sum(V * V_all[:, keep], axis=0))) < 1e-12
            assert np.max(np.linalg.norm(pt.H.mat @ V - V * w, axis=0)) < 1e-12 * scale

    def test_lanczos_failed_tridiagonal_names_its_stage(self, monkeypatch):
        import scipy.linalg as sla
        model, cell, u = stable_state("square_misfit", N=4)
        dstev = sla.lapack.dstev

        def failing(d, e, *args, **kwargs):
            w, z, info = dstev(d, e, *args, **kwargs)
            return w, z, 3 if len(d) == 5 else info

        monkeypatch.setattr(sla.lapack, "dstev", failing)
        with pytest.raises(RuntimeError, match=r"^F_N H F_N at N=4: tridiagonal eigensolver "
                                               r"dstev failed \(info 3\) at Lanczos step 5$"):
            generalized_eigen(hessian(model, u), FApplier(cell, model))

    def test_lanczos_one_step_run(self):
        # an operator that is 2 on the whole zero-mean subspace leaves the
        # start vector invariant: the run stops after one step, on a 1 x 1
        # tridiagonal
        model, cell, _ = stable_state("square_misfit", N=4)
        n, m = cell.n, cell.spec.m
        w, V, top = _lanczos_ends(lambda v: 2.0 * (v - _mean_project(v, n, m)), cell, 1, "test")
        assert w.shape == (1,) and V.shape == (n * m, 1)
        assert abs(w[0] - 2.0) < 1e-14 and abs(top - 2.0) < 1e-14
        assert abs(np.linalg.norm(V) - 1.0) < 1e-14

    def test_generalized_identity_and_scaling(self):
        model, cell, _ = stable_state("square_anharmonic", N=3)
        Hh = hessian(model.homogenized(), cell.zero_field())
        F = FApplier(cell, model)
        lo, hi, mu, w = generalized_eigen(Hh, F)
        assert abs(lo - 1.0) < 1e-8 and abs(hi - 1.0) < 1e-8 and mu is None and w is None
        H2 = LinearLatticeOperator(cell, 2.0 * Hh.mat)
        lo2, hi2, _, _ = generalized_eigen(H2, F)
        assert abs(lo2 - 2.0) < 1e-8 and abs(hi2 - 2.0) < 1e-8

    def test_generalized_matches_dense_oracle(self):
        model, cell, u = stable_state("square_misfit", N=3, scale=0.05, seed=7)
        H = hessian(model, u)
        lo, _, _, _ = generalized_eigen(H, FApplier(cell, model))
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, H, include_pi=False).dense()
        w = np.sort(np.linalg.eigvalsh(A))
        w_nonzero = w[np.abs(w) > 1e-10 * np.max(np.abs(w))]
        assert abs(lo - w_nonzero.min()) < 1e-8
        # a negative pair: the double-well saddle; psi = F_N w has <H_hom psi, psi> = 1
        model, cell, minimum, saddle = double_well_pair()
        _, _, mu, w = generalized_eigen(saddle.H, saddle.F, expected_negative=1)
        assert mu < 0 and w.shape == (cell.n * cell.spec.m,)
        psi = saddle.F.apply(w)
        Hh = hessian(model.homogenized(), cell.zero_field())
        assert abs(float(psi @ Hh.apply(psi)) - 1.0) < 1e-8


    def test_dense_route_takes_one_eigh(self, monkeypatch):
        # the double-well saddles at N=4 (128 dofs) and N=8 (512 dofs): one
        # Lanczos run gives the bounds and the negative pair with no dense eigh
        # and no LOBPCG; only the dense oracle, F_N H F_N from the kernel
        # table, takes its one eigh
        import scipy.sparse.linalg as spla
        calls = []
        eigh, lobpcg = np.linalg.eigh, spla.lobpcg

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(spla, "lobpcg", counted("lobpcg", lobpcg))
        for N in (4, 8):
            model, cell, minimum, saddle = double_well_pair(N)
            A = conjugate_operator(kernel_FN(model, cell), saddle.H, include_pi=False).dense()
            calls.clear()
            lo, hi, mu, w = generalized_eigen(saddle.H, saddle.F, expected_negative=1)
            assert calls == []
            ev, V = np.linalg.eigh(A)
            assert calls == ["eigh"]
            nonzero = np.flatnonzero(np.abs(ev) > 1e-8 * np.max(np.abs(ev)))
            assert len(nonzero) == len(ev) - cell.spec.m
            mu_d, lo_d, hi_d = ev[nonzero[0]], ev[nonzero[1]], ev[nonzero[-1]]
            assert mu_d < 0 < lo_d
            np.testing.assert_allclose([lo, hi, mu], [lo_d, hi_d, mu_d], rtol=1e-9)
            assert abs(abs(w @ V[:, nonzero[0]]) - 1.0) < 1e-9

    @pytest.mark.parametrize("cell_kind", ["chain_d1", "sheared_d2", "cube_d3"])
    def test_generalized_matches_dense_oracle_on_every_shape(self, cell_kind):
        # the Lanczos ends of F_N H F_N against the dense eigenvalues of
        # F_N H F_N from the kernel table, on a d=1 chain, the sheared d=2
        # cell and a d=3 cube, each at a random field
        model, N = {"chain_d1": (PRESETS["chain_misfit"](), 24),
                    "sheared_d2": (sheared_misfit(), 8),
                    "cube_d3": (cube_stiff_origin(), 5)}[cell_kind]
        cell = Supercell(model.spec, N)
        rng = np.random.default_rng(3)
        u = DisplacementField(cell, 0.03 * rng.standard_normal((cell.n, model.spec.m)))
        H = hessian(model, u)
        lo, hi, mu, w = generalized_eigen(H, FApplier(cell, model))
        ev = np.linalg.eigvalsh(conjugate_operator(kernel_FN(model, cell), H,
                                                   include_pi=False).dense())
        pos = ev[np.abs(ev) > 1e-8 * np.max(np.abs(ev))]
        assert len(pos) == cell.n * model.spec.m - model.spec.m and pos[0] > 0
        assert pos[-1] - pos[0] > 1e-3                    # a nontrivial interval
        np.testing.assert_allclose([lo, hi], [pos[0], pos[-1]], rtol=1e-9)
        assert mu is None and w is None

    @pytest.mark.parametrize("limit", [None, 0])
    def test_generalized_rejects_a_wrong_negative_count(self, monkeypatch, limit):
        # the N=4 double-well pair: an unexpected negative mode and a missing
        # one raise. F_N H F_N takes the one Lanczos route at every size, so
        # the dense-eigh limit (which still picks the certificate's route)
        # does not change the solve
        model, cell, minimum, saddle = double_well_pair()
        if limit is not None:
            monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", limit)
        with pytest.raises(AmbiguousSpectrumError, match="expected 0 negative modes, found 1"):
            generalized_eigen(saddle.H, saddle.F, expected_negative=0)
        with pytest.raises(AmbiguousSpectrumError, match="expected 1 negative modes, found 0"):
            generalized_eigen(minimum.H, minimum.F, expected_negative=1)

    def test_generalized_refuses_an_index_above_one(self):
        model, cell, u = stable_state("square_anharmonic", N=3)
        with pytest.raises(ValueError, match="expected_negative must be 0 or 1, not 2"):
            generalized_eigen(hessian(model, u), FApplier(cell, model), expected_negative=2)


def site_log_oracle(model, H, sites, expected_negative=0):
    """Diagonal-block traces of the dense eigenvector route log+ (F_N H F_N)."""
    m = model.spec.m
    A = conjugate_operator(kernel_FN(model, H.cell), H, include_pi=False)
    L, _ = matrix_log_plus(A, expected_zero=m, expected_negative=expected_negative)
    return np.diagonal(L.dense()).reshape(-1, m).sum(axis=1)[sites]


def sheared_misfit():
    """The benchmark's sheared cell (B not diagonal) with square_misfit bonds."""
    classes = [{"len": 1.0, "D": 0.5, "a": 1.5},
               {"len": float(np.sqrt(2.0)), "D": 0.25, "a": 1.2}]
    return model_from_config({
        "name": "sheared_misfit",
        "lattice": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[2.0, 1.0], [0.0, 1.0]],
                    "m": 2, "r_cut": 1.5},
        "potential": {"kind": "morse", "classes": classes},
        "overrides": {"0,0": {"kind": "morse", "scale": 1.3, "shift": 0.12,
                              "classes": classes}},
    })


def cube_stiff_origin():
    """cube_harmonic's lattice and bonds with a stiffer origin: a d=3 defect."""
    classes = [{"len": 1.0, "k": 0.5}, {"len": float(np.sqrt(2.0)), "k": 0.5}]
    return model_from_config({
        "name": "cube_stiff_origin",
        "lattice": {"A": np.eye(3).tolist(), "B": np.eye(3).tolist(), "m": 1, "r_cut": 1.5},
        "potential": {"kind": "harmonic", "classes": classes},
        "overrides": {"0,0,0": {"kind": "harmonic", "scale": 1.5, "classes": classes}},
    })


def traces_of(H, model, sites, index=0):
    """Site traces with the F_N H F_N spectrum of H, solved for ``index`` negatives."""
    F = FApplier(H.cell, model)
    return site_log_traces(H, F, sites, generalized_eigen(H, F, index))


class TestSiteTraces:
    def test_site_traces_sum_to_logdet(self):
        model, cell, u = stable_state("square_misfit", N=4, scale=0.03)
        H = hessian(model, u)
        traces, info = traces_of(H, model, np.arange(cell.n))
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, H, include_pi=False)
        v, _ = logdet_plus(A, expected_zero=2)
        assert abs(traces.sum() - v) < 1e-9 * max(1.0, abs(v))
        assert info["method"] == "chebyshev"
        assert np.max(np.abs(traces - site_log_oracle(model, H, np.arange(cell.n)))) < 1e-8

    @pytest.mark.parametrize("state", ["random_N4", "relaxed_N12"])
    def test_chebyshev_matches_dense(self, state):
        if state == "random_N4":
            model, cell, u = stable_state("square_misfit", N=4, scale=0.03)
        else:
            from latthermo import relax_minimum
            model = preset_model("square_misfit")
            cell = Supercell(model.spec, 12)
            u = relax_minimum(model, cell).u
        H = hessian(model, u)
        sites = np.arange(0, cell.n, 7)
        cheb, info = traces_of(H, model, sites)
        assert info["method"] == "chebyshev"
        assert np.max(np.abs(site_log_oracle(model, H, sites) - cheb)) < 1e-8

    def test_chebyshev_takes_half_degree_products_per_chunk(self, monkeypatch):
        # the 576 sites of the symmetric minimum run as 91 orbit representatives,
        # one chunk of at most 128 where the sites would make five; the moments
        # up to the degree take ceil(deg / 2) products per chunk, and a product
        # is one inverse and one forward real FFT; each chunk adds the forward
        # FFT of its columns. The symmetry probe is one product through
        # FApplier.apply: two forward and two inverse FFTs
        from latthermo import relax_minimum
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 12)
        H = hessian(model, relax_minimum(model, cell).u)
        F = FApplier(cell, model)
        spectrum = generalized_eigen(H, F)
        sites = np.arange(cell.n)
        dense = site_log_oracle(model, H, sites)
        calls = {"rfftn": 0, "irfftn": 0}

        def counted(name):
            transform = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)
            return wrapper

        def refused(*args, **kwargs):
            raise AssertionError("site traces took a dense route")

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        monkeypatch.setattr(spectral, "conjugate_operator", refused)
        monkeypatch.setattr(spectral, "kernel_FN", refused)
        # the traces take the given applier: no symbol or matrix is diagonalised
        monkeypatch.setattr(np.linalg, "eigh", refused)
        cheb, info = site_log_traces(H, F, sites, spectrum=spectrum)
        half = -(-info["cheb_degree"] // 2)
        chunks = -(-info["orbit_sites"] // 128)
        assert (info["orbit_sites"], chunks) == (91, 1)
        assert info["matvecs"] == chunks * half
        assert calls == {"rfftn": 2 + chunks * (1 + half), "irfftn": 2 + chunks * half}
        assert np.max(np.abs(dense - cheb)) < 1e-8

    @pytest.mark.parametrize("cell_kind", ["chain_d1", "sheared_d2", "cube_d3"])
    def test_half_grid_weights_on_every_grid(self, cell_kind):
        # Parseval on the half-grid weighs the self-conjugate last-axis slots
        # 0 and s_last / 2 by 1/n and the others by 2/n, on every grid rank.
        # The d=3 cell carries a defect: on cube_harmonic H = H_hom, and every
        # trace is 0 whatever the weights
        model, N = {"chain_d1": (PRESETS["chain_misfit"](), 8),
                    "sheared_d2": (sheared_misfit(), 4),
                    "cube_d3": (cube_stiff_origin(), 3)}[cell_kind]
        cell = Supercell(model.spec, N)
        rng = np.random.default_rng(5)
        u = DisplacementField(cell, 0.03 * rng.standard_normal((cell.n, model.spec.m)))
        H = hessian(model, u)
        sites = np.arange(cell.n)
        traces, _ = traces_of(H, model, sites)
        oracle = site_log_oracle(model, H, sites)
        assert np.max(np.abs(oracle)) > 1e-3
        assert np.max(np.abs(traces - oracle)) < 1e-10
        assert abs(site_entropies(model, u).total - entropy_total(model, u)) < 1e-8

    @pytest.mark.parametrize("a, b", [(0.95 * 0.898, 1.05 * 1.313), (0.5, 3.0),
                                      (0.2, 5.0), (0.05, 20.0)])
    def test_cheb_degree_is_the_lowest_that_passes(self, a, b):
        from numpy.polynomial import chebyshev as C
        tol = 1e-11
        scale = max(1.0, abs(np.log(a)), abs(np.log(b)))

        def sampled_error(deg):
            p = C.Chebyshev.interpolate(np.log, deg, domain=[a, b])
            xs = np.linspace(a, b, 4 * deg + 17)
            return float(np.max(np.abs(p(xs) - np.log(xs))))

        poly, err = spectral._cheb_log_poly(a, b, tol)
        deg = len(poly.coef) - 1
        i = spectral.CHEB_DEGREES.index(deg)
        assert err == sampled_error(deg) and err < tol * scale
        if i > 0:
            assert sampled_error(spectral.CHEB_DEGREES[i - 1]) >= tol * scale
        # the sampled check sees the error of a fine grid
        xs = np.linspace(a, b, 20001)
        assert float(np.max(np.abs(poly(xs) - np.log(xs)))) < 1.1 * tol * scale

    @pytest.mark.parametrize("a, b, tol, last", [(1e-3, 50.0, 1e-11, 2048),
                                                 (0.01, 50.0, 1e-11, 2048),
                                                 (0.1, 50.0, 1e-13, 1024)])
    def test_cheb_ladder_stops_at_round_off_floor(self, monkeypatch, a, b, tol, last):
        # the sampled error of log decreases to a round-off floor and then grows:
        # on [0.01, 50] it is 5.9e-11 at degree 1024 and 5.3e-10 at 2048
        from numpy.polynomial import chebyshev as C
        degrees = []
        interpolate = C.Chebyshev.interpolate

        def counted(func, deg, domain=None):
            degrees.append(deg)
            return interpolate(func, deg, domain=domain)

        monkeypatch.setattr(C.Chebyshev, "interpolate", staticmethod(counted))
        interval = re.escape(f"[{a:g}, {b:g}] (b/a = {b / a:.4g})")
        with pytest.raises(RuntimeError, match=interval + r" reached error \S+ at best"):
            spectral._cheb_log_poly(a, b, tol)
        assert degrees == list(spectral.CHEB_DEGREES[:spectral.CHEB_DEGREES.index(last) + 1])

    def test_fapplier_matches_dense_kernel(self):
        # real-input FFTs on the half-grid against the dense kernel from the
        # complex inverse DFT: d = 1, 2, 3, and a sheared cell (U, V not I)
        sheared = load_config(BENCH_CONFIGS / "sheared_entropy.yaml").model
        rng = np.random.default_rng(4)
        for model, N in [(PRESETS["square_misfit"](), 4), (PRESETS["chain_misfit"](), 6),
                         (sheared, 4), (PRESETS["cube_harmonic"](), 3)]:
            cell = Supercell(model.spec, N)
            Fmat = kernel_FN(model, cell).dense_operator().dense()
            F = FApplier(cell, model)
            dim = cell.n * model.spec.m
            v, V = rng.standard_normal(dim), rng.standard_normal((dim, 7))
            for got, want in [(F.apply(v), Fmat @ v), (F.apply(V), Fmat @ V),
                              (F.precond(V), Fmat @ (Fmat @ V))]:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1e-12, (model.name, N)

    def test_fapplier_refuses_non_hermitian_symbol(self, monkeypatch):
        model = PRESETS["square_misfit"]()
        cell = Supercell(model.spec, 4)
        fhat = spectral._fhat_dual(model, cell)
        k = int(np.flatnonzero(np.any(cell.dual.y != 0, axis=1))[0])
        fhat[k] *= 1j                      # F_hat(-k) is no longer conj F_hat(k)
        monkeypatch.setattr(spectral, "_fhat_dual", lambda model, cell: fhat)
        with pytest.raises(FloatingPointError, match="not Hermitian on the N=4 cell"):
            FApplier(cell, model)

    def test_fapplier_refuses_an_odd_last_axis(self, monkeypatch):
        # every cell's grid has an even last axis; the half-grid weights rely on it
        model = PRESETS["square_misfit"]()
        cell = Supercell(model.spec, 4)
        monkeypatch.setattr(Supercell, "grid_shape", property(lambda self: (8, 7)))
        with pytest.raises(FloatingPointError, match=r"N=4 cell's grid \(8, 7\)"):
            FApplier(cell, model)


def orbit_cases():
    from test_thermo import morse_cube
    return {"sheared_N4": (sheared_misfit(), 4),
            "square_misfit_N5": (preset_model("square_misfit"), 5),
            "morse_cube_N3": (morse_cube(), 3),              # 48 elements, R = A Q A^-1
            "cube_scalar_N3": (cube_stiff_origin(), 3),      # m=1: R = I
            "chain_misfit_N12": (preset_model("chain_misfit"), 12)}   # R = -1


class TestSiteOrbits:
    @pytest.mark.parametrize("case", list(orbit_cases()))
    def test_orbit_profile_matches_dense_oracle(self, case):
        # a relaxed point defect keeps the cell's whole point group: the
        # recurrence runs on one site per orbit, and every site still matches
        # the dense eigenvector oracle. The bound adds the route's own log error
        # (m times the sampled sup error of the interpolant): the degree-8
        # expansion on chain_misfit errs by 2.0e-12, with or without orbits
        from latthermo import relax_minimum
        model, N = orbit_cases()[case]
        cell = Supercell(model.spec, N)
        H = hessian(model, relax_minimum(model, cell).u)
        sites = np.arange(cell.n)
        traces, info = traces_of(H, model, sites)
        oracle = site_log_oracle(model, H, sites)
        assert np.max(np.abs(oracle)) > 1e-3
        tol = 1e-12 + model.spec.m * info["cheb_error"]
        assert np.max(np.abs(traces - oracle)) < tol
        assert info["symmetry_order"] == len(cell.point_group) > 1
        assert info["symmetry_residual"] < 1e-13
        # one representative per orbit, and the members read its value exactly
        orbit = np.min([g.perm for g in cell.point_group], axis=0)
        assert info["orbit_sites"] == len(np.unique(orbit)) < cell.n
        assert np.array_equal(traces, traces[orbit])
        # the same recurrence on every site differs by rounding only
        cell.__dict__["point_group"] = cell.point_group[:1]
        every, every_info = traces_of(H, model, sites)
        assert every_info["orbit_sites"] == cell.n
        assert np.max(np.abs(traces - every)) < 1e-13

    def test_double_well_pair_keeps_its_own_symmetry(self, monkeypatch):
        # the relaxed minimum sits off-centre along e1 and keeps only the
        # mirror in e2; the saddle keeps both mirrors and the inversion. The
        # rejected elements miss by far more than 1e-3
        from latthermo import find_saddle, relax_minimum
        model = preset_model("square_double_well")
        cell = Supercell(model.spec, 8)
        kick = np.zeros((cell.n, 2))
        kick[cell.index((0, 0))] = [0.15, 0.0]
        minimum = relax_minimum(model, cell, initial_guess=kick)
        act, u = cell.symmetry(model.mirror).act, minimum.u.values
        saddle = find_saddle(model, cell, initial_guess=0.5 * (u + act(u)))
        sites = np.arange(cell.n)
        for point, order, index in ((minimum, 2, 0), (saddle, 4, 1)):
            H = hessian(model, point.u)
            spectrum = generalized_eigen(H, point.F, index)
            traces, info = site_log_traces(H, point.F, sites, spectrum)
            assert info["symmetry_order"] == order
            assert info["symmetry_residual"] < 1e-13
            oracle = site_log_oracle(model, H, sites, index)
            assert np.max(np.abs(traces - oracle)) < 1e-12 + 2 * info["cheb_error"]
            with monkeypatch.context() as mp:
                mp.setattr(spectral, "SYMMETRY_TOL", 1e-3)
                assert site_log_traces(H, point.F, sites, spectrum)[1]["symmetry_order"] == order

    def test_perturbed_minimum_runs_every_site(self):
        # a 1e-3 random perturbation breaks every element but the identity
        from latthermo import relax_minimum
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 5)
        u = relax_minimum(model, cell).u
        rng = np.random.default_rng(3)
        u = DisplacementField(cell, u.values + 1e-3 * rng.standard_normal(u.values.shape))
        H = hessian(model, u)
        sites = np.arange(cell.n)
        traces, info = traces_of(H, model, sites)
        assert (info["symmetry_order"], info["orbit_sites"]) == (1, cell.n)
        assert info["symmetry_residual"] == 0.0
        oracle = site_log_oracle(model, H, sites)
        assert np.max(np.abs(traces - oracle)) < 1e-12 + 2 * info["cheb_error"]


class TestClassification:
    def test_expected_zero_mismatch_raises(self):
        with pytest.raises(AmbiguousSpectrumError):
            classify_eigenvalues(np.array([0.0, 1.0, 2.0]), expected_zero=2)

    def test_expected_negative_count(self):
        eigs = np.array([-1.0, 0.0, 1.0, 2.0])
        assert classify_eigenvalues(eigs, expected_zero=1).n_negative == 1
        assert classify_eigenvalues(eigs, 1, expected_negative=1).n_negative == 1
        for expected in (0, 2):
            with pytest.raises(AmbiguousSpectrumError,
                               match=f"expected {expected} negative modes, found 1"):
                classify_eigenvalues(eigs, 1, expected_negative=expected)


class TestLogPlusCommutation:
    def test_commutes_with_positive_projector(self):
        rng = np.random.default_rng(8)
        model, cell, u = stable_state("square_misfit", N=3, scale=0.03)
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, hessian(model, u), include_pi=False)
        L, cls = matrix_log_plus(A, expected_zero=2)
        w, V = np.linalg.eigh(A.dense())
        P = V[:, w > cls.tau_zero] @ V[:, w > cls.tau_zero].T
        comm = L.dense() @ P - P @ L.dense()
        assert np.max(np.abs(comm)) < 1e-12 * max(1.0, np.max(np.abs(L.dense())))


class TestChebyshevAtSaddle:
    def test_matches_dense_with_negative_mode_deflated(self):
        model, cell, minimum, saddle = double_well_pair()
        H = hessian(model, saddle.u)
        sites = np.arange(0, cell.n, 5)
        dense = site_log_oracle(model, H, sites, expected_negative=1)
        cheb, info = traces_of(H, model, sites, 1)
        assert len(info["negatives"]) == 1 and info["negatives"][0] < 0
        assert np.max(np.abs(dense - cheb)) < 1e-8


def test_conjugate_operator_size_mismatch():
    model = preset_model("square_anharmonic")
    small = Supercell(model.spec, 3)
    big = Supercell(model.spec, 4)
    FN = kernel_FN(model, small)
    H = hessian(model.homogenized(), big.zero_field())
    with pytest.raises(ValueError):
        conjugate_operator(FN, H)


def test_fopn_identity_d3():
    model = preset_model("cube_harmonic")
    cell = Supercell(model.spec, 2)
    FN = kernel_FN(model, cell)
    H = hessian(model.homogenized(), cell.zero_field())
    A = conjugate_operator(FN, H, include_pi=True)
    assert np.max(np.abs(A.dense() - np.eye(cell.n))) < 1e-10
