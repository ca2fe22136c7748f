import numpy as np
import pytest
from scipy.linalg import block_diag

from latthermo import (
    DisplacementField,
    Supercell,
    energy_periodic,
    gradient_periodic,
    hessian,
    relax_minimum,
    variation_contractions,
)
from latthermo import assembly
from latthermo.potentials import PRESETS


def small_state(name="square_misfit", N=4, scale=0.05, seed=0):
    model = PRESETS[name]()
    cell = Supercell(model.spec, N)
    rng = np.random.default_rng(seed)
    u = DisplacementField(cell, scale * rng.standard_normal((cell.n, model.spec.m)))
    return model, cell, u


class TestEnergy:
    def test_zero_field_zero_energy(self):
        for name in ["square_harmonic", "square_anharmonic", "chain_harmonic"]:
            model, cell, _ = small_state(name)
            assert energy_periodic(model, cell.zero_field()) == 0.0

    def test_misfit_zero_field_energy_is_zero_but_forced(self):
        model, cell, _ = small_state("square_misfit")
        assert energy_periodic(model, cell.zero_field()) == 0.0
        assert np.linalg.norm(gradient_periodic(model, cell.zero_field())) > 1e-3

    def test_energy_computes_no_gradient(self, monkeypatch):
        model, cell, u = small_state("square_misfit")
        expected = energy_periodic(model, u)

        def no_gradient(*args, **kwargs):
            raise AssertionError("energy evaluation computed a gradient")

        monkeypatch.setattr(assembly, "gradient_periodic", no_gradient)
        for pot in (model.homogeneous, *model.overrides.values()):
            monkeypatch.setattr(type(pot), "grad_batch", no_gradient)
        assert energy_periodic(model, u) == expected

    def test_constant_field_translation_invariance(self):
        # anharmonic homogeneous model: constants are exact equilibria
        model, cell, _ = small_state("square_anharmonic")
        c = DisplacementField(cell, np.tile([0.3, -0.7], (cell.n, 1)))
        assert abs(energy_periodic(model, c)) < 1e-12
        assert np.linalg.norm(gradient_periodic(model, c)) < 1e-12
        # misfit defect: zero energy at constants, but forces with zero mean
        model2, cell2, _ = small_state("square_misfit")
        c2 = DisplacementField(cell2, np.tile([0.3, -0.7], (cell2.n, 1)))
        g2 = gradient_periodic(model2, c2)
        assert abs(energy_periodic(model2, c2)) < 1e-12
        assert np.max(np.abs(g2.sum(axis=0))) < 1e-12

    def test_harmonic_energy_equals_quadratic_form(self):
        model, cell, u = small_state("square_harmonic", scale=0.3)
        H = hessian(model.homogenized(), u)
        quad = 0.5 * H.quadratic(u.values)
        assert abs(energy_periodic(model, u) - quad) < 1e-10 * max(1.0, abs(quad))

    def test_harmonic_defect_energy_quadratic_oracle(self):
        model, cell, u = small_state("square_harmonic_defect", scale=0.2)
        H = hessian(model, u)
        g0 = gradient_periodic(model, cell.zero_field())
        # quadratic model with misfit force: E(u) = E(0) + <g0,u> + 1/2 <Hu,u>
        quad = float(np.sum(g0 * u.values)) + 0.5 * H.quadratic(u.values)
        assert abs(energy_periodic(model, u) - quad) < 1e-10 * max(1.0, abs(quad))

    def test_homogeneous_matches_override_free_model(self):
        # the homogenized model puts the homogeneous V on every site
        model, cell, u = small_state("square_misfit", scale=0.1, seed=3)
        a = float(sum(model.homogeneous.value(g) for g in u.gradients()))
        b = energy_periodic(model.homogenized(), u)
        assert abs(a - b) < 1e-13 * max(1.0, abs(a))

    def test_defect_inactive_away_from_core(self):
        model, cell, _ = small_state("square_misfit", N=6)
        vals = np.zeros((cell.n, 2))
        far = cell.r > 4.0
        vals[far] = 0.05 * np.random.default_rng(1).standard_normal((far.sum(), 2))
        # fields supported away from the core still touch it through the stencil;
        # keep a moat of width 2 r_cut around the origin instead
        vals[cell.r < 3.0] = 0.0
        u = DisplacementField(cell, vals)
        assert abs(energy_periodic(model, u)
                   - energy_periodic(model.homogenized(), u)) < 1e-12


class TestGradientHessian:
    @pytest.mark.parametrize("name", ["square_misfit", "square_anharmonic",
                                      "square_double_well", "chain_misfit"])
    def test_gradient_fd_richardson(self, name):
        model, cell, u = small_state(name, scale=0.04, seed=5)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(u.values.shape)
        g = float(np.sum(gradient_periodic(model, u) * v))
        errs = []
        for h in (1e-3, 1e-4):
            ep = energy_periodic(model, DisplacementField(cell, u.values + h * v))
            em = energy_periodic(model, DisplacementField(cell, u.values - h * v))
            errs.append(abs((ep - em) / (2 * h) - g))
        assert errs[1] < 1e-5 * max(1.0, abs(g))
        # O(h^2) convergence: Richardson ratio about 100
        if errs[1] > 1e-12:
            assert 20 < errs[0] / errs[1] < 500

    def test_hessian_symmetric_and_kills_constants(self):
        model, cell, u = small_state("square_misfit", scale=0.05)
        H = hessian(model, u)
        assert H.symmetry_defect() < 1e-12
        const = np.tile([1.0, -2.0], (cell.n, 1))
        assert np.max(np.abs(H.apply(const))) < 1e-12

    def test_hessian_bandwidth(self):
        model, cell, u = small_state("square_misfit", N=6)
        H = hessian(model, u)
        coo = H.mat.tocoo()
        m = cell.spec.m
        pi, pj = coo.row // m, coo.col // m
        dist = np.linalg.norm(
            (cell.wrap(cell.x[pi] - cell.x[pj])) @ cell.spec.A.T, axis=1)
        assert dist.max() <= 2 * cell.spec.r_cut

    def test_hessian_quadratic_fd(self):
        model, cell, u = small_state("square_anharmonic", scale=0.05, seed=8)
        rng = np.random.default_rng(9)
        v = rng.standard_normal(u.values.shape)
        H = hessian(model, u)
        quad = H.quadratic(v)
        h = 1e-4
        ep = energy_periodic(model, DisplacementField(cell, u.values + h * v))
        em = energy_periodic(model, DisplacementField(cell, u.values - h * v))
        e0 = energy_periodic(model, u)
        fd = (ep - 2 * e0 + em) / h**2
        assert abs(quad - fd) < 1e-5 * max(1.0, abs(quad))

    def test_chain_hessian_eigenvalues_match_symbol(self):
        model = PRESETS["chain_harmonic"]()
        cell = Supercell(model.spec, 2)
        H = hessian(model.homogenized(), cell.zero_field())
        eigs = np.sort(np.linalg.eigvalsh(H.dense()))
        ks = cell.dual.k[:, 0]
        expected = np.sort(4 * np.sin(ks / 2) ** 2)
        assert np.allclose(eigs, expected, atol=1e-12)

    def test_homogeneous_hessian_psd_with_translation_kernel(self):
        for name in ["square_harmonic", "square_anharmonic"]:
            model, cell, _ = small_state(name, N=4)
            H = hessian(model.homogenized(), cell.zero_field())
            w = np.linalg.eigvalsh(H.dense())
            assert w.min() > -1e-10
            assert (np.abs(w) < 1e-10).sum() == cell.spec.m


class TestVariations:
    def test_harmonic_variations_vanish(self):
        model, cell, u = small_state("square_harmonic", scale=0.1)
        v = DisplacementField(cell, np.random.default_rng(0).standard_normal(u.values.shape))
        dH = variation_contractions(model, u, v)
        assert abs(dH.mat).max() < 1e-14

    def test_first_variation_fd(self):
        model, cell, u = small_state("square_anharmonic", scale=0.05, seed=2)
        rng = np.random.default_rng(3)
        v = DisplacementField(cell, rng.standard_normal(u.values.shape))
        dH = variation_contractions(model, u, v).dense()
        h = 1e-4
        Hp = hessian(model, DisplacementField(cell, u.values + h * v.values)).dense()
        Hm = hessian(model, DisplacementField(cell, u.values - h * v.values)).dense()
        fd = (Hp - Hm) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(dH - fd)) / scale < 1e-5


def defect_minimum(name):
    model = PRESETS[name]()
    cell = Supercell(model.spec, 4)
    kick = np.zeros((cell.n, model.spec.m))
    if name == "square_double_well":
        kick[cell.index((0, 0))] = [0.15, 0.0]
    return model, cell, relax_minimum(model, cell, initial_guess=kick).u


def dense_oracle(model, u, v=None):
    """Dense Hessian at u, or its first variation in the direction v, summed
    site by site as W^T T W, where T is the block diagonal of the site's bond
    blocks (the third-order blocks contracted with Dv first) and
    W = [I | -1] (x) I_m maps the local dofs (neighbours..., centre) to Du."""
    cell = u.cell
    m, nR = cell.spec.m, cell.spec.nR
    W = np.kron(np.hstack([np.eye(nR), -np.ones((nR, 1))]), np.eye(m))
    pots = [model.homogeneous] * cell.n
    for key, pot in model.overrides.items():
        pots[cell.index(key)] = pot
    G = u.gradients()
    Gv = None if v is None else v.gradients()
    out = np.zeros((cell.n * m, cell.n * m))
    for site, pot in enumerate(pots):
        if v is None:
            blocks = pot.bond_hess_batch(G[site][None])[0]
        else:
            blocks = np.einsum("rabc,rc->rab", pot.bond_third_batch(G[site][None])[0], Gv[site])
        local = W.T @ block_diag(*blocks) @ W
        sites = np.append(cell.neighbors[site], site)
        dof = (sites[:, None] * m + np.arange(m)).reshape(-1)
        np.add.at(out, (dof[:, None], dof[None, :]), local)
    return out


def assert_matches_oracle(mat, oracle):
    """Same values to 1e-14 relative, no stored zero, and the oracle's nonzeros
    stored: cross-bond zeros stay dropped. A coupling that cancels by symmetry
    may round to zero in one sum and to round-off in the other."""
    A = mat.toarray()
    tol = 1e-14 * np.abs(oracle).max(initial=0.0)
    assert np.abs(A - oracle).max() <= tol
    assert np.count_nonzero(mat.data) == mat.nnz
    differ = (A != 0) != (oracle != 0)
    assert np.abs(oracle[differ]).max(initial=0.0) <= tol
    assert np.count_nonzero(np.abs(mat.data) > tol) == np.count_nonzero(np.abs(oracle) > tol)


@pytest.mark.parametrize("name", ["square_misfit", "square_double_well",
                                  "chain_misfit", "cube_harmonic"])
def test_assembled_operators_store_only_nonzeros(name):
    # bond-sum potentials couple only the ends of each bond: the assembled CSR
    # holds the nonzeros of the site-by-site dense sum, with its values
    model, cell, u = defect_minimum(name)
    zero = cell.zero_field()
    assert_matches_oracle(hessian(model, u).mat, dense_oracle(model, u))
    assert_matches_oracle(variation_contractions(model, u, u).mat,
                          dense_oracle(model, u, u))
    hom = model.homogenized()
    assert_matches_oracle(variation_contractions(hom, zero, u).mat,
                          dense_oracle(hom, zero, u))


def test_cached_bond_pattern_survives_dropped_zeros():
    # the zero field's axis-bond blocks have vanishing off-diagonals that CSR
    # drops; a field that fills them, and the zero field again, must still
    # assemble onto the intact cached pattern
    model, cell, u = small_state("square_misfit", N=4, scale=0.05, seed=11)
    hom = model.homogenized()
    zero = cell.zero_field()
    pattern_entries = cell.bond_pattern.indices.size * cell.spec.m ** 2
    assert np.count_nonzero(dense_oracle(hom, zero)) < pattern_entries
    for field in (zero, u, zero):
        mat, oracle = hessian(hom, field).mat, dense_oracle(hom, field)
        assert_matches_oracle(mat, oracle)
        assert mat.nnz == np.count_nonzero(oracle)
