from dataclasses import replace

import numpy as np
import pytest

from latthermo import (
    DisplacementField,
    Supercell,
    conjugate_operator,
    delta_S_saddle,
    entropy_total,
    find_saddle,
    hessian,
    htst_rate,
    kernel_FN,
    preset_model,
    relax_minimum,
    renormalised_entropy,
    site_entropies,
    site_entropy_first_variation,
)
from latthermo.assembly import variation_contractions
from latthermo.config import model_from_config
from latthermo.spectral import (
    FApplier,
    KernelTable,
    generalized_eigen,
    logdet_plus,
    logdet_plus_factorized,
    matrix_log_plus,
    site_log_traces,
)
from latthermo import spectral, thermo
from latthermo.stationary import CertificationError


def solved_double_well(N=4):
    model = preset_model("square_double_well")
    cell = Supercell(model.spec, N)
    kick = np.zeros((cell.n, 2))
    kick[cell.index((0, 0))] = [0.15, 0.0]
    minimum = relax_minimum(model, cell, initial_guess=kick)
    act, u = cell.symmetry(model.mirror).act, minimum.u.values
    saddle = find_saddle(model, cell, initial_guess=0.5 * (u + act(u)))
    return model, cell, minimum, saddle


class TestEntropyTotal:
    def test_homogeneous_state_zero(self):
        model = preset_model("square_anharmonic")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        assert entropy_total(model, pt) == 0.0

    def test_harmonic_defect_matches_eigenvalue_products(self):
        model = preset_model("square_harmonic_defect")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        S = entropy_total(model, pt)
        w_def = np.linalg.eigvalsh(hessian(model, pt.u).dense())
        w_hom = np.linalg.eigvalsh(hessian(model.homogenized(), cell.zero_field()).dense())
        oracle = -0.5 * np.sum(np.log(w_def[w_def > 1e-8])) \
            + 0.5 * np.sum(np.log(w_hom[w_hom > 1e-8]))
        assert abs(S - oracle) < 1e-9 * max(1.0, abs(oracle))

    def test_conjugation_identity(self):
        # entropy equals -1/2 Tr log(F_N H_N F_N + pi_N)
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        S = entropy_total(model, pt)
        FN = kernel_FN(model, cell)
        A = conjugate_operator(FN, hessian(model, pt.u), include_pi=True)
        w = np.linalg.eigvalsh(A.dense())
        assert w.min() > 0
        S_conj = -0.5 * np.sum(np.log(w))
        assert abs(S - S_conj) < 1e-8

    def test_translation_invariance(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        S0 = entropy_total(model, pt)

        def translated(values, a):           # ell -> u(ell - a)
            return values[cell.site_indices(cell.x - np.array(a))]

        shifted = DisplacementField(cell, translated(pt.u.values, (1, 2)))
        # the translated field is the minimiser of the translated defect; as a
        # raw state its entropy differs. Instead check the homogeneous part of
        # the identity: S of a translated random state under the homogenized
        # model is translation invariant.
        hom = model.homogenized()
        rng = np.random.default_rng(0)
        u = DisplacementField(cell, 0.03 * rng.standard_normal((cell.n, 2)))
        S1 = entropy_total(hom, u)
        S2 = entropy_total(hom, DisplacementField(cell, translated(u.values, (2, 1))))
        assert abs(S1 - S2) < 1e-10


class TestSiteEntropies:
    def test_homogeneous_all_zero(self):
        model = preset_model("square_anharmonic")
        cell = Supercell(model.spec, 3)
        prof = site_entropies(model, cell.zero_field())
        assert np.max(np.abs(prof.values)) < 1e-12

    def test_sum_matches_total_minimum(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        prof = site_entropies(model, pt)
        S = entropy_total(model, pt)
        assert abs(prof.total - S) < 1e-8

    def test_sum_matches_total_random_states(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 3)
        rng = np.random.default_rng(1)
        for _ in range(3):
            u = DisplacementField(cell, 0.02 * rng.standard_normal((cell.n, 2)))
            prof = site_entropies(model, u)
            S = entropy_total(model, u)
            assert abs(prof.total - S) < 1e-8

    def test_profile_peaked_at_core(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 6)
        pt = relax_minimum(model, cell)
        prof = site_entropies(model, pt)
        peak = np.argmax(np.abs(prof.values))
        assert cell.r[prof.sites[peak]] <= 1.5


class TestFirstVariation:
    def test_harmonic_zero(self):
        model = preset_model("square_harmonic")
        cell = Supercell(model.spec, 3)
        rng = np.random.default_rng(2)
        u = DisplacementField(cell, 0.1 * rng.standard_normal((cell.n, 2)))
        fv = site_entropy_first_variation(model, np.arange(cell.n), u)
        assert np.max(np.abs(fv)) < 1e-13

    def test_constant_field_zero(self):
        model = preset_model("square_anharmonic")
        cell = Supercell(model.spec, 3)
        u = DisplacementField(cell, np.tile([0.4, -0.2], (cell.n, 1)))
        fv = site_entropy_first_variation(model, np.arange(cell.n), u)
        assert np.max(np.abs(fv)) < 1e-13

    def test_fd_through_entropy_oracle(self):
        # <delta S^hom_ell(0), u> vs finite difference of the homogeneous
        # site entropy along u
        model = preset_model("square_anharmonic")
        cell = Supercell(model.spec, 3)
        rng = np.random.default_rng(3)
        u = DisplacementField(cell, 0.05 * rng.standard_normal((cell.n, 2)))
        sites = np.arange(0, cell.n, 5)
        fv = site_entropy_first_variation(model, sites, u)
        h = 1e-4
        vals = []
        F = FApplier(cell, model)
        for s in (h, -h):
            us = DisplacementField(cell, s * u.values)
            H = hessian(model.homogenized(), us)
            tr, _ = site_log_traces(H, F, sites, generalized_eigen(H, F))
            vals.append(-0.5 * tr)
        fd = (vals[0] - vals[1]) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(fv - fd)) / scale < 1e-5


def morse_cube():
    """A d=3 Morse cube (m=3) with a stiffer, shifted origin: third derivatives
    of the homogeneous bonds are nonzero, so the first variation is too."""
    classes = [{"len": 1.0, "D": 0.5, "a": 1.5}, {"len": float(np.sqrt(2.0)), "D": 0.25, "a": 1.2}]
    return model_from_config({
        "name": "morse_cube",
        "lattice": {"A": np.eye(3).tolist(), "B": np.eye(3).tolist(), "m": 3, "r_cut": 1.5},
        "potential": {"kind": "morse", "classes": classes},
        "overrides": {"0,0,0": {"kind": "morse", "scale": 1.3, "shift": 0.12,
                                "classes": classes}},
    })


@pytest.mark.parametrize("case", ["square_misfit_N5", "sheared_N4", "chain_misfit_N12",
                                  "morse_cube_N3"])
def test_first_variation_matches_dense_kernel_oracle(case):
    # the half-grid block products against -1/2 the diagonal-block traces of the
    # dense F_N B F_N built from the complex-DFT kernel table. The grids cover
    # d = 1, 2, 3 and a sheared cell; the cube (grid (6, 6, 6)) takes every
    # Parseval weight in d=3: the self-mirrored last-axis slots 0 and
    # s_last / 2 and the interior ones
    from test_spectral import sheared_misfit
    if case == "morse_cube_N3":
        model = morse_cube()
        cell = Supercell(model.spec, 3)
        rng = np.random.default_rng(5)
        u = DisplacementField(cell, 1e-2 * rng.standard_normal((cell.n, 3)))
    else:
        model, N = {"square_misfit_N5": (preset_model("square_misfit"), 5),
                    "sheared_N4": (sheared_misfit(), 4),
                    "chain_misfit_N12": (preset_model("chain_misfit"), 12)}[case]
        cell = Supercell(model.spec, N)
        u = relax_minimum(model, cell).u
    m = model.spec.m
    B = variation_contractions(model.homogenized(), cell.zero_field(), u)
    A = conjugate_operator(kernel_FN(model, cell), B, include_pi=False).dense()
    oracle = -0.5 * np.diagonal(A).reshape(-1, m).sum(axis=1)
    fv = site_entropy_first_variation(model, np.arange(cell.n), u)
    assert np.max(np.abs(oracle)) > 1e-6
    assert np.max(np.abs(fv - oracle)) < 1e-12


def test_thermo_applies_F_N_without_the_kernel_table(monkeypatch):
    # the rate of a saddle pair (splitting site sum included) and the
    # renormalised entropy apply F_N through FApplier only: no kernel table,
    # no complex DFT and no dense block-Toeplitz F_N
    model, cell, minimum, saddle = solved_double_well(4)
    misfit = preset_model("square_misfit")
    point = relax_minimum(misfit, Supercell(misfit.spec, 12))

    def refused(*args, **kwargs):
        raise AssertionError("thermo took the kernel-table route")

    monkeypatch.setattr(spectral, "kernel_FN", refused)
    monkeypatch.setattr(Supercell, "dft", refused)
    monkeypatch.setattr(Supercell, "idft", refused)
    monkeypatch.setattr(KernelTable, "dense_operator", refused)
    rep = htst_rate(model, minimum, saddle, beta=1.0)
    assert abs(rep.delta_S.splitting - rep.delta_S.direct) < 1e-8
    ren = renormalised_entropy(misfit, point, R_sum=3)
    assert np.isfinite(ren.value) and np.max(np.abs(ren.first_variation)) > 0


def test_bare_field_renormalised_entropy_builds_one_applier(monkeypatch):
    # the bare field becomes one certified point whose F_N serves both the
    # site entropies and the first variation, with the solved point's bits
    model = preset_model("square_misfit")
    point = relax_minimum(model, Supercell(model.spec, 12))
    solved = renormalised_entropy(model, point, R_sum=3)
    builds = []
    init = FApplier.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FApplier, "__init__", counted)
    bare = renormalised_entropy(model, point.u, R_sum=3)
    assert len(builds) == 1
    assert bare.value == solved.value
    assert np.array_equal(bare.site_entropy, solved.site_entropy)


@pytest.mark.parametrize("call", [
    lambda model, u: site_entropies(model, u),
    lambda model, u: renormalised_entropy(model, u, R_sum=1),
], ids=["site_entropies", "renormalised_entropy"])
def test_bare_saddle_field_is_certified_before_the_site_traces(monkeypatch, call):
    # a bare field is certified as a state with no negative mode before any
    # site trace; the first variation reads it as a direction and certifies nothing
    model, cell, minimum, saddle = solved_double_well(4)
    u = DisplacementField(cell, saddle.u.values)

    def no_traces(*args, **kwargs):
        raise AssertionError("site traces taken on an uncertified field")

    monkeypatch.setattr(thermo, "site_log_traces", no_traces)
    with pytest.raises(CertificationError, match="state certificate: expected 0 negative modes"):
        call(model, u)
    assert np.all(np.isfinite(site_entropy_first_variation(model, np.arange(cell.n), u)))


class TestRenormalisedEntropy:
    def test_homogeneous_zero(self):
        model = preset_model("square_anharmonic")
        cell = Supercell(model.spec, 12)
        ren = renormalised_entropy(model, cell.zero_field(), R_sum=3)
        assert abs(ren.value) < 1e-12
        assert ren.tail_estimate == 0.0

    def test_harmonic_defect_partial_sum_vs_total(self):
        # no renormalisation term for quadratic models: partial sums approach S_N
        model = preset_model("square_harmonic_defect")
        cell = Supercell(model.spec, 12)
        pt = relax_minimum(model, cell)
        ren = renormalised_entropy(model, pt, R_sum=3)
        assert np.max(np.abs(ren.first_variation)) < 1e-13
        S = entropy_total(model, pt)
        # remaining sites contribute the (estimated) tail
        assert abs(ren.value - S) < max(5 * ren.tail_estimate, 5e-3)

    def test_reference_level_guard(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 6)
        pt = relax_minimum(model, cell)
        with pytest.raises(ValueError):
            renormalised_entropy(model, pt, R_sum=4)


class TestDeltaSAndRate:
    def test_identical_points_zero(self):
        model, cell, minimum, saddle = solved_double_well(3)
        rep = delta_S_saddle(model, saddle, saddle)
        assert abs(rep.direct) < 1e-12
        assert abs(rep.splitting - rep.direct) < 1e-8

    def test_splitting_agrees_with_direct(self):
        model, cell, minimum, saddle = solved_double_well(4)
        rep = delta_S_saddle(model, minimum, saddle)
        assert rep.lam < 0 and rep.mu < 0
        assert abs(rep.splitting - rep.direct) < 1e-8

    def test_splitting_site_sum_takes_no_eigenvectors(self, monkeypatch):
        # up to DENSE_LIMIT the saddle's site sum comes from the eigenvalues of
        # the dense F_N H F_N: no site profile and no full eigh of that size.
        # It matches the trace of the dense eigenvector route log+ (F_N H F_N),
        # which the Chebyshev site profile matches to its own bound
        model, cell, minimum, saddle = solved_double_well(4)
        A = conjugate_operator(kernel_FN(model, cell), saddle.H, include_pi=False)
        L, _ = matrix_log_plus(A, expected_zero=2, expected_negative=1)
        dense_total = -0.5 * float(np.trace(L.dense()))
        assert abs(site_entropies(model, saddle).total - dense_total) < 1e-8
        dim = cell.n * cell.spec.m
        eigh = np.linalg.eigh

        def small_eigh(a, *args, **kwargs):
            assert np.shape(a)[-1] < dim, "full eigh taken for the site sum"
            return eigh(a, *args, **kwargs)

        def no_profile(*args, **kwargs):
            raise AssertionError("site profile built for the site sum")

        monkeypatch.setattr(np.linalg, "eigh", small_eigh)
        monkeypatch.setattr(thermo, "site_entropies", no_profile)
        assert thermo._site_entropy_sum(model, saddle) == pytest.approx(dense_total,
                                                                         rel=1e-12, abs=1e-12)
        rep = delta_S_saddle(model, minimum, saddle)
        assert abs(rep.splitting - rep.direct) < 1e-8

    def test_rate_product_form_cross_check(self):
        model, cell, minimum, saddle = solved_double_well(4)
        rep = htst_rate(model, minimum, saddle, beta=1.0)
        assert rep.dE > 0 and not rep.direction_warning
        assert abs(rep.K - rep.product_form_K) < 1e-8 * rep.K

    def test_product_form_is_an_independent_route(self, monkeypatch):
        # a shift in the LU det+ of the saddle moves K but not the dense product form
        model, cell, minimum, saddle = solved_double_well(4)
        lu = thermo.logdet_plus_factorized

        def shifted(H, negative=None):
            val = lu(H, negative)
            return val if negative is None else val + 1e-6

        monkeypatch.setattr(thermo, "logdet_plus_factorized", shifted)
        rep = htst_rate(model, minimum, saddle, beta=1.0)
        assert abs(rep.K - rep.product_form_K) > 1e-8 * rep.K

    def test_dS_is_independent_of_the_product_form(self, monkeypatch):
        # a shift in the dense det+ of the saddle moves the product form but not K
        model, cell, minimum, saddle = solved_double_well(4)
        base = htst_rate(model, minimum, saddle, beta=1.0)
        dense = thermo.logdet_plus

        def shifted(op, expected_zero, expected_negative=None):
            val, cls = dense(op, expected_zero, expected_negative)
            return (val + 1e-6 if expected_negative == 1 else val), cls

        monkeypatch.setattr(thermo, "logdet_plus", shifted)
        rep = htst_rate(model, minimum, saddle, beta=1.0)
        assert rep.K == base.K
        assert abs(rep.product_form_K - base.product_form_K) > 1e-8 * base.product_form_K

    def test_bare_field_is_certified_before_the_lu(self, monkeypatch):
        # a bare field carries no certificate: the saddle's negative mode must
        # be caught before its det+ is taken
        model, cell, minimum, saddle = solved_double_well(4)

        def no_lu(*args, **kwargs):
            raise AssertionError("det+ taken on an uncertified field")

        monkeypatch.setattr(thermo, "logdet_plus_factorized", no_lu)
        with pytest.raises(CertificationError, match="expected 0 negative modes"):
            entropy_total(model, DisplacementField(cell, saddle.u.values))

    def test_no_product_form_above_dense_limit(self, monkeypatch):
        # K comes from the bordered LU with the carried lam on both sides of the
        # comparison; above the limit there is no product form to compare
        model, cell, minimum, saddle = solved_double_well(4)
        dense = htst_rate(model, minimum, saddle, beta=1.0)
        monkeypatch.setattr(thermo, "DENSE_LIMIT", cell.n * cell.spec.m - 1)
        rep = htst_rate(model, minimum, saddle, beta=1.0)
        assert rep.product_form_K is None
        assert rep.K == pytest.approx(dense.K, rel=1e-10)
        with pytest.raises(ValueError, match="unstable eigenvalue"):
            entropy_total(model, replace(saddle, lam=None))

    def test_beta_scaling_affine(self):
        model, cell, minimum, saddle = solved_double_well(3)
        betas = np.array([0.5, 1.0, 2.0, 4.0])
        logs = np.array([htst_rate(model, minimum, saddle, beta=b).logK for b in betas])
        A = np.stack([betas, np.ones_like(betas)], axis=1)
        coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
        resid = np.max(np.abs(A @ coef - logs))
        rep = htst_rate(model, minimum, saddle, beta=1.0)
        assert abs(coef[0] + rep.dE) < 1e-10
        assert abs(coef[1] - rep.dS) < 1e-10
        assert resid < 1e-10
        # one evaluation serves every beta, bit for bit
        for b in (0.5, 2.0, 4.0):
            view, direct = rep.at_beta(b), htst_rate(model, minimum, saddle, beta=b)
            for key in ("K", "logK", "F_min", "F_saddle", "product_form_K",
                        "relative_error_bound"):
                assert getattr(view, key) == getattr(direct, key), (b, key)

    def test_direction_warning(self):
        model, cell, minimum, saddle = solved_double_well(3)
        rep = htst_rate(model, saddle, saddle, beta=1.0)   # dE = 0: suspect direction
        assert rep.direction_warning

    def test_rate_exp_identity(self):
        model, cell, minimum, saddle = solved_double_well(3)
        rep = htst_rate(model, minimum, saddle, beta=2.0)
        assert np.isclose(rep.K, np.exp(-2.0 * (rep.dE - rep.dS / 2.0)), rtol=1e-12)


class TestOneDimensionalPipeline:
    def test_chain_misfit_entropy_decomposition(self):
        model = preset_model("chain_misfit")
        cell = Supercell(model.spec, 12)
        pt = relax_minimum(model, cell)
        assert pt.energy < 0
        S = entropy_total(model, pt)
        prof = site_entropies(model, pt)
        assert abs(prof.total - S) < 1e-8
        fv = site_entropy_first_variation(model, np.arange(cell.n), pt.u)
        assert np.max(np.abs(fv)) > 0   # anharmonic: renormalisation term active


def test_site_profile_far_field_decay():
    # far field of the site-entropy profile is first-variation dominated and
    # decays like the strain field (about |l|^-d). The prefactor carries a
    # direction-dependent sign, so fit along fixed lattice rays.
    from latthermo.fitting import fit_rate
    model = preset_model("square_misfit")
    cell = Supercell(model.spec, 16)
    pt = relax_minimum(model, cell)
    prof = site_entropies(model, pt)
    pos = {tuple(x): i for i, x in enumerate(cell.x[prof.sites].tolist())}
    for ray in [(1, 0), (1, 1)]:
        rs, vals = [], []
        for k in range(2, 7):
            x = (ray[0] * k, ray[1] * k)
            rs.append(np.hypot(*x))
            vals.append(abs(prof.values[pos[x]]))
        fit = fit_rate(np.array(rs), np.array(vals))
        assert fit.exponent <= -1.5, ray


def test_renormalised_partial_sums_cauchy():
    # shells beyond the fit window contribute within the geometric tail bound
    model = preset_model("square_misfit")
    cell = Supercell(model.spec, 16)
    pt = relax_minimum(model, cell)
    ren = renormalised_entropy(model, pt, R_sum=4, fit_window=(1.4, 4.0))
    inner = ren.radii <= 2.5
    final = ren.partial_sums[-1]
    residual = abs(final - ren.partial_sums[inner][-1])
    # increments past the core shrink fast; the reported tail dominates them
    assert residual < 20 * ren.tail_estimate + 1e-6


def sheared_misfit_model():
    """square_misfit's bond classes and origin override on the cell B = [[2,1],[0,1]]."""
    from latthermo import LatticeSpec
    from latthermo.potentials import SQUARE_MORSE, MorseBondPotential, PotentialModel, bond_classes
    spec = LatticeSpec(A=np.eye(2), B=np.array([[2.0, 1.0], [0.0, 1.0]]), m=2, r_cut=1.5)
    D, a = bond_classes(spec.stencil, SQUARE_MORSE).T
    hom = MorseBondPotential.from_morse(spec.stencil, 2, D, a)
    dv = MorseBondPotential.from_morse(spec.stencil, 2, 1.3 * D, a, shift=0.12)
    return PotentialModel(spec, hom, {(0, 0): dv}, name="sheared_misfit")


def test_sheared_supercell_pipeline():
    # full pipeline on a non-diagonal supercell (FFT through the diagonal form):
    # operator identity, relaxation, entropy decomposition
    model = sheared_misfit_model()
    spec = model.spec

    cell = Supercell(spec, 3)
    FN = kernel_FN(model, cell)
    H_hom = hessian(model.homogenized(), cell.zero_field())
    A_id = conjugate_operator(FN, H_hom, include_pi=True)
    assert np.max(np.abs(A_id.dense() - np.eye(cell.n * 2))) < 1e-10

    pt = relax_minimum(model, cell)
    assert pt.energy < 0
    prof = site_entropies(model, pt)
    S = entropy_total(model, pt)
    assert abs(prof.total - S) < 1e-8


@pytest.mark.parametrize("case", ["sheared_dense", "diagonal_factorized"])
def test_homogeneous_logdet_closed_form(case):
    # the applier's sum over k != 0 of log det h_hat(k) = -2 log |det F_hat(k)|
    # against two routes through the assembled H^hom
    if case == "sheared_dense":
        model = sheared_misfit_model()
        cell = Supercell(model.spec, 6)
    else:
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 8)
    H_hom = hessian(model.homogenized(), cell.zero_field())
    if case == "sheared_dense":
        oracle, _ = logdet_plus(H_hom, expected_zero=model.spec.m)
    else:
        oracle = logdet_plus_factorized(H_hom)
    closed = FApplier(cell, model).logdet_hom
    assert closed == pytest.approx(oracle, rel=1e-10)


def test_homogeneous_logdet_rejects_unstable_symbol():
    # the applier that carries log det+ H^hom refuses a symbol that is not
    # positive definite at some k != 0, so S_N of a bare field does too
    model = preset_model("square_unstable")
    cell = Supercell(model.spec, 4)
    with pytest.raises(FloatingPointError, match="symbol not positive definite"):
        FApplier(cell, model)
    with pytest.raises(FloatingPointError, match="symbol not positive definite"):
        entropy_total(model, cell.zero_field())
