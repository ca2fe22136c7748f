import numpy as np
import pytest

from latthermo import (
    DisplacementField,
    Supercell,
    continue_in_N,
    energy_periodic,
    find_saddle,
    gradient_periodic,
    hessian,
    preset_model,
    relax_minimum,
)
from latthermo.fitting import envelope_decay
from latthermo.stationary import (CertificationError, _saddle_follow, _saddle_symmetric,
                                  tol_grad)


def coordinate_descent(model, cell, sweeps=120, seed=0):
    """Independent minimiser: per-site Newton steps with FD local Hessians."""
    rng = np.random.default_rng(seed)
    u = np.zeros((cell.n, cell.spec.m))
    h = 1e-6
    for _ in range(sweeps):
        order = rng.permutation(cell.n)
        for s in order:
            g = gradient_periodic(model, DisplacementField(cell, u))[s]
            Hloc = np.zeros((cell.spec.m, cell.spec.m))
            for i in range(cell.spec.m):
                up = u.copy()
                up[s, i] += h
                gp = gradient_periodic(model, DisplacementField(cell, up))[s]
                Hloc[:, i] = (gp - g) / h
            Hloc = 0.5 * (Hloc + Hloc.T)
            try:
                step = np.linalg.solve(Hloc, -g)
            except np.linalg.LinAlgError:
                step = -g
            u[s] += step
    u -= u.mean(axis=0)
    return u


def mirror_image(model, cell, values):
    return cell.symmetry(model.mirror).act(values)


def double_well_minimum(N, kick=(0.15, 0.0)):
    model = preset_model("square_double_well")
    cell = Supercell(model.spec, N)
    guess = np.zeros((cell.n, 2))
    guess[cell.index((0, 0))] = kick
    return model, cell, relax_minimum(model, cell, initial_guess=guess)


class TestRelaxMinimum:
    def test_homogeneous_zero_is_fixed_point(self):
        model = preset_model("square_anharmonic")
        cell = Supercell(model.spec, 3)
        pt = relax_minimum(model, cell)
        assert pt.energy == 0.0
        assert np.max(np.abs(pt.u.values)) < 1e-12
        assert pt.certificate.n_zero == 2 and pt.certificate.n_negative == 0

    def test_misfit_energy_negative_and_monotone_in_strength(self):
        from latthermo.potentials import MorseBondPotential, PotentialModel, _morse_classes, _square_spec
        energies = []
        for s0 in (0.06, 0.12):
            spec = _square_spec()
            D, a = _morse_classes(spec.stencil, nn=(0.5, 1.5), nnn=(0.25, 1.2))
            hom = MorseBondPotential.from_morse(spec.stencil, 2, D, a)
            dv = MorseBondPotential.from_morse(spec.stencil, 2, 1.3 * D, a, shift=s0)
            model = PotentialModel(spec, hom, {(0, 0): dv}, name=f"misfit{s0}")
            pt = relax_minimum(model, Supercell(spec, 4))
            energies.append(pt.energy)
        assert energies[0] < 0
        assert energies[1] < energies[0]

    def test_against_coordinate_descent_oracle(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 3)
        pt = relax_minimum(model, cell)
        u_cd = coordinate_descent(model, cell)
        e_cd = energy_periodic(model, DisplacementField(cell, u_cd))
        assert abs(pt.energy - e_cd) < 1e-8

    def test_gradient_below_tolerance(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        assert pt.gradient_norm <= tol_grad(cell)
        assert abs(pt.u.values.mean(axis=0)).max() < 1e-14

    def test_translation_invariance_of_converged_point(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        shift = (2, 1)
        guess = pt.u.translated(shift)
        pt2 = relax_minimum(model, cell, initial_guess=guess)
        # the defect pins the solution: a translated guess returns the same point
        assert abs(pt.energy - pt2.energy) < 1e-10
        assert np.max(np.abs(pt.u.values - pt2.u.values)) < 1e-7

    @pytest.mark.parametrize("N, kick", [(4, (0.135, 0.0)), (4, (0.145, -0.005)),
                                         (6, (0.13, 0.01))])
    def test_converges_below_energy_rounding(self, N, kick):
        # the last Newton steps predict energy drops below the rounding of E
        _, cell, pt = double_well_minimum(N, kick)
        _, _, shipped = double_well_minimum(N)
        assert pt.gradient_norm <= tol_grad(cell)
        assert pt.certificate.n_negative == 0
        assert abs(pt.energy - shipped.energy) < 1e-10

    def test_damping_ladder_resumes_below_last_shift(self, monkeypatch):
        # from the shipped kick the first steps need shifts 10, 1, 1: after an
        # accepted shift the ladder restarts a decade below it, not at 1e-6
        from latthermo import stationary
        solve = stationary._bordered_solve
        shifts = []

        def counted(H, nu, rhs, cell, *args, **kwargs):
            shifts.append(nu)
            return solve(H, nu, rhs, cell, *args, **kwargs)

        monkeypatch.setattr(stationary, "_bordered_solve", counted)
        _, cell, pt = double_well_minimum(8)
        assert pt.n_iter == 7 and pt.gradient_norm <= tol_grad(cell)
        assert len(shifts) <= 15

    def test_minimiser_field_decay(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 12)
        pt = relax_minimum(model, cell)
        G = np.linalg.norm(pt.u.gradients().reshape(cell.n, -1), axis=1)
        fit = envelope_decay(cell.r, G, window=(3.0, 6.0))
        assert fit.exponent <= -1.2


class TestFindSaddle:
    def setup_method(self):
        self.model, self.cell, self.minimum = double_well_minimum(4)

    def test_two_mirror_minima(self):
        vals2 = mirror_image(self.model, self.cell, self.minimum.u.values)
        pt2 = relax_minimum(self.model, self.cell, initial_guess=vals2)
        assert abs(pt2.energy - self.minimum.energy) < 1e-10
        assert np.linalg.norm(vals2 - self.minimum.u.values) > 0.1

    def test_saddle_from_midpoint(self):
        vals2 = mirror_image(self.model, self.cell, self.minimum.u.values)
        sd = find_saddle(self.model, self.cell,
                         initial_guess=0.5 * (self.minimum.u.values + vals2))
        assert sd.kind == "saddle"
        assert sd.lam < 0
        assert sd.energy > self.minimum.energy
        assert sd.certificate.n_negative == 1
        # unstable mode odd under the mirror
        phi_ref = mirror_image(self.model, self.cell, sd.phi)
        assert np.linalg.norm(phi_ref + sd.phi) < 1e-8

    @pytest.mark.parametrize("N", [4, 8])         # N=8 (512 dofs) leaves the dense route
    def test_lambda_matches_dense_oracle(self, N):
        model, cell, minimum = double_well_minimum(N)
        vals2 = mirror_image(model, cell, minimum.u.values)
        sd = find_saddle(model, cell, initial_guess=0.5 * (minimum.u.values + vals2))
        H = hessian(model, sd.u).dense()
        w = np.sort(np.linalg.eigvalsh(H))
        assert abs(sd.lam - w[0]) < 0.2 * abs(w[0])
        assert abs(sd.lam - w[0]) < 1e-9   # in fact they agree to solver accuracy

    @pytest.mark.parametrize("N", [4, 16, 20, 24])
    def test_symmetric_route_agrees_with_following(self, N):
        model, cell, minimum = double_well_minimum(N)
        vals2 = mirror_image(model, cell, minimum.u.values)
        sd1 = find_saddle(model, cell, initial_guess=0.5 * (minimum.u.values + vals2))
        sd2 = _saddle_symmetric(model, cell, max_iter=120)
        assert sd1.route == "follow"
        assert sd2.route == "symmetric_fallback"
        assert abs(sd1.energy - sd2.energy) < 1e-8
        assert np.max(np.abs(sd1.u.values - sd2.u.values)) < 1e-6

    def test_fallback_is_recorded(self, monkeypatch, caplog):
        from latthermo import stationary

        def no_follow(*args, **kwargs):
            raise RuntimeError("following failed")

        monkeypatch.setattr(stationary, "_saddle_follow", no_follow)
        with caplog.at_level("WARNING", logger="latthermo.stationary"):
            sd = find_saddle(self.model, self.cell)
        assert sd.route == "symmetric_fallback"
        assert "following failed" in caplog.text

    def test_converging_to_minimum_is_an_error(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 3)
        with pytest.raises((CertificationError, RuntimeError)):
            find_saddle(model, cell, max_iter=40)


class TestContinuation:
    def test_identity_at_same_N(self):
        model = preset_model("square_misfit")
        cell = Supercell(model.spec, 4)
        pt = relax_minimum(model, cell)
        g = continue_in_N(model, pt, cell)
        assert g is pt.u

    def test_homogeneous_zero_stays_zero(self):
        model = preset_model("square_anharmonic")
        pt = relax_minimum(model, Supercell(model.spec, 4))
        g = continue_in_N(model, pt, Supercell(model.spec, 8))
        assert np.max(np.abs(g.values)) < 1e-12

    def test_warm_start_converges_quickly(self):
        model = preset_model("square_misfit")
        pt = relax_minimum(model, Supercell(model.spec, 8))
        big = Supercell(model.spec, 16)
        guess = continue_in_N(model, pt, big)
        g_guess = np.linalg.norm(gradient_periodic(model, guess))
        g_zero = np.linalg.norm(gradient_periodic(model, big.zero_field()))
        assert g_guess < 0.2 * g_zero
        pt2 = relax_minimum(model, big, initial_guess=guess)
        assert pt2.n_iter <= 25


class TestSolverDiagnostics:
    def test_gradient_decreases_monotonically_after_first_step(self):
        for name in ("square_misfit", "square_harmonic_defect"):
            model = preset_model(name)
            pt = relax_minimum(model, Supercell(model.spec, 4))
            hist = pt.gradient_history
            assert len(hist) >= 2
            assert all(b < a for a, b in zip(hist[1:], hist[2:])) or len(hist) <= 2
            # and in fact on this corpus it is monotone from the first step
            assert all(b < a for a, b in zip(hist, hist[1:]))


def test_certify_reruns_classification():
    from latthermo import certify
    model = preset_model("square_misfit")
    pt = relax_minimum(model, Supercell(model.spec, 4))
    cls = certify(model, pt)
    assert cls.n_zero == 2 and cls.n_negative == 0
    assert cls.n_positive == pt.certificate.n_positive


def test_dense_certificate_takes_one_eigh(monkeypatch):
    # the low end comes from one diagonalisation with the constants shifted
    # out of view, and agrees with one eigh of the assembled Hessian
    # (symmetrised: it is symmetric only to round-off); the zeros are the
    # translation Rayleigh quotients and the top is the Gershgorin bound
    from latthermo.stationary import _certify_spectrum
    model, cell, minimum = double_well_minimum(4)
    H = minimum.H
    A = H.dense()
    w = np.linalg.eigh(0.5 * (A + A.T))[0]
    m, k = cell.spec.m, 2
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cls = _certify_spectrum(model, H, "minimum")[0]
    assert calls == [(cell.n * m, cell.n * m)]
    gershgorin = float(abs(H.mat).sum(axis=1).max())
    assert len(cls.eigenvalues) == m + k + 1
    assert np.max(np.abs(cls.eigenvalues[:m])) < 1e-12 * gershgorin
    np.testing.assert_allclose(cls.eigenvalues[m:m + k], w[m:m + k], rtol=1e-12)
    assert cls.eigenvalues[-1] == cls.sigma_max == gershgorin


@pytest.mark.parametrize("case", ["cube_harmonic_minimum", "double_well_saddle"])
def test_iterative_certificate_matches_dense(monkeypatch, case):
    # cube_harmonic N=6 (1728 dofs) has a degenerate acoustic band edge at
    # 1.3397; the double-well N=8 saddle (512 dofs) a negative mode
    from latthermo import spectral
    from latthermo.spectral import generalized_eigen
    from latthermo.stationary import _certify_spectrum
    if case == "cube_harmonic_minimum":
        model = preset_model("cube_harmonic")
        cell = Supercell(model.spec, 6)
        kind, H = "minimum", hessian(model, cell.zero_field())
    else:
        model, cell, minimum = double_well_minimum(8)
        mid = 0.5 * (minimum.u.values + mirror_image(model, cell, minimum.u.values))
        kind, H = "saddle", find_saddle(model, cell, initial_guess=mid).H
    neg = 1 if kind == "saddle" else 0

    def spectrum():
        cls, lam, _ = _certify_spectrum(model, H, kind)
        lo, hi, mus, _ = generalized_eigen(H, model, expected_negative=neg)
        low = cls.eigenvalues[:-1][np.array(cls.labels[:-1]) != "translation_zero"]
        return cls, low, [lam or 0.0, *mus, lo, hi]

    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", cell.n * cell.spec.m)
    dense, dense_low, dense_facts = spectrum()
    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 0)
    it, it_low, it_facts = spectrum()
    assert (it.n_zero, it.n_negative, it.n_positive) == (dense.n_zero, dense.n_negative,
                                                         dense.n_positive)
    assert it.n_negative == neg and not it.complete
    assert len(it_low) == len(dense_low) == neg + 2
    np.testing.assert_allclose(it_low, dense_low, rtol=1e-9)
    np.testing.assert_allclose(it_facts, dense_facts, rtol=1e-9)
    # one layout on both routes (sorted): the expected negatives + 2 lowest,
    # m translation zeros between them, and the Gershgorin bound as the top
    m = cell.spec.m
    gershgorin = float(abs(H.mat).sum(axis=1).max())
    for cls in (dense, it):
        assert len(cls.eigenvalues) == m + neg + 2 + 1
        assert cls.labels == (["unstable_negative"] * neg + ["translation_zero"] * m
                              + ["positive"] * 3)
        assert cls.eigenvalues[-1] == cls.sigma_max == gershgorin
    # the zeros are the same translation Rayleigh quotients
    np.testing.assert_array_equal(it.eigenvalues[neg:neg + m], dense.eigenvalues[neg:neg + m])
    assert it.tau_zero == dense.tau_zero
    if case == "cube_harmonic_minimum":
        np.testing.assert_allclose(it_low, 1.3397, rtol=1e-4)


@pytest.mark.parametrize("N", [4, 8])
def test_finish_point_solve_counts(monkeypatch, N):
    # at N=4 (128 dofs) one dense eigh per operator, H then F_N H F_N; at N=8
    # (512 dofs) one LOBPCG solve for the certificate and two (top, bottom)
    # for F_N H F_N. A restart inside _lobpcg_eig does not count.
    from latthermo import spectral
    from latthermo.stationary import finish_point
    model, cell, minimum = double_well_minimum(N)
    mid = 0.5 * (minimum.u.values + mirror_image(model, cell, minimum.u.values))
    saddle = find_saddle(model, cell, initial_guess=mid)
    dim = cell.n * cell.spec.m
    eighs, lobpcgs = [], []
    eigh, lobpcg_eig = np.linalg.eigh, spectral._lobpcg_eig

    def counted_eigh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counted_lobpcg(*args, **kwargs):
        lobpcgs.append(args[8] if len(args) > 8 else kwargs["stage"])
        return lobpcg_eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(spectral, "_lobpcg_eig", counted_lobpcg)
    for pt in (minimum, saddle):
        eighs.clear()
        lobpcgs.clear()
        finish_point(model, pt.u, pt.kind, pt.energy, pt.gradient_norm, pt.n_iter, H=pt.H)
        if N == 4:
            assert eighs == [(dim, dim)] * 2 and lobpcgs == []
        else:
            assert eighs == []
            assert lobpcgs == [f"{pt.kind} certificate", "F_N H F_N top", "F_N H F_N bottom"]


def test_no_arpack_on_any_route(monkeypatch):
    import scipy.sparse.linalg as spla
    from latthermo.harness import RunConfig, _row, solve_points

    def refuse(*args, **kwargs):
        raise AssertionError("eigsh called")

    monkeypatch.setattr(spla, "eigsh", refuse)
    model = preset_model("square_double_well")
    cfg = RunConfig(model=model, N_list=[6, 8], saddle="on", kick_site=(0, 0),
                    kick_vector=np.array([0.15, 0.0]))
    row = _row(cfg, *solve_points(cfg, 8, solve_points(cfg, 6)))
    assert row["status"] == "ok" and row["mu"] < 0
    model = preset_model("square_misfit")
    pt = relax_minimum(model, Supercell(model.spec, 28))
    assert pt.certificate.n_zero == 2 and pt.certificate.n_negative == 0


@pytest.mark.parametrize("stage", ["minimum certificate", "F_N H F_N top",
                                   "F_N H F_N bottom", "saddle step"])
def test_lobpcg_miss_names_its_stage(monkeypatch, stage):
    import scipy.sparse.linalg as spla
    from latthermo import spectral
    from latthermo.spectral import generalized_eigen
    from latthermo.stationary import _certify_spectrum
    model, cell, minimum = double_well_minimum(8)
    if stage == "F_N H F_N bottom":
        lobpcg = spla.lobpcg

        def stalled_below(*args, largest=False, **kwargs):
            if not largest:
                kwargs["maxiter"] = 1
            return lobpcg(*args, largest=largest, **kwargs)

        monkeypatch.setattr(spla, "lobpcg", stalled_below)
    else:
        monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 1)
    with pytest.raises(RuntimeError, match=rf"^{stage} at N=8: LOBPCG eigenpair residual \S+ above"):
        if stage == "minimum certificate":
            _certify_spectrum(model, minimum.H, "minimum")
        elif stage == "saddle step":
            mid = 0.5 * (minimum.u.values + mirror_image(model, cell, minimum.u.values))
            _saddle_follow(model, cell, mid, max_iter=120)
        else:
            generalized_eigen(minimum.H, model)


def test_preconditioned_lobpcg_converges_from_every_seed():
    # the first saddle step starts LOBPCG from a random block; at N=16 seed 1
    # stalls near the acoustic band edge and converges only after a restart
    from latthermo.spectral import FApplier, _extremal_eig
    model, cell, minimum = double_well_minimum(16)
    u = 0.5 * (minimum.u.values + mirror_image(model, cell, minimum.u.values))
    H = hessian(model, DisplacementField(cell, u - u.mean(axis=0)))
    matvec = lambda v: np.asarray(H.mat @ v)
    precond = FApplier(cell, model).squared().apply
    scale = float(abs(H.mat).sum(axis=1).max())
    lows = []
    for seed in range(4):
        w, V = _extremal_eig(matvec, cell, scale, k=2, precond=precond, seed=seed)
        assert np.max(np.linalg.norm(matvec(V) - V * w, axis=0)) <= 1e-9 * scale
        lows.append(w)
    assert np.ptp(np.array(lows), axis=0).max() < 1e-10 * scale


def double_well_pair(N):
    """The N-cell double-well minimum from the kick and the saddle found from
    the midpoint of the minimum and its mirror image."""
    model, cell, minimum = double_well_minimum(N)
    mid = 0.5 * (minimum.u.values + mirror_image(model, cell, minimum.u.values))
    return model, cell, minimum, find_saddle(model, cell, initial_guess=mid)


@pytest.mark.parametrize("N", [4, 8])
def test_stationary_points_take_no_lu(monkeypatch, N):
    # the minimiser and the saddle search step by one preconditioned CG solve
    import scipy.sparse.linalg as spla

    def refuse(*args, **kwargs):
        raise AssertionError("splu called by a Newton step")

    monkeypatch.setattr(spla, "splu", refuse)
    model, cell, minimum, saddle = double_well_pair(N)
    assert minimum.gradient_norm <= tol_grad(cell) and minimum.certificate.n_negative == 0
    assert saddle.route == "follow" and saddle.gradient_norm <= tol_grad(cell)
    assert saddle.certificate.n_negative == 1


@pytest.mark.parametrize("N", [4, 8])
def test_newton_step_solve_matches_dense_solve(N):
    # on the complement of the constants and phi the saddle Hessian is positive
    from scipy.linalg import null_space
    from latthermo.spectral import _hessian_precond, _translation_modes
    from latthermo.stationary import _bordered_solve
    model, cell, _, saddle = double_well_pair(N)
    phi = saddle.phi.reshape(-1)
    Q = null_space(np.column_stack([_translation_modes(cell.n, cell.spec.m), phi]).T)
    A = saddle.H.dense()
    rhs = np.random.default_rng(5).standard_normal(A.shape[0])
    dense = Q @ np.linalg.solve(Q.T @ A @ Q, Q.T @ rhs)
    p = _bordered_solve(saddle.H.mat, 0.0, rhs, cell, _hessian_precond(cell, model),
                        modes=[phi])
    assert np.linalg.norm(p - dense) <= 1e-9 * np.linalg.norm(dense)


def test_newton_step_solve_reports_negative_curvature():
    # without the unstable mode projected out, the unshifted saddle Hessian
    # is indefinite: CG meets a direction of negative curvature
    from latthermo.spectral import _hessian_precond
    from latthermo.stationary import _bordered_solve
    model, cell, _, saddle = double_well_pair(4)
    rhs = np.random.default_rng(5).standard_normal(cell.n * cell.spec.m)
    assert _bordered_solve(saddle.H.mat, 0.0, rhs, cell, _hessian_precond(cell, model)) is None
