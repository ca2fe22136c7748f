from pathlib import Path

import numpy as np
import pytest

from latthermo import (
    ConfigurationError,
    LatticeSpec,
    Supercell,
    hessian,
    preset_model,
    stability_scan,
    symbol_h,
)
from latthermo.config import load_config
from latthermo.potentials import (
    PRESETS,
    PotentialModel,
    _acoustic_limits,
    _norm_derivative_tensors,
    symbol_h_batch,
)


def random_gradient(pot, rng, scale=0.1):
    return scale * rng.standard_normal((pot.nR, pot.m))


BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"

ALL_POTS = ["chain_harmonic", "square_harmonic", "square_anharmonic",
            "square_misfit", "square_double_well", "square_harmonic_defect"]


def iter_site_potentials(name):
    model = PRESETS[name]()
    yield model.homogeneous
    yield from model.overrides.values()


class TestDerivatives:
    def test_harmonic_zero_point(self):
        model = preset_model("square_harmonic")
        zero = np.zeros((model.spec.nR, 2))
        assert model.homogeneous.value(zero) == 0.0
        assert np.all(model.homogeneous.grad(zero) == 0.0)

    @pytest.mark.parametrize("name", ALL_POTS)
    def test_fd_ladder(self, name):
        """Each derivative contracted with a direction equals the FD of the one
        below it, bond by bond: bond rho's gradient moves only with g_rho."""
        rng = np.random.default_rng(42)
        h = 1e-5
        for pot in iter_site_potentials(name):
            g = random_gradient(pot, rng)
            direction = rng.standard_normal(g.shape)
            direction /= np.linalg.norm(direction)
            G, D = g[None], direction[None]
            lower = [pot.value_batch, pot.grad_batch, pot.bond_hess_batch]
            exact = [np.sum(pot.grad_batch(G) * D, axis=(1, 2)),
                     np.einsum("srab,srb->sra", pot.bond_hess_batch(G), D),
                     np.einsum("srabc,src->srab", pot.bond_third_batch(G), D)]
            for j in range(3):
                fd = (lower[j](G + h * D) - lower[j](G - h * D)) / (2 * h)
                scale = max(np.max(np.abs(fd)), 1e-8)
                tol = 1e-6 if j == 0 else 1e-5
                assert np.max(np.abs(exact[j] - fd)) / scale < tol, (name, j)

    @pytest.mark.parametrize("name", ALL_POTS)
    def test_hessian_slot_symmetry(self, name):
        # every bond's second (third) derivative block is symmetric in its
        # two (three) indices
        rng = np.random.default_rng(7)
        for pot in iter_site_potentials(name):
            G = random_gradient(pot, rng)[None]
            H = pot.bond_hess_batch(G)
            T = pot.bond_third_batch(G)
            assert H.shape == (1, pot.nR, pot.m, pot.m)
            assert np.max(np.abs(H - np.swapaxes(H, 2, 3))) < 1e-12 * max(1.0, np.abs(H).max())
            tol = 1e-12 * max(1.0, np.abs(T).max())
            for perm in [(0, 1, 3, 2, 4), (0, 1, 2, 4, 3), (0, 1, 4, 3, 2)]:
                assert np.max(np.abs(T - np.transpose(T, perm))) < tol

    @pytest.mark.parametrize("name", ALL_POTS)
    def test_point_symmetry(self, name):
        """V(A) = V((-A_{-rho})_rho) for every shipped site potential."""
        model = PRESETS[name]()
        spec = model.spec
        # map slot of rho -> slot of -rho
        flip = np.array([spec.stencil_slot(-r) for r in spec.stencil_x])
        rng = np.random.default_rng(11)
        for pot in iter_site_potentials(name):
            for _ in range(100):
                g = random_gradient(pot, rng)
                reflected = -g[flip]
                v1, v2 = pot.value(g), pot.value(reflected)
                assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_homogeneous_zero_is_equilibrium(self):
        for name in ALL_POTS:
            model = PRESETS[name]()
            zero = np.zeros((model.spec.nR, model.spec.m))
            assert abs(model.homogeneous.value(zero)) < 1e-14
            assert np.max(np.abs(model.homogeneous.grad(zero))) < 1e-14

    def test_misfit_override_has_force(self):
        model = preset_model("square_misfit")
        zero = np.zeros((model.spec.nR, 2))
        dv = model.overrides[(0, 0)]
        assert abs(dv.value(zero)) < 1e-14           # V_ell(0) = 0 still holds
        assert np.max(np.abs(dv.grad(zero))) > 1e-3  # misfit force

    def test_morse_taylor_coefficients(self):
        # (c2, c3, c4) = (2Da^2, -6Da^3, 14Da^4) implies c3^2 = (36/28) c2 c4
        pot = preset_model("square_anharmonic").homogeneous
        assert np.allclose(pot.c3**2, (36.0 / 28.0) * pot.c2 * pot.c4)
        assert np.all(pot.c3 < 0)


def sine_symbol(model, k):
    """The sine form every stage uses, at one k."""
    return symbol_h_batch(model, np.asarray(k, dtype=float)[None])[0]


class TestSymbol:
    """The raw difference form ``symbol_h`` against the sine form ``symbol_h_batch``."""

    def test_chain_hand_value(self):
        model = preset_model("chain_harmonic")
        for k in [0.3, 1.0, 2.5]:
            raw = symbol_h(model, np.array([k]))
            assert abs(raw[0, 0].real - 4 * np.sin(k / 2) ** 2) < 1e-12
            assert np.max(np.abs(raw - sine_symbol(model, [k]))) < 1e-12

    def test_zero_momentum_vanishes(self):
        for name in ["square_harmonic", "square_anharmonic"]:
            model = PRESETS[name]()
            assert np.max(np.abs(symbol_h(model, np.zeros(2)))) < 1e-12
            assert np.max(np.abs(sine_symbol(model, np.zeros(2)))) < 1e-12

    def test_raw_equals_sine_random_k(self):
        rng = np.random.default_rng(3)
        for name in ["square_harmonic", "square_anharmonic", "chain_misfit"]:
            model = PRESETS[name]()
            for _ in range(10):
                k = rng.uniform(-np.pi, np.pi, size=model.spec.d)
                raw = symbol_h(model, k)
                assert np.max(np.abs(raw - sine_symbol(model, k))) < 1e-12
                herm = np.max(np.abs(raw - raw.conj().T))
                assert herm < 1e-12

    @pytest.mark.parametrize("name, N", [("square_misfit", 6), ("chain_misfit", 5),
                                         ("cube_harmonic", 3), ("sheared", 4)])
    def test_sine_form_is_the_dft_of_the_assembled_hessian(self, name, N):
        # on the dual grid the symbol is the block DFT sum_l H_hom(0, l) e^{i k.l}
        # of the origin row of the assembled homogeneous Hessian
        if name == "sheared":
            model = load_config(BENCH_CONFIGS / "sheared_entropy.yaml").model
        else:
            model = PRESETS[name]()
        cell = Supercell(model.spec, N)
        m = model.spec.m
        origin = cell.index([0] * model.spec.d)
        H = hessian(model.homogenized(), cell.zero_field()).mat
        row = H[origin * m:(origin + 1) * m].toarray().reshape(m, cell.n, m)
        phases = np.exp(1j * cell.dual.k @ cell.pos.T)                 # (nk, n)
        dft = np.einsum("kl,alb->kab", phases, row)
        sine = symbol_h_batch(model, cell.dual.k)
        assert np.abs(dft.imag).max() <= 1e-13 * np.abs(sine).max()
        assert np.abs(dft.real - sine).max() <= 1e-13 * np.abs(sine).max()

    def test_symbol_positive_semidefinite_for_stable_models(self):
        rng = np.random.default_rng(4)
        for name in ["square_harmonic", "square_anharmonic"]:
            model = PRESETS[name]()
            for _ in range(50):
                k = rng.uniform(-np.pi, np.pi, size=2)
                w = np.linalg.eigvalsh(sine_symbol(model, k))
                assert w.min() > -1e-12


class TestStabilityScan:
    def test_chain_bounds(self):
        # eigenvalue of 4 sin^2(k/2) / k^2 ranges over [4/pi^2, 1]
        rep = stability_scan(preset_model("chain_harmonic"), resolution=512)
        assert rep.passed
        assert abs(rep.c0 - 4 / np.pi**2) < 1e-3
        assert abs(rep.c1 - 1.0) < 1e-3

    def test_square_models_pass(self):
        for name in ["square_harmonic", "square_anharmonic", "square_misfit"]:
            rep = stability_scan(PRESETS[name]())
            assert rep.passed and rep.c0 > 0, name

    def test_negative_spring_fails(self):
        rep = stability_scan(preset_model("square_unstable"))
        assert not rep.passed
        assert rep.c0 <= 0

    def test_acoustic_limits_match_small_k_symbol(self):
        # every direction's limit h_hat(eps khat)/eps^2 against the sine form at
        # eps = 1e-4, where sin^2 x = x^2 (1 + O(x^2)) leaves a 1e-8 relative gap
        rng = np.random.default_rng(13)
        eps = 1e-4
        for name in ["chain_misfit", "square_anharmonic", "square_unstable", "cube_harmonic"]:
            model = PRESETS[name]()
            khats = rng.standard_normal((16, model.spec.d))
            khats /= np.linalg.norm(khats, axis=1, keepdims=True)
            limits = _acoustic_limits(model, khats)
            near = symbol_h_batch(model, eps * khats) / eps**2
            assert np.max(np.abs(limits - near)) < 1e-6 * np.max(np.abs(limits)), name


def test_symbol_conjugate_symmetry():
    # h(-k) is the complex conjugate of h(k)
    rng = np.random.default_rng(12)
    model = preset_model("square_anharmonic")
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi, size=2)
        hp = symbol_h(model, k)
        hm = symbol_h(model, -k)
        assert np.max(np.abs(hm - hp.conj())) < 1e-12


def test_norm_derivatives_stop_at_the_requested_order():
    y = np.random.default_rng(4).standard_normal((6, 8, 2)) + 1.5
    full = _norm_derivative_tensors(y)
    assert len(full) == 4
    for order in range(3):
        low = _norm_derivative_tensors(y, order)
        assert len(low) == order + 1
        for a, b in zip(low, full):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("A, mirror", [
    (np.eye(2), [[1, 1], [0, 1]]),                  # a shear: integer, not an isometry
    (np.eye(2), [[2, 0], [0, 1]]),
    (np.eye(2), [[-0.5, 0], [0, 1]]),
    ([[1.0, 1.0], [0.0, 1.0]], [[-1, 0], [0, 1]]),  # a mirror of Z^2, not of this basis
])
def test_mirror_must_be_a_lattice_isometry(A, mirror):
    model = preset_model("square_misfit")
    spec = LatticeSpec(A=np.asarray(A), B=np.eye(2), m=2, r_cut=1.5)
    with pytest.raises(ConfigurationError, match="not an isometry of the lattice"):
        PotentialModel(spec, model.homogeneous, mirror=np.asarray(mirror))
    assert PotentialModel(spec, model.homogeneous, mirror=-np.eye(2)).mirror.dtype == np.int64
