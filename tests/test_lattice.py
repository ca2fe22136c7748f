import itertools

import numpy as np
import pytest

from latthermo import (
    ConfigurationError,
    DisplacementField,
    LatticeSpec,
    PreconditionError,
    Supercell,
    cutoff_T_R,
)
from latthermo.fitting import fit_rate


def spec_square(m=1, r_cut=1.5):
    return LatticeSpec(A=np.eye(2), B=np.eye(2), m=m, r_cut=r_cut)


def naive_wrap(x, C, N):
    """Exhaustive search for the representative of x modulo 2N C Z^d."""
    d = len(x)
    Cinv = np.linalg.inv(C)
    for z in itertools.product(range(-9, 10), repeat=d):
        cand = np.asarray(x) - 2 * N * (C @ np.asarray(z))
        t = Cinv @ cand
        # strict half-open (-N, N]; rational t has spacing >= 1/|det C|
        if np.all(t > -N + 1e-9) and np.all(t < N + 1e-9):
            return tuple(int(v) for v in cand)
    raise AssertionError("no representative found")


def naive_dft(cell, f):
    phases = np.exp(1j * (cell.dual.k @ cell.pos.T))
    return phases @ f


class TestSupercell:
    def test_unit_cell_sites(self):
        # geometry-only: at N=1 no spanning stencil embeds, so skip that check
        cell = Supercell(spec_square(), 1, check_interaction=False)
        assert cell.n == 4
        assert sorted(map(tuple, cell.x.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_doubled_cell_count(self):
        spec = LatticeSpec(A=np.eye(2), B=2 * np.eye(2), m=1, r_cut=1.5)
        assert Supercell(spec, 1).n == 16

    def test_3d_count(self):
        spec = LatticeSpec(A=np.eye(3), B=np.eye(3), m=1, r_cut=1.5)
        assert Supercell(spec, 2).n == 64

    def test_non_integer_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(A=np.eye(2), B=1.5 * np.eye(2), m=1, r_cut=1.5)

    def test_too_small_cell_rejected(self):
        with pytest.raises(PreconditionError):
            Supercell(spec_square(r_cut=2.5), 1)

    def test_wrap_periodicity(self):
        spec = LatticeSpec(A=np.eye(2), B=np.array([[2.0, 1.0], [0.0, 1.0]]), m=1, r_cut=1.5)
        cell = Supercell(spec, 2)
        rng = np.random.default_rng(0)
        xs = rng.integers(-20, 20, size=(50, 2))
        zs = rng.integers(-3, 3, size=(50, 2))
        shifted = xs + 2 * cell.N * (zs @ spec.C.T)
        assert np.array_equal(cell.site_indices(xs), cell.site_indices(shifted))
        for x in xs[:10]:
            assert tuple(cell.x[cell.site_indices(x[None])][0]) == naive_wrap(x, spec.C, cell.N)

    def test_inverse_map_bijective(self):
        cell = Supercell(spec_square(), 3)
        idx = cell.site_indices(cell.x)
        assert np.array_equal(idx, np.arange(cell.n))


# cells whose diagonal form is the identity, a shear, an orientation flip
# (det A^-1 B < 0) and a non-diagonal 3-d cell; N keeps every point with
# |x_i| <= 50 within naive_wrap's search window
INDEX_CASES = [
    ("square", np.eye(2), 4),
    ("sheared", np.array([[2.0, 1.0], [0.0, 1.0]]), 4),
    ("negative_det", np.array([[1.0, 1.0], [1.0, 0.0]]), 7),
    ("cubic_nondiagonal", np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 2.0]]), 8),
]


class TestIndexPath:
    @pytest.mark.parametrize("name,B,N", INDEX_CASES, ids=[c[0] for c in INDEX_CASES])
    def test_site_indices_match_naive_wrap(self, name, B, N):
        d = B.shape[0]
        spec = LatticeSpec(A=np.eye(d), B=B, m=1, r_cut=1.5)
        cell = Supercell(spec, N)
        ordinal = {tuple(p): i for i, p in enumerate(cell.x.tolist())}
        rng = np.random.default_rng(10)
        xs = rng.integers(-50, 51, size=(40 if d == 2 else 15, d))
        expect = [ordinal[naive_wrap(x, spec.C, N)] for x in xs]
        assert np.array_equal(cell.site_indices(xs), expect)
        w = cell.x[cell.site_indices(xs)]
        assert np.array_equal(cell.x[cell.site_indices(w)], w)

    @pytest.mark.parametrize("name,B,N", INDEX_CASES, ids=[c[0] for c in INDEX_CASES])
    def test_dft_matches_naive_phases(self, name, B, N):
        d = B.shape[0]
        cell = Supercell(LatticeSpec(A=np.eye(d), B=B, m=1, r_cut=1.5), 2,
                         check_interaction=False)
        f = np.random.default_rng(12).standard_normal((cell.n, 2))
        fhat = cell.dft(f)
        assert np.allclose(fhat, naive_dft(cell, f), atol=1e-9)
        assert np.max(np.abs(cell.idft(fhat) - f)) < 1e-12

    @pytest.mark.parametrize("name,B,N", INDEX_CASES, ids=[c[0] for c in INDEX_CASES])
    def test_interaction_fits_matches_naive_wrap(self, name, B, N):
        d = B.shape[0]
        for r_cut, level in ((1.5, 1), (2.5, 1), (1.5, N)):
            spec = LatticeSpec(A=np.eye(d), B=B, m=1, r_cut=r_cut)
            cell = Supercell(spec, level, check_interaction=False)
            ball = [tuple(p) for p in spec.stencil_x.tolist()]
            fits = all(naive_wrap(p, spec.C, level) == p for p in ball)
            assert cell.interaction_fits == fits


class TestStencil:
    def test_constant_field_zero(self):
        cell = Supercell(spec_square(m=2), 2)
        u = DisplacementField(cell, np.ones((cell.n, 2)) * 0.7)
        assert np.allclose(u.gradients()[cell.index((0, 0))], 0.0)

    def test_linear_field(self):
        cell = Supercell(spec_square(m=2), 2)
        # affine maps are not periodic; emulate via direct formula on the stencil
        G = np.array([[0.3, -0.1], [0.2, 0.5]])
        vals = cell.pos @ G.T
        u = DisplacementField(cell, vals)
        expected = cell.spec.stencil @ G.T
        got = u.gradients()[cell.index((1, 1))]
        interior_ok = np.allclose(got, expected)
        # site (1,1) at N=2 has all neighbours inside the cell, so no wrap
        assert interior_ok

    def test_random_field_wrap_oracle(self):
        spec = spec_square(m=2)
        cell = Supercell(spec, 2)
        rng = np.random.default_rng(1)
        u = DisplacementField(cell, rng.standard_normal((cell.n, 2)))
        for trial in range(5):
            x = rng.integers(-6, 6, size=2)
            got = u.gradients()[cell.index(x)]
            for j, rho in enumerate(spec.stencil_x):
                a = u.values[cell.index(naive_wrap(x + rho, spec.C, cell.N))]
                b = u.values[cell.index(naive_wrap(x, spec.C, cell.N))]
                assert np.allclose(got[j], a - b, atol=1e-14)


CELL_CASES = [
    ("fft_square", LatticeSpec(A=np.eye(2), B=np.eye(2), m=1, r_cut=1.5), 3),
    ("fft_triangular", LatticeSpec(A=np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]),
                                   B=np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]),
                                   m=1, r_cut=1.2), 3),
    ("naive_sheared", LatticeSpec(A=np.eye(2), B=np.array([[2.0, 1.0], [0.0, 1.0]]),
                                  m=1, r_cut=1.5), 2),
    ("fft_cubic", LatticeSpec(A=np.eye(3), B=np.eye(3), m=1, r_cut=1.5), 2),
]


class TestDFT:
    @pytest.mark.parametrize("name,spec,N", CELL_CASES, ids=[c[0] for c in CELL_CASES])
    def test_roundtrip_and_oracle(self, name, spec, N):
        cell = Supercell(spec, N)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(cell.n)
        fhat = cell.dft(f)
        assert np.allclose(fhat, naive_dft(cell, f), atol=1e-9)
        back = cell.idft(fhat)
        assert np.max(np.abs(back.real - f)) < 1e-12
        assert np.max(np.abs(back.imag)) < 1e-12

    def test_delta_transforms_to_one(self):
        cell = Supercell(spec_square(), 2)
        f = np.zeros(cell.n)
        f[cell.index((0, 0))] = 1.0
        assert np.allclose(cell.dft(f), 1.0)

    def test_constant_transforms_to_delta(self):
        cell = Supercell(spec_square(), 2)
        fhat = cell.dft(np.ones(cell.n))
        zero = np.all(cell.dual.y == 0, axis=1)
        assert np.allclose(fhat[zero], cell.n)
        assert np.max(np.abs(fhat[~zero])) < 1e-9

    def test_parseval(self):
        cell = Supercell(spec_square(), 4)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(cell.n)
        fhat = cell.dft(f)
        assert np.isclose(np.sum(f**2), np.sum(np.abs(fhat) ** 2) / cell.n, rtol=1e-12)

    def test_character_orthogonality(self):
        cell = Supercell(spec_square(), 3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            i, j = rng.integers(0, cell.n, size=2)
            s = np.sum(np.exp(1j * cell.pos @ (cell.dual.k[i] - cell.dual.k[j])))
            expect = cell.n if i == j else 0.0
            assert abs(s - expect) < 1e-9 * cell.n


class TestPeriodicProjection:
    def test_poisson_tail_rate(self):
        # |f - f_N|_sup for f ~ (1+|l|)^-4 in d=2 decays like N^-4 (one power
        # above the summability threshold per extra decay order)
        Ns = [8, 12, 16, 24, 32]
        errs = []
        for N in Ns:
            cell = Supercell(spec_square(), N)
            f_exact = (1.0 + cell.r) ** -4.0
            f_N = f_exact.copy()
            for z in itertools.product(range(-3, 4), repeat=2):
                if z == (0, 0):
                    continue
                img = cell.x + 2 * N * np.asarray(z)
                f_N += (1.0 + np.linalg.norm(img, axis=1)) ** -4.0
            errs.append(np.max(np.abs(f_N - f_exact)))
        fit = fit_rate(np.array(Ns, float), np.array(errs))
        assert -4.8 <= fit.exponent <= -3.0


class TestCutoff:
    def make_cell(self):
        return Supercell(spec_square(m=2), 16)

    def test_constant_passthrough(self):
        cell = self.make_cell()
        u = DisplacementField(cell, np.full((cell.n, 2), 1.3))
        w = cutoff_T_R(u, 12.0)
        assert np.allclose(w.values, 1.3)

    def test_inner_identity_and_outer_vanishing_exact(self):
        cell = self.make_cell()
        rng = np.random.default_rng(5)
        u = DisplacementField(cell, rng.standard_normal((cell.n, 2)))
        R = 12.0
        w = cutoff_T_R(u, R)
        Du = u.gradients()
        Dw = w.gradients()
        inner = cell.r <= R / 2
        outer = cell.r >= R
        assert np.array_equal(Dw[inner], Du[inner])
        assert np.max(np.abs(Dw[outer])) == 0.0

    def test_interior_supported_field_unchanged(self):
        cell = self.make_cell()
        vals = np.zeros((cell.n, 2))
        core = cell.r <= 3.0
        vals[core] = np.random.default_rng(6).standard_normal((core.sum(), 2))
        u = DisplacementField(cell, vals)
        w = cutoff_T_R(u, 12.0)
        diff = w.values - u.values
        assert np.max(np.abs(diff - diff[0])) < 1e-12

    def test_gradient_norm_bound(self):
        cell = self.make_cell()
        amp = 1.0 / (1.0 + cell.r**2)          # |Du| ~ |l|^-d for d=2
        rng = np.random.default_rng(7)
        vals = amp[:, None] * rng.standard_normal((cell.n, 2))
        u = DisplacementField(cell, vals)
        R = 12.0
        w = cutoff_T_R(u, R)
        norm_w = np.linalg.norm(w.gradients())
        norm_u = np.linalg.norm(u.gradients()[cell.r <= R])
        assert norm_w <= 4.0 * norm_u

    def test_small_radius_rejected(self):
        cell = self.make_cell()
        u = DisplacementField(cell, np.zeros((cell.n, 2)))
        with pytest.raises(PreconditionError):
            cutoff_T_R(u, 4.0)


def test_large_fft_roundtrip_exact():
    # FFT at N=16, d=2: round trip and Parseval to 1e-12 relative
    cell = Supercell(spec_square(), 16)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(cell.n)
    fhat = cell.dft(f)
    back = cell.idft(fhat)
    assert np.max(np.abs(back.real - f)) < 1e-12 * np.max(np.abs(f))
    assert np.isclose(np.sum(f**2), np.sum(np.abs(fhat) ** 2) / cell.n, rtol=1e-12)


def test_large_sheared_fft_roundtrip():
    # sheared cell at N=40: n = 12800, where an n x n DFT matrix would take 2.6 GB
    spec = LatticeSpec(A=np.eye(2), B=np.array([[2.0, 1.0], [0.0, 1.0]]), m=1, r_cut=1.5)
    cell = Supercell(spec, 40)
    assert cell.n == 12800
    rng = np.random.default_rng(11)
    f = rng.standard_normal((cell.n, 2))
    fhat = cell.dft(f)
    back = cell.idft(fhat)
    assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))
    sample = rng.choice(cell.n, size=64, replace=False)
    oracle = np.exp(1j * (cell.dual.k[sample] @ cell.pos.T)) @ f
    assert np.max(np.abs(fhat[sample] - oracle)) < 1e-9 * np.sum(np.abs(f))


class TestPointGroup:
    HEX = [[1.0, 0.5], [0.0, np.sqrt(3.0) / 2]]

    @pytest.mark.parametrize("A, B, r_cut, order", [
        (np.eye(1), np.eye(1), 1.5, 2),
        (np.eye(2), np.eye(2), 1.5, 8),
        (np.eye(2), [[2.0, 1.0], [0.0, 1.0]], 1.5, 8),     # checkerboard superlattice: D4
        (np.eye(2), [[2.0, 0.0], [0.0, 1.0]], 1.5, 4),     # rectangular cell: D2 only
        ([[1.0, 1.0], [0.0, 1.0]], np.eye(2), 1.5, 8),     # square lattice, skew basis
        (HEX, HEX, 1.1, 12),
        (np.eye(3), np.eye(3), 1.5, 48),
    ])
    def test_isometries_that_keep_the_superlattice(self, A, B, r_cut, order):
        A = np.asarray(A, dtype=float)
        d = A.shape[0]
        spec = LatticeSpec(A=A, B=np.asarray(B, dtype=float), m=d, r_cut=r_cut)
        cell = Supercell(spec, 3)
        group = cell.point_group
        assert len(group) == order
        assert np.array_equal(group[0].Q, np.eye(d, dtype=int))
        G = A.T @ A
        Qs = {g.Q.tobytes() for g in group}
        for g in group:
            assert np.allclose(g.Q.T @ G @ g.Q, G, atol=1e-12)
            assert np.allclose(g.R @ g.R.T, np.eye(d), atol=1e-12)
            assert np.allclose(g.R @ A, A @ g.Q, atol=1e-12)
            assert np.array_equal(np.sort(g.perm), np.arange(cell.n))
            assert np.array_equal(cell.x[g.perm], cell.x[cell.site_indices(cell.x @ g.Q.T)])
            assert all((g.Q @ h.Q).tobytes() in Qs for h in group)       # closed

    def test_scalar_field_components_stay(self):
        spec = LatticeSpec(A=np.eye(3), B=np.eye(3), m=1, r_cut=1.5)
        assert all(np.array_equal(g.R, np.eye(1)) for g in Supercell(spec, 2).point_group)

    def test_unknown_element_is_refused(self):
        # the axis swap is a lattice isometry that does not keep the 2N diag(2, 1)
        # superlattice: its raw site map collides sites, and no public route builds it
        cell = Supercell(LatticeSpec(A=np.eye(2), B=np.diag([2.0, 1.0]), m=2, r_cut=1.5), 3)
        swap = np.array([[0, 1], [1, 0]])
        assert np.unique(cell.site_indices(cell.x @ swap.T)).size < cell.n
        with pytest.raises(ConfigurationError, match="not in the point group"):
            cell.symmetry(swap)
        assert not hasattr(cell, "site_permutation")
        for g in cell.point_group:
            assert np.array_equal(np.sort(g.perm), np.arange(cell.n))

    def test_field_action_in_a_non_orthogonal_basis(self):
        # the square lattice in the basis A = [[1, 1], [0, 1]]: sites map by Q in
        # lattice coordinates, Cartesian displacements by R = A Q A^-1. A
        # breathing field phi(|A x|) A x, supported well inside the cell, is
        # invariant under every element; the lattice-coordinate map
        # values[perm] @ Q.T breaks it wherever Q differs from R
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        cell = Supercell(LatticeSpec(A=A, B=np.eye(2), m=2, r_cut=1.5), 6)
        phi = np.clip(2.5 - cell.r, 0.0, None) ** 2
        u = phi[:, None] * cell.pos
        differs = 0
        for g in cell.point_group:
            assert np.allclose(g.act(u), u, rtol=0, atol=1e-14)
            if not np.array_equal(g.R, g.Q):
                differs += 1
                assert np.max(np.abs(u[g.perm] @ g.Q.T - u)) > 0.1
        assert differs == 6
