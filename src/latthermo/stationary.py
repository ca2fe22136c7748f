"""Stationary points of the supercell energy: minima, index-1 saddles, tracking.

The minimiser is a damped Newton iteration with the exact sparse Hessian.
The saddle search follows the softest non-translation mode (eigenvector
following), with a symmetric-subspace fallback for models that declare a
mirror symmetry. Every Newton step of both takes one linear solver: CG on the
complement of the constants, preconditioned by F_N^2 = (H^hom)^+.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp

from .assembly import LinearLatticeOperator, energy_periodic, gradient_periodic, hessian
from .lattice import DisplacementField, Supercell, cutoff_T_R
from .potentials import PotentialModel
from .spectral import (
    AmbiguousSpectrumError,
    ZERO_TOL_FACTOR,
    FApplier,
    ModeClassification,
    _extremal_eig,
    _mean_project,
    _translation_modes,
    classify_eigenvalues,
    generalized_eigen,
)

__all__ = [
    "StationaryPoint",
    "CertificationError",
    "tol_grad",
    "relax_minimum",
    "find_saddle",
    "continue_in_N",
    "finish_point",
]

logger = logging.getLogger(__name__)

STEP_MAX = 0.25                     # largest per-component saddle step
CG_RTOL = 1e-10                     # relative residual of every Newton-step solve
CG_MAXITER = 1000


class CertificationError(RuntimeError):
    """A converged point failed its spectral certificate."""

    def __init__(self, message: str, classification: ModeClassification | None = None):
        super().__init__(message)
        self.classification = classification


def tol_grad(cell: Supercell) -> float:
    """Gradient tolerance 1e-10 sqrt(|Lambda_N|): per-site residual N-independent."""
    return 1e-10 * np.sqrt(cell.n)


@dataclass
class StationaryPoint:
    kind: str                       # 'minimum' or 'saddle'
    u: DisplacementField
    energy: float
    gradient_norm: float
    certificate: ModeClassification
    sigma: tuple[float, float]      # bounds of the positive spectrum of F_N H F_N
    model_hash: str
    n_iter: int
    lam: float | None = None        # unstable eigenvalue at a saddle
    route: str | None = None        # saddle route: follow or symmetric_fallback
    mu: float | None = None         # negative eigenvalue of F_N H F_N at a saddle
    w: np.ndarray | None = None     # its unit mode, flattened (n m,); psi = F_N w
    H: LinearLatticeOperator | None = field(default=None, repr=False, compare=False)
    F: FApplier | None = field(default=None, repr=False, compare=False)   # the cell's F_N

    @property
    def N(self) -> int:
        return self.u.cell.N


def _bordered_solve(H: sp.spmatrix, nu: float, rhs: np.ndarray, cell: Supercell, precond,
                    mode: np.ndarray | None = None,
                    stage: str = "Newton step") -> np.ndarray | None:
    """Solve (H + nu I) p = rhs on the complement of the constants and ``mode``.

    CG preconditioned by P F_N^2 P, with P the orthogonal projector on that
    complement and F_N^2 the block map ``precond`` (``FApplier.precond``), to
    relative residual ``CG_RTOL``. ``mode``, the followed mode of a saddle
    step, is a unit vector orthogonal to the constants. Returns None when a
    search direction has non-positive curvature, so H + nu I is not positive
    there; raises RuntimeError naming ``stage`` and N at ``CG_MAXITER``
    iterations.

    The one Newton-step solver of the minimiser and the saddle search. It
    keeps the name of the bordered LU it replaced because bench/tracing.py
    wraps it by that name; the two are renamed together.
    """
    n, m = cell.n, cell.spec.m

    def project(v):
        out = v - _mean_project(v, n, m)
        if mode is not None:
            out = out - mode * (mode @ out)
        return out

    r = project(rhs)
    x = np.zeros_like(r)
    r_tol = CG_RTOL * float(np.linalg.norm(r))
    z = project(precond(r))
    p, rz = z, float(r @ z)
    for _ in range(CG_MAXITER):
        if np.linalg.norm(r) <= r_tol:
            return x
        Kp = project(np.asarray(H @ p) + nu * p)
        curv = float(p @ Kp)
        if curv <= 0:
            return None
        alpha = rz / curv
        x += alpha * p
        r -= alpha * Kp
        z = project(precond(r))
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(f"{stage} at N={cell.N}: CG residual {np.linalg.norm(r):g} above "
                       f"{r_tol:g} after {CG_MAXITER} iterations")


def _certify_spectrum(H: LinearLatticeOperator, F: FApplier, kind: str):
    """Partial spectral classification from the extremal spectrum of the Hessian.

    Built the same way at every size from three parts: the m zeros are the
    Rayleigh quotients of the unit translation fields t, each with |H t|
    checked against the zero tolerance; one ``_extremal_eig`` call,
    preconditioned by the point's F_N^2, gives the 2 (3 at a saddle) lowest
    eigenpairs on their complement; and the top entry, ``sigma_max``, is the
    Gershgorin row-sum bound on |H|, which keeps ``tau_zero`` conservative.
    The LOBPCG route always starts from the ``LOBPCG_SEED`` block, never from
    a solver's last block, so a resumed point certifies to the same bits as a
    freshly solved one.

    Returns (classification, lam). At a saddle lam is the unstable eigenvalue
    of the certificate's own solve, whose eigenpair residual is checked.
    """
    cell = H.cell
    n, m = cell.n, cell.spec.m
    stage = f"{kind} certificate"
    expected_neg = 1 if kind == "saddle" else 0
    top = float(abs(H.mat).sum(axis=1).max())
    T = _translation_modes(n, m)
    HT = np.asarray(H.mat @ T)
    drift = float(np.max(np.linalg.norm(HT, axis=0)))
    if drift > ZERO_TOL_FACTOR * top:
        raise AmbiguousSpectrumError(
            f"{stage} at N={cell.N}: |H t| = {drift:g} on a unit translation field")
    w, V = _extremal_eig(H.mat, cell, top, k=expected_neg + 2, precond=F.precond, stage=stage)
    eigs = np.concatenate([np.einsum("ij,ij->j", T, HT), w, [top]])
    cls = classify_eigenvalues(eigs, expected_zero=m, complete=False)
    cls.n_positive = n * m - cls.n_zero - cls.n_negative
    if cls.n_negative != expected_neg:
        raise CertificationError(
            f"{kind} certificate: expected {expected_neg} negative modes, "
            f"found {cls.n_negative}", cls)
    if not expected_neg:
        return cls, None
    lam = float(w[0])
    phi = V[:, 0] - _mean_project(V[:, 0], n, m)
    phi /= np.linalg.norm(phi)
    res = float(np.linalg.norm(H.mat @ phi - lam * phi))
    if res > 1e-9 * max(float(np.max(np.abs(eigs))), 1.0):
        raise CertificationError(f"unstable eigenpair residual {res:g} above tolerance", cls)
    return cls, lam


def finish_point(model: PotentialModel, u: DisplacementField, kind: str, energy: float,
                 gradient_norm: float, n_iter: int, H: LinearLatticeOperator | None = None,
                 route: str | None = None, F: FApplier | None = None) -> StationaryPoint:
    """Certify a converged field and build its spectral record.

    ``H`` and ``F`` are the Hessian and the F_N applier the solver built, if
    any, and are built here otherwise (a resumed point). One certificate (a
    LAPACK subset solve up to ``DENSE_EIG_LIMIT`` dofs, one LOBPCG solve
    above) and one Lanczos run on F_N H F_N give every spectral fact; the
    point keeps H and F.
    """
    H = hessian(model, u) if H is None else H
    F = FApplier(u.cell, model) if F is None else F
    cls, lam = _certify_spectrum(H, F, kind)
    lo, hi, mu, w = generalized_eigen(H, F, expected_negative=cls.n_negative)
    return StationaryPoint(kind, u, energy, gradient_norm, cls, (lo, hi), model.model_hash(),
                           n_iter, lam=lam, route=route, mu=mu, w=w, H=H, F=F)


def relax_minimum(model: PotentialModel, cell: Supercell,
                  initial_guess: DisplacementField | np.ndarray | None = None,
                  max_iter: int = 100) -> StationaryPoint:
    """Damped-Newton minimisation of the defect supercell energy.

    Returns a certified minimum with zero-mean gauge.
    """
    fld, energy, gnorm, n_iter, F = _newton_relax(model, cell, initial_guess, max_iter)
    return finish_point(model, fld, "minimum", energy, gnorm, n_iter, F=F)


def _start_values(cell: Supercell, initial_guess) -> np.ndarray:
    """A fresh zero-mean (n, m) array from None (zeros), a field or an array."""
    if initial_guess is None:
        return np.zeros((cell.n, cell.spec.m))
    if isinstance(initial_guess, DisplacementField):
        initial_guess = initial_guess.values
    vals = DisplacementField(cell, initial_guess).values      # checks the shape
    return vals - vals.mean(axis=0)


def _unconstrained(values: np.ndarray) -> np.ndarray:
    return values


def _newton_relax(model: PotentialModel, cell: Supercell, initial_guess, max_iter: int,
                  symmetrize=_unconstrained):
    """Damped Newton to |g| <= tol_grad; returns (field, E, |g|, iterations, F_N applier).

    ``symmetrize`` is the field projector applied to iterates, gradients and
    steps: the identity for a minimum, the mirror average for the symmetric
    saddle search. A step whose solve meets non-positive curvature, or that
    is no descent direction, moves to the next shift of the ``nu`` ladder.
    """
    tol = tol_grad(cell)
    F = FApplier(cell, model)
    stage = "minimum step" if symmetrize is _unconstrained else "symmetric saddle step"
    u = symmetrize(_start_values(cell, initial_guess))
    nu = nu_last = 0.0             # the ladder resumes a decade below the last accepted shift
    energy = energy_periodic(model, DisplacementField(cell, u))
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        fld = DisplacementField(cell, u)
        g = symmetrize(gradient_periodic(model, fld))
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            break
        H = hessian(model, fld).mat
        accepted = False
        for _ in range(12):
            p = _bordered_solve(H, nu, -g.reshape(-1), cell, F.precond, stage=stage)
            if p is not None:
                p = symmetrize(p.reshape(u.shape))
            slope = np.inf if p is None else float(np.sum(p * g))
            if slope >= 0:              # non-positive curvature or no descent: shift more
                nu = 10.0 * nu if nu else max(0.1 * nu_last, 1e-6)
                continue
            # a predicted decrease below the rounding of E cannot be seen in E:
            # then a step must lower |g| instead
            flat = -slope <= 1e3 * np.finfo(float).eps * max(abs(energy), 1.0)
            t = 1.0
            while t > 1e-6:
                trial = u + t * p
                trial -= trial.mean(axis=0)
                e_t = energy_periodic(model, DisplacementField(cell, trial))
                if flat:
                    g_t = symmetrize(gradient_periodic(model, DisplacementField(cell, trial)))
                    decreased = float(np.linalg.norm(g_t)) < gnorm
                else:
                    decreased = e_t <= energy + 1e-4 * t * slope
                if decreased:
                    u, energy = trial, e_t
                    accepted = True
                    break
                t *= 0.5
            if accepted:
                nu_last = nu or nu_last
                nu = 0.0 if t == 1.0 else nu
                break
            nu = 10.0 * nu if nu else max(0.1 * nu_last, 1e-6)
        if not accepted:
            raise RuntimeError(f"line search failed at iteration {n_iter} (|g|={gnorm:g})")
    else:
        raise RuntimeError(f"minimisation did not converge in {max_iter} iterations")

    fld = DisplacementField(cell, u - u.mean(axis=0))
    gnorm = float(np.linalg.norm(gradient_periodic(model, fld)))
    if gnorm > tol:
        raise RuntimeError(f"converged point has residual {gnorm:g} > {tol:g}")
    return fld, energy, gnorm, n_iter, F


def _mirror_symmetrizer(cell: Supercell, Q: np.ndarray):
    mirror = cell.symmetry(Q)

    def symmetrize(values: np.ndarray) -> np.ndarray:
        return 0.5 * (values + mirror.act(values))

    return symmetrize


def find_saddle(model: PotentialModel, cell: Supercell,
                initial_guess: DisplacementField | np.ndarray | None = None,
                max_iter: int = 120) -> StationaryPoint:
    """Index-1 saddle search by eigenvector following.

    Starts from ``initial_guess`` (zero if None), for a mirror-symmetric model
    typically the midpoint of a minimum and its mirror image. Tracks the
    softest non-translation mode between iterations by overlap, inverts it in
    the Newton step, and certifies an index-1 point. Models declaring a mirror
    symmetry fall back to a constrained minimisation over the symmetric
    subspace if mode following fails.
    """
    try:
        return _saddle_follow(model, cell, initial_guess, max_iter)
    except (RuntimeError, AmbiguousSpectrumError) as exc:
        if model.mirror is None:
            raise
        logger.warning("eigenvector following failed at N=%d (%s: %s); "
                       "falling back to the symmetric route",
                       cell.N, type(exc).__name__, exc)
    return _saddle_symmetric(model, cell, max_iter)


def _saddle_follow(model: PotentialModel, cell: Supercell, initial_guess,
                   max_iter: int) -> StationaryPoint:
    tol = tol_grad(cell)
    u = _start_values(cell, initial_guess)
    n, m = cell.n, cell.spec.m
    F = FApplier(cell, model)
    track = None
    V = None                        # the previous step's block warm-starts the next solve
    gnorm_prev = np.inf
    for n_iter in range(1, max_iter + 1):
        fld = DisplacementField(cell, u)
        g = gradient_periodic(model, fld).reshape(-1)
        gnorm = float(np.linalg.norm(g))
        H = hessian(model, fld)
        if gnorm <= tol:
            break
        scale = float(abs(H.mat).sum(axis=1).max())     # Gershgorin bound on ||H||
        # constants shifted out of view: the two softest non-translation modes
        w, V = _extremal_eig(H.mat, cell, scale, k=2, precond=F.precond, X0=V,
                             stage="saddle step")
        cand = [(float(w[j]), V[:, j]) for j in range(len(w))]
        if track is not None:
            overlaps = [abs(v @ track) for _, v in cand]
            if max(overlaps) >= 0.5 and overlaps[0] != max(overlaps):
                cand.sort(key=lambda ev: -abs(ev[1] @ track))
        lam1, v1 = cand[0]
        v1 = v1 - _mean_project(v1, n, m)
        v1 /= np.linalg.norm(v1)
        track = v1
        lam2 = cand[1][0]

        delta = 1e-3 * scale
        lam_eff = lam1 if lam1 < -delta else -max(abs(lam1), delta)
        g1 = float(g @ v1)
        p1 = -(g1 / lam_eff) * v1
        nu = max(0.0, delta - lam2)
        p_perp = _bordered_solve(H.mat, nu, -(g - g1 * v1), cell, F.precond, mode=v1,
                                 stage="saddle step")
        if p_perp is None:
            raise RuntimeError(f"saddle step at N={cell.N}: non-positive curvature "
                               f"off the followed mode (shift {nu:g})")
        p = p1 + p_perp
        pmax = float(np.max(np.abs(p)))
        if pmax > STEP_MAX:
            p *= STEP_MAX / pmax
        u = u + p.reshape(n, m)
        u -= u.mean(axis=0)
        gnorm_prev = gnorm
    else:
        raise RuntimeError(f"saddle search did not converge in {max_iter} iterations "
                           f"(|g|={gnorm_prev:g})")

    return finish_point(model, fld, "saddle", energy_periodic(model, fld), gnorm,
                        n_iter, H=H, route="follow", F=F)


def _saddle_symmetric(model: PotentialModel, cell: Supercell, max_iter: int) -> StationaryPoint:
    symmetrize = _mirror_symmetrizer(cell, model.mirror)
    fld, energy, gnorm, n_iter, F = _newton_relax(model, cell, None, max_iter, symmetrize)
    return finish_point(model, fld, "saddle", energy, gnorm, n_iter, route="symmetric_fallback",
                        F=F)


def continue_in_N(model: PotentialModel, point: StationaryPoint,
                  cell_new: Supercell) -> DisplacementField:
    """Prolong a converged point to a larger cell as a warm-start guess.

    The periodic extension of the old field is tapered to its mean outside
    the old cell's inradius, so the guess carries the defect core exactly
    and a constant far field.
    """
    old = point.u
    if cell_new.N < old.cell.N:
        raise ValueError("continuation requires N' >= N")
    if cell_new.N == old.cell.N:
        return old
    idx_old = old.cell.site_indices(cell_new.x)
    ext = DisplacementField(cell_new, old.values[idx_old])
    r_old = old.cell.N * float(np.linalg.svd(old.cell.spec.B, compute_uv=False)[-1])
    if r_old >= 4.0 * old.cell.spec.r_cut + 1e-9:
        ext = cutoff_T_R(ext, r_old)
    return ext.zero_mean()
