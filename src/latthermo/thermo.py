"""Vibrational entropy, its spatial decomposition, renormalised limits and rates.

The supercell entropy difference is S_N(u) = -1/2 log det+ H_N(u)
+ 1/2 log det+ H_N^hom; its exact per-site decomposition uses diagonal blocks
of log+ (F_N H_N F_N). Renormalising each site term by the first variation of
the homogeneous site entropy yields an absolutely summable profile whose sum
approximates the infinite-lattice entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from .assembly import hessian, variation_contractions
from .fitting import RateFit, envelope_decay
from .lattice import DisplacementField
from .potentials import PotentialModel
from .spectral import (
    DENSE_LIMIT,
    FApplier,
    _dense_symmetric,
    _fhf_matvec,
    _site_columns,
    generalized_eigen,
    logdet_plus,
    logdet_plus_factorized,
    site_log_traces,
)
from .stationary import StationaryPoint, _certify_spectrum

__all__ = [
    "EntropyProfile",
    "RenormalisedEntropy",
    "DeltaSReport",
    "RateReport",
    "entropy_total",
    "site_entropies",
    "site_entropy_first_variation",
    "renormalised_entropy",
    "delta_S_saddle",
    "htst_rate",
]


@dataclass
class EntropyProfile:
    N: int
    variant: str                 # 'minimum', 'saddle' or 'state'
    sites: np.ndarray            # site ordinals
    radii: np.ndarray
    values: np.ndarray           # per-site entropies
    total: float
    info: dict = field(default_factory=dict)

    def to_json_dict(self, model_hash: str = "") -> dict:
        return {
            "N": self.N, "variant": self.variant, "total": self.total,
            "model_hash": model_hash, "info": self.info,
            "sites": [int(s) for s in self.sites],
            "radii": [float(r) for r in self.radii],
            "values": [float(v) for v in self.values],
        }

    def to_csv_text(self) -> str:
        lines = ["site_index,radius,value"]
        lines += [f"{int(s)},{float(r)!r},{float(v)!r}"
                  for s, r, v in zip(self.sites, self.radii, self.values)]
        return "\n".join(lines) + "\n"


@dataclass
class RenormalisedEntropy:
    R_sum: int
    N_ref: int
    sites: np.ndarray
    radii: np.ndarray
    site_entropy: np.ndarray
    first_variation: np.ndarray
    renormalised: np.ndarray     # site_entropy - first_variation
    partial_sums: np.ndarray     # cumulative over sites, in order of radius
    value: float
    tail_estimate: float
    decay_fit: RateFit | None


@dataclass
class DeltaSReport:
    direct: float                # bordered-LU det+ route
    splitting: float             # site-sum + eigenvalue corrections route
    lam: float
    mu: float
    S_min: float                 # S_N of each point (det+ route); direct = S_saddle - S_min
    S_saddle: float


@dataclass
class RateReport:
    """HTST rate of one (minimum, saddle) pair at inverse temperature ``beta``.

    The fields not taken by ``__init__`` follow from ``beta`` and the pair's
    one thermo evaluation, so ``at_beta`` needs no new thermo work.
    """

    beta: float
    E_min: float
    E_saddle: float
    delta_S: DeltaSReport
    product_form_dS: float | None    # dense eigenvalue products; None above DENSE_LIMIT
    N: int
    d: int
    model_hash: str = ""
    sigma_min: tuple = ()
    sigma_saddle: tuple = ()
    certificates: dict = field(default_factory=dict)
    dE: float = field(init=False)
    dS: float = field(init=False)
    lam: float = field(init=False)
    mu: float = field(init=False)
    logK: float = field(init=False)
    K: float = field(init=False)
    F_min: float = field(init=False)
    F_saddle: float = field(init=False)
    product_form_K: float | None = field(init=False)
    relative_error_bound: float = field(init=False)
    direction_warning: bool = field(init=False)

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("inverse temperature must be positive")
        beta, ds = self.beta, self.delta_S
        self.dE = self.E_saddle - self.E_min
        self.dS, self.lam, self.mu = ds.direct, ds.lam, ds.mu
        logK = -beta * self.dE + self.dS
        self.logK = float(logK)
        self.K = float(np.exp(logK))
        self.F_min = self.E_min - ds.S_min / beta
        self.F_saddle = self.E_saddle - ds.S_saddle / beta
        self.product_form_K = (None if self.product_form_dS is None
                               else float(np.exp(-beta * self.dE + self.product_form_dS)))
        nd = float(self.N) ** (-self.d)
        self.relative_error_bound = float(
            np.exp(beta * nd) * (beta * nd + nd * np.log(max(self.N, 3)) ** 5))
        self.direction_warning = bool(self.dE <= 0)

    def at_beta(self, beta: float) -> "RateReport":
        """The same pair at inverse temperature ``beta``."""
        return replace(self, beta=beta)

    def to_json_dict(self) -> dict:
        out = {k: getattr(self, k) for k in
               ("beta", "dE", "dS", "F_min", "F_saddle", "K", "logK", "lam", "mu",
                "product_form_K", "relative_error_bound", "direction_warning",
                "N", "model_hash", "certificates")}
        out["sigma_min"] = list(self.sigma_min)
        out["sigma_saddle"] = list(self.sigma_saddle)
        return out


def _applier(model: PotentialModel, state) -> FApplier:
    """A point's carried F_N applier, or a bare field's, built here: thermo's one build."""
    return state.F if isinstance(state, StationaryPoint) else FApplier(state.cell, model)


def _resolve_state(model: PotentialModel, state):
    """(field, kind, index, lam, H, carried F_N H F_N spectrum, F_N applier);
    only a bare field assembles. The index (negative modes) is 1 at a saddle,
    0 otherwise; the spectrum is ``generalized_eigen``'s tuple."""
    if isinstance(state, StationaryPoint):
        index = 1 if state.kind == "saddle" else 0
        return (state.u, state.kind, index, state.lam, state.H,
                (*state.sigma, state.mu, state.w), state.F)
    if isinstance(state, DisplacementField):
        return state, "state", 0, None, hessian(model, state), None, _applier(model, state)
    raise TypeError("state must be a StationaryPoint or DisplacementField")


def entropy_total(model: PotentialModel, state) -> float:
    """S_N(u): entropy difference against the homogeneous supercell.

    log det+ H_N comes from the bordered sparse LU at every size, log det+
    H_N^hom from the symbols of the state's F_N (``FApplier.logdet_hom``). At
    a saddle the carried negative eigenvalue is divided out along with the
    translation zeros (det+ semantics). A bare field carries no certificate,
    so it is certified as a minimum first (exactly m zeros, no negative mode).
    """
    _, kind, index, lam, H, _, F = _resolve_state(model, state)
    if index and lam is None:
        raise ValueError("saddle point must carry its unstable eigenvalue lam")
    if kind == "state":
        _certify_spectrum(H, F, "minimum")
    return -0.5 * logdet_plus_factorized(H, negative=lam) + 0.5 * F.logdet_hom


def site_entropies(model: PotentialModel, state,
                   sites: np.ndarray | None = None) -> EntropyProfile:
    """Per-site entropies -1/2 tr [log+ (F_N H_N F_N)]_{ell ell}.

    The traces come from ``site_log_traces``, one Chebyshev route at every
    size, with the point's carried spectrum; a bare field's spectrum is
    solved here, as a minimum's. For minima these sum exactly to S_N; at a
    saddle they sum to the log+ part of the splitting identity (see
    delta_S_saddle).
    """
    u, kind, _, _, H, spectrum, F = _resolve_state(model, state)
    cell = u.cell
    if sites is None:
        sites = np.arange(cell.n)
    sites = np.asarray(sites, dtype=int)
    if spectrum is None:
        spectrum = generalized_eigen(H, F)
    traces, info = site_log_traces(H, F, sites, spectrum)
    values = -0.5 * traces
    return EntropyProfile(N=cell.N, variant=kind, sites=sites, radii=cell.r[sites],
                          values=values, total=float(values.sum()), info=info)


def site_entropy_first_variation(model: PotentialModel, sites, state) -> np.ndarray:
    """<delta S^hom_ell(0), u> = -1/2 tr (F_N B F_N)_{ell ell}, B = <delta H^hom(0), u>.

    ``state`` is a stationary point or a bare field u. F_N is the periodic
    kernel of u's cell (the point's carried applier), which realizes the
    infinite-lattice kernel at quadrature level N (consistent with the
    renormalised entropy evaluated at a finite reference level); the sum
    runs over the whole cell, so the only truncation is the level N itself.
    Each chunk of site columns E takes one block product on ``FApplier``'s
    half-grid: X = F_hat forward(E), Y = forward(B inverse(X)), and the site
    term is -1/2 the Parseval sum of <X, Y> over the site's m columns.
    """
    u, F = getattr(state, "u", state), _applier(model, state)
    sites = np.atleast_1d(np.asarray(sites, dtype=int))
    B = variation_contractions(model.homogenized(), u.cell.zero_field(), u).mat
    out = np.empty(len(sites))
    for chunk, E_hat in _site_columns(F, sites):
        X = F.fhat @ E_hat
        Y = F.forward(np.asarray(B @ F.inverse(X)))
        out[chunk] = -0.5 * F.site_dot(X, Y)
    return out


def renormalised_entropy(model: PotentialModel, u_ref, R_sum: float,
                         fit_window: tuple[float, float] | None = None) -> RenormalisedEntropy:
    """Renormalised infinite-lattice entropy from a reference-level state.

    Sums the per-site terms S_ell(u) - <delta S^hom_ell(0), u> over
    |ell| <= R_sum, fits their decay and reports a geometric tail estimate.
    Refuses to extrapolate when the fitted decay is slower than -(d + 1/2).
    """
    cell = getattr(u_ref, "u", u_ref).cell
    d = cell.spec.d
    if cell.N < 4 * R_sum:
        raise ValueError("reference level must satisfy N_ref >= 4 R_sum")
    sites = np.flatnonzero(cell.r <= R_sum + 1e-9)
    order = np.argsort(cell.r[sites], kind="stable")
    sites = sites[order]
    radii = cell.r[sites]
    prof = site_entropies(model, u_ref, sites=sites)
    fv = site_entropy_first_variation(model, sites, u_ref)
    ren = prof.values - fv
    csum = np.cumsum(ren)
    tail, fit = 0.0, None
    # identically renormalised terms (e.g. the homogeneous state): nothing to fit
    if np.max(np.abs(ren)) >= 1e-12:
        window = fit_window or (1.4, max(R_sum, 2.0))
        fit = envelope_decay(radii, ren, window)
        if fit.exponent > -(d + 0.5):
            raise RuntimeError(
                f"renormalised site terms decay too slowly (fit {fit.exponent:.2f}); "
                "refusing to extrapolate")
        # geometric tail from the fitted envelope: sum over shells beyond R_sum
        p = fit.exponent
        shell_density = d * (np.pi if d == 2 else (2.0 if d == 1 else 4 * np.pi / 3)) \
            / abs(np.linalg.det(cell.spec.A))
        tail = float(abs(np.exp(fit.intercept) * shell_density * R_sum ** (p + d)
                         / max(-(p + d), 1e-9)))
    return RenormalisedEntropy(
        R_sum=R_sum, N_ref=cell.N, sites=sites, radii=radii,
        site_entropy=prof.values, first_variation=fv, renormalised=ren,
        partial_sums=csum, value=float(csum[-1]), tail_estimate=tail, decay_fit=fit)


def _site_entropy_sum(model: PotentialModel, point: StationaryPoint) -> float:
    """Sum of the point's site entropies, -1/2 tr log+ (F_N H F_N).

    Up to DENSE_LIMIT the eigenvalues of the dense F_N H F_N give it with no
    eigenvectors (same classification and negative-mode count as the site
    traces), built from block products with the point's ``FApplier``. Above
    the limit the Chebyshev site traces of every site are summed.
    """
    u, _, index, _, H, _, F = _resolve_state(model, point)
    cell, m = u.cell, u.cell.spec.m
    if cell.n * m > DENSE_LIMIT:
        return site_entropies(model, point).total
    A = _dense_symmetric(_fhf_matvec(F, H), cell.n * m)
    ld, _ = logdet_plus(A, expected_zero=m, expected_negative=index)
    return -0.5 * ld


def delta_S_saddle(model: PotentialModel, min_point: StationaryPoint,
                   saddle_point: StationaryPoint) -> DeltaSReport:
    """Entropy difference saddle minus minimum, computed along two routes.

    Direct: bordered-LU det+ on both Hessians. Splitting: the saddle's
    site-entropy sum plus the -1/2 log |mu| + 1/2 log |lambda| correction
    from the generalized and standard unstable eigenvalues that the saddle
    carries; the i pi phases of log lambda and -log mu cancel.
    """
    lam, mu = saddle_point.lam, saddle_point.mu      # certified negative where present
    if lam is None or mu is None:
        raise ValueError("saddle point must carry its unstable eigenvalues lam and mu")

    S_min = entropy_total(model, min_point)
    S_saddle_direct = entropy_total(model, saddle_point)
    direct = S_saddle_direct - S_min

    S_saddle_split = (_site_entropy_sum(model, saddle_point)
                      - 0.5 * np.log(abs(mu)) + 0.5 * np.log(abs(lam)))
    splitting = S_saddle_split - S_min
    return DeltaSReport(direct=direct, splitting=splitting,
                        lam=float(lam), mu=float(mu), S_min=S_min, S_saddle=S_saddle_direct)


def _product_form_dS(model: PotentialModel, min_point: StationaryPoint,
                     saddle_point: StationaryPoint) -> float:
    """1/2 log (prod lambda_min / prod lambda_saddle) over the positive eigenvalues.

    Both log det+ are products of dense eigenvalues (with the spectrum
    classified again): up to DENSE_LIMIT a route independent of the
    bordered-LU det+ of dS.
    """
    ld = []
    for point in (min_point, saddle_point):
        u, _, index, _, H, _, _ = _resolve_state(model, point)
        ld.append(logdet_plus(H, expected_zero=u.cell.spec.m, expected_negative=index)[0])
    return 0.5 * (ld[0] - ld[1])


def htst_rate(model: PotentialModel, min_point: StationaryPoint,
              saddle_point: StationaryPoint, beta: float = 1.0) -> RateReport:
    """HTST transition rate K_N = exp(-beta (dE - dS / beta)).

    One thermo evaluation of the pair (det+ from the bordered LU);
    ``RateReport.at_beta`` gives other temperatures. Cross-checked against
    the dense eigenvalue product form up to DENSE_LIMIT (no product form
    above it).
    Reports the structural relative-error bound e^{beta N^-d}
    (beta N^-d + N^-d log^5 N) with unit constants as a diagnostic.
    """
    if beta <= 0:
        raise ValueError("inverse temperature must be positive")
    cell = min_point.u.cell
    ds = delta_S_saddle(model, min_point, saddle_point)
    prod_dS = None
    if cell.n * cell.spec.m <= DENSE_LIMIT:
        prod_dS = _product_form_dS(model, min_point, saddle_point)
    from .serialize import certificate_hash
    return RateReport(beta=beta, E_min=min_point.energy, E_saddle=saddle_point.energy,
                      delta_S=ds, product_form_dS=prod_dS, N=cell.N, d=cell.spec.d,
                      model_hash=model.model_hash(),
                      sigma_min=min_point.sigma, sigma_saddle=saddle_point.sigma,
                      certificates={"minimum": certificate_hash(min_point.certificate),
                                    "saddle": certificate_hash(saddle_point.certificate)})
