"""latthermo: harmonic defect thermodynamics on periodic lattice supercells.

Computes formation free energies, spatially decomposed vibrational entropy,
renormalised infinite-lattice limits and HTST transition rates for point
defects in Bravais lattices, together with supercell-size convergence sweeps.
"""

from .lattice import (
    ConfigurationError,
    DisplacementField,
    DualGrid,
    LatticeSpec,
    PreconditionError,
    Supercell,
    cutoff_T_R,
)
from .potentials import (
    HarmonicBondPotential,
    MorseBondPotential,
    PotentialModel,
    SitePotential,
    preset_model,
    stability_scan,
    symbol_h,
)
from .assembly import (
    LinearLatticeOperator,
    energy_periodic,
    gradient_periodic,
    hessian,
    variation_contractions,
)
from .spectral import (
    AmbiguousSpectrumError,
    KernelTable,
    ModeClassification,
    conjugate_operator,
    generalized_eigen,
    kernel_F,
    kernel_FN,
    logdet_plus,
    matrix_log_plus,
    projector_constants,
)
from .stationary import (
    StationaryPoint,
    continue_in_N,
    find_saddle,
    relax_minimum,
)
from .thermo import (
    EntropyProfile,
    RateReport,
    RenormalisedEntropy,
    delta_S_saddle,
    entropy_total,
    htst_rate,
    renormalised_entropy,
    site_entropies,
    site_entropy_first_variation,
)
from .harness import ConvergenceTable, RunConfig, emit, fit_rate, sweep

__version__ = "0.1.0"
