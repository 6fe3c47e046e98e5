"""kinlab: numerical laboratory for N-particle diffusions on
energy(-momentum) velocity spheres.

Core pieces: constraint-manifold geometry and sampling (``geometry``),
weak-O(dt) simulators for the isotropic sphere diffusion and the pairwise
collision diffusion plus an exact generator oracle (``master_sim``), exact
sphere-Laplacian spectra and the variational gap machinery (``spectral``),
closed-form kinetic limits (``kinetic_limits``), ensemble estimators
(``observables``), and a reproducible experiment CLI (``cli``).
"""

__version__ = "0.1.0"

from .geometry import (
    ConservationMode,
    DegenerateStateError,
    ManifoldSpec,
    NonFiniteStateError,
    constraint_errors,
    max_pair_separation_sq,
    renormalize_batch,
    sample_uniform_batch,
)
from .kinetic_limits import (
    LimitParams,
    MomentState,
    fpe_moment_flow,
    landau_moment_flow,
    maxwellian_eval,
    relative_entropy,
    stationary_marginal_eval,
    velocity_histogram3d,
)
from .master_sim import (
    EnsembleSnapshot,
    KernelSpec,
    SimConfig,
    SimResult,
    TestPolynomial,
    generator_apply,
    run_ensemble,
    step_pair_diffusion,
    step_sphere_diffusion,
)
from .observables import (
    ObservableSeries,
    chaos_distance,
    decay_rate_fit,
    one_marginal,
    pair_marginal,
    radial_ks_statistic,
)
from .spectral import (
    GapScanResult,
    TrialFunction,
    eigenvalue_scaled,
    gap_scan,
    lambda1_bound,
    limit_eigenvalue,
    rayleigh_quotient_mc,
    spectrum_table,
    standard_trial_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
