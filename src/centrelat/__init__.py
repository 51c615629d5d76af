"""centrelat: verified computation with central operators on complex Banach lattices.

Finite-dimensional coordinate lattices carry the exact atomic model; a
certified sequence mode covers countable spectra.  See the demos/ directory
for narrative walkthroughs of each capability.
"""

from .lattice import (
    ComplexElement,
    ConvergenceWitness,
    CoordinateLattice,
    MaxNorm,
    PrincipalIdeal,
    UserNorm,
    WeightedPNorm,
    check_witness,
    ideal_norm,
    lattice_ops,
    modulus,
    modulus_phase_oracle,
)
from .measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent,
)
from .operators import (
    CentralOperator,
    RegularOperator,
    fpr_check,
    is_central,
    localize,
    norms,
    operator_modulus,
    polar,
)
from .sequence import (
    SequenceCentralOperator,
    compactness_check,
    freudenthal_net,
    sequence_eigen_query,
    sequence_spectrum,
    validate_certificate,
)
from .spectral import (
    OperatorSpectralMeasure,
    Spectrum,
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    eigen_query,
    freudenthal_approx,
    gelfand,
    global_spectral_measure,
    rho_T,
    spectrum,
    union_spectrum,
)

__version__ = "0.1.0"
