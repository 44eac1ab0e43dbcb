"""Frame transformations for linear conduction response.

The conductivity tensor measured in one inertial frame fixes, through the
four-dimensional response kernel it embeds into, the conductivity every
other frame measures.  This package provides the Minkowski/Lorentz
plumbing, the kernel reconstruction, the closed-form boost law for sigma
with its inverse and an independent kernel-route oracle, simple material
models with an on-disk format, the moving-medium forms of Ohm's law, and
a command line tool plus randomized self checks tying it all together.

Conventions: metric diag(-1, 1, 1, 1), fields ~ exp(+i k.x - i omega t),
four-vectors time-first, c = 1 by default (an SI UnitsConfig is provided).
"""

from .errors import (
    BoostResonance,
    DegenerateDecomposition,
    DomainError,
    FrameMismatch,
    InvariantViolation,
    NotOrthogonal,
    OhmcovError,
    OutOfRange,
    ParseError,
    SpeedLimit,
    StaticFrequency,
)
from .minkowski import (
    ETA,
    NATURAL,
    PARITY_FLIP,
    SI,
    TIME_FLIP,
    BoostParams,
    LorentzMatrix,
    UnitsConfig,
    Wavevector4,
    boost_matrix,
    compose,
    decompose,
    inverse,
    rotation_embed,
    transform_wavevector,
)
from .response import (
    STATIC_OMEGA_FLOOR,
    FourCurrent,
    FullResponse4,
    PotentialSet,
    apply_response,
    chi_from_sigma,
    constraint_residual,
    gauge_shift,
    reconstruct_full,
    sigma_from_chi,
)
from .transform import (
    RESONANCE_RTOL,
    FrameSample,
    boost_sigma_direct,
    boost_sigma_inverse,
    projector_inverse,
    rotate_sigma,
    transform_sigma_oracle,
)
from .materials import (
    ConstantScalar,
    DiagonalAnisotropic,
    Drude,
    MaterialModel,
    RealityReport,
    Tabulated,
    check_reality,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .ohm import (
    FieldSet,
    OhmResult,
    fields_from_electric,
    fields_from_potential,
    generalized_ohm,
    induced_charge,
    ohm_current,
    textbook_ohm,
    textbook_ohm_nr,
)

__version__ = "0.1.0"
