"""quadpic: exact computation in the Picard subgroup generated by reduced
motives of affine quadrics.

Everything is exact integer arithmetic over finite lattices of field
extensions; two independent evaluation routes (closed-form Witt-index sums
and the Grassmannian projector-tower read-off) cross-check each other.
"""

from .decomp import (
    ClassKey,
    Decomposition,
    Summand,
    canonical_class,
    decompose_real,
    registered_decomposition,
    t_equivalent,
)
from .errors import DisagreementError, ModelError, QuadPicError
from .fields import (
    DeclaredLattice,
    Extension,
    ExtensionLattice,
    RealLattice,
    ValidationReport,
    Violation,
    declared_lattice_from_data,
    real_lattice,
)
from .forms import (
    Grassmannian,
    ProjectiveQuadric,
    QuadraticForm,
    pfister_real,
    prime,
    real_form_from_key,
)
from .modelfile import lattice_to_data, parse_model, serialize_model
from .pic import (
    BasisExpansion,
    Certificate,
    EqualityVerdict,
    InverseCheckReport,
    PicElement,
    Refusal,
    RelationsVerdict,
    all_flags,
    basis_real,
    det,
    generator_e,
    identity,
    independent,
    inverse_identity_check,
    motivically_equivalent,
    relations_check,
    tate_element,
)
from .tower import ProjectorTower, active_index, build_tower, twist_readoff
from .twists import TateTwist, ZERO_TWIST, phi_affine, phi_det

__version__ = "0.1.0"
