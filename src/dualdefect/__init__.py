"""Dual defect of projective toric varieties via structure certificates.

The library computes the dual defect of the toric variety attached to a
finite lattice point configuration, together with a machine-checkable
certificate (a Cayley decomposition through two projections realizing
delta = r - c), and cross-validates it with an independent randomized
Hessian-corank oracle.
"""

from .config import (
    CollapseError,
    GroupHom,
    PointConfig,
    apply_affine,
    difference_lattice,
    is_normalized,
    load_config_file,
    normalize,
)
from .cayley import (
    CayleyStructure,
    DimensionError,
    NotSimplexImage,
    SimplexProjection,
    TooLarge,
    cayley_sum,
    decompose_along,
    enumerate_simplex_projections,
    is_join_type,
    join_type_wrt,
)
from .tangency import (
    DefectResult,
    GenericityFailure,
    TangencyProblem,
    contact_grouping,
    defect_oracle,
    hessian,
    tangency_space,
)
from .alpha import AlphaProblem, alpha, check_star, k_space, vprime
from .structure import (
    CertificateMismatch,
    CertificationError,
    StructureCertificate,
    certificate_from_json,
    certificate_to_json,
    join_factors,
    structure_certificate,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaProblem",
    "CayleyStructure",
    "CertificateMismatch",
    "CertificationError",
    "CollapseError",
    "DefectResult",
    "DimensionError",
    "GenericityFailure",
    "GroupHom",
    "NotSimplexImage",
    "PointConfig",
    "SimplexProjection",
    "StructureCertificate",
    "TangencyProblem",
    "TooLarge",
    "alpha",
    "apply_affine",
    "cayley_sum",
    "certificate_from_json",
    "certificate_to_json",
    "check_star",
    "contact_grouping",
    "decompose_along",
    "defect_oracle",
    "difference_lattice",
    "enumerate_simplex_projections",
    "hessian",
    "is_join_type",
    "is_normalized",
    "join_factors",
    "join_type_wrt",
    "k_space",
    "load_config_file",
    "normalize",
    "structure_certificate",
    "tangency_space",
    "verify_certificate",
    "vprime",
]
