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
    affine_equivalent,
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
    slice_contact_dim,
    tangency_space,
)
from .alpha import AlphaProblem, alpha, check_star, k_space, vprime
from .structure import (
    CertificateMismatch,
    CertificationError,
    StructureCertificate,
    certificate_from_json,
    certificate_to_json,
    find_min_projection,
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
    "StructureCertificate",
    "TangencyProblem",
    "TooLarge",
    "affine_equivalent",
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
    "find_min_projection",
    "hessian",
    "is_join_type",
    "is_normalized",
    "join_factors",
    "join_type_wrt",
    "k_space",
    "load_config_file",
    "normalize",
    "slice_contact_dim",
    "structure_certificate",
    "tangency_space",
    "verify_certificate",
    "vprime",
]
