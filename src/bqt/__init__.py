"""Exact verifier for flavored operator algebras built from polynomial and
tableau modules, with degreewise stable limits along tower connectors."""

from .errors import BqtError
from .induced import IndVector, InducedRealization, pi_connect, xi_truncate
from .limits import CompatSeqSpec, LimitCell, Tower, dim_table, limit_component
from .lspaces import (
    GradedBasis,
    LVector,
    d_minus,
    d_plus,
    extract_basis,
    lk_spanning_set,
    phi_action,
    z_action,
)
from .polyrep import PolyRealization, PolyVector, apply_epsilon, apply_word, apply_Y
from .relations import (
    RelationReport,
    check_aux_identities,
    check_bqt_relations,
    check_compatibility,
    check_daha_relations,
    check_theta_eigenvalues,
    make_realization,
)
from .scalars import QT, IntPoly2, QtScalar, parse_scalar
from .tableaux import (
    SeedRealization,
    SeedVector,
    StandardTableau,
    enumerate_syt,
    pad_shape,
    theta_scalar,
)

__version__ = "0.1.0"
