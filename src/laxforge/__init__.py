"""Exact construction and verification of Lax operators and R-matrices
for the quantized orthosymplectic superalgebras U_q[osp(m|n)]."""

from .qring import LaurentPoly, PoleError, RatFunc, q_int, q_minus_qinv, q_power
from .superroot import AlgebraData, AlgebraError, Weight, bilinear, build_algebra
from .gradedmat import (
    GradedMatrix,
    RelationError,
    Representation,
    SchemaError,
    build_vector_rep,
    check_representation,
    embed_triple,
    graded_dagger,
    graded_kron,
    graded_permutation,
    load_representation,
    tensor_dagger,
    trivial_rep,
)
from .laxengine import (
    RTensor,
    SigmaSet,
    assemble_R,
    closed_form_sigma,
    extend_sigma,
    init_simple_sigma,
    opposite_R,
)
from .verifier import (
    CheckReport,
    check_appendix,
    check_delta_property,
    check_extra_serre,
    check_intertwining,
    check_lax_ybe,
    check_opposite,
    check_path_independence,
    check_qcom,
    check_qserre,
    check_ybe,
)
from .spectral import (
    SamplingError,
    SpectralAtS,
    SpectralRMatrix,
    braces_matrix,
    build_E_tensor,
    build_spectral_R,
    check_spectral_ybe,
    sigma_hat_diag,
)

__all__ = [name for name in dir() if not name.startswith("_")]
