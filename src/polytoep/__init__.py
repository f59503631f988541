"""Truncated Toeplitz operators on the polydisc.

Finite sections of (block) multilevel Toeplitz operators built from torus
symbols, shift-invariance and compactness diagnostics, Toeplitz + compact
decomposition, and truncated model spaces with their compressed shifts.
"""

from .analysis import (
    AsymptoticSequence,
    CompactnessProfile,
    CrossTermProfile,
    DecompositionResult,
    DefectReport,
    SymbolRecovery,
    asymptotic_decompose,
    asymptotic_sequence,
    compactness_profile,
    cross_term_profile,
    recover_symbol,
    section,
    toeplitz_defect,
)
from .lattice import Box, MultiIndex, interior
from .modelspace import (
    InvarianceKernelReport,
    ModelCompactnessReport,
    ModelSpace,
    compressed_shift,
    invariance_kernel,
    model_basis,
    model_compactness_test,
)
from .operators import (
    TruncatedOperator,
    apply_fast,
    compress,
    operator_norm,
    toeplitz,
)
from .symbols import (
    InnerCertificate,
    TorusSymbol,
    blaschke_factor,
    evaluate_grid,
    from_coefficients,
    is_inner,
    multiply,
    product_inner,
    random_symbol,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "MultiIndex",
    "interior",
    "TorusSymbol",
    "InnerCertificate",
    "from_coefficients",
    "evaluate_grid",
    "multiply",
    "blaschke_factor",
    "product_inner",
    "is_inner",
    "random_symbol",
    "TruncatedOperator",
    "toeplitz",
    "apply_fast",
    "operator_norm",
    "compress",
    "DefectReport",
    "SymbolRecovery",
    "AsymptoticSequence",
    "CrossTermProfile",
    "CompactnessProfile",
    "DecompositionResult",
    "toeplitz_defect",
    "recover_symbol",
    "asymptotic_sequence",
    "section",
    "cross_term_profile",
    "compactness_profile",
    "asymptotic_decompose",
    "ModelSpace",
    "InvarianceKernelReport",
    "ModelCompactnessReport",
    "model_basis",
    "compressed_shift",
    "invariance_kernel",
    "model_compactness_test",
]
