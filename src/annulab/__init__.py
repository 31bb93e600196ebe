"""Finite-section laboratory for Toeplitz and Hankel operators on the
Hardy and Bergman spaces of a concentric annulus."""

from .errors import (
    AliasingError,
    IllConditionedError,
    WindowTooSmallError,
    ZeroProfileError,
)
from .geometry import (
    AnnulusGeometry,
    BoundaryData,
    basis_weights,
    bergman_norm_const,
    gram_matrix,
)
from .symbols import (
    ExactCircle,
    ExactSymbol,
    PolarSymbol,
    PolyProfile,
    conjugate_symbol,
    constant_symbol,
    fourier_pair,
    laurent_symbol,
    multiply_symbols,
    pullback_symbols,
    read_symbol,
    sample_symbol,
    write_symbol,
)
from .mellin import (
    mellin_poly_reconstruct,
    mellin_quadrature,
    mellin_transform,
    mellin_zero_locate,
    monomial_moment,
)
from .hardy import (
    TruncatedOperator,
    ZeroProductReport,
    build_hankel_annulus,
    build_section_quadrature,
    build_toeplitz_hardy,
    column_zero_recover,
    find_n0_hardy,
    semicommutator_residual_annulus,
    zero_product_experiment_hardy,
)
from .reduction import (
    DecayProfile,
    build_disc_hankel,
    build_disc_toeplitz,
    conjugate_basis_coeffs,
    diagram_residual,
    hankel_compactness_indicator,
    semicommutator_residual_disc,
    split_relation_residual,
    t_diag,
)
from .bergman import (
    BergmanOperatorSection,
    build_bergman_toeplitz,
    find_n0_bergman,
    zero_product_experiment_bergman,
)
from .randgen import Lcg, random_boundary_symbol, random_polar_symbol
from .reference import (
    conjugated_singular_inner_symbol,
    reference_symbol,
    singular_inner_coeffs,
    smooth_decay_symbol,
)

__version__ = "0.1.0"
