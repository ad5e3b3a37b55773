"""Exact matrix algebra, random-matrix measures and orbital integrals over
non-Archimedean local fields (Q_p and F_p((t)))."""

from .characters import (
    KIND_BILINEAR,
    KIND_SQUARE,
    CharValue,
    charvalue_product,
    chi,
    square_kernel_sign,
    theta_closed,
)
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    DyadicField,
    EqualParams,
    InsufficientPrecision,
    InvalidParam,
    LevelTooLow,
    NonArchError,
    NotIntegral,
    NotSymmetric,
    PrecisionExhausted,
    TooLarge,
)
from .field import (
    FieldElement,
    FieldParams,
    hensel_sqrt,
    parse_field_spec,
    square_class,
    square_class_label,
)
from .matrices import AtMost, MatF, SNFResult, SymDiagResult, singular_numbers, smith_normal_form, sym_diagonalize
from .orbital import (
    ErrorBounds,
    McEstimate,
    convergence_experiment,
    empirical_charfun,
    error_bound,
    exact_orbital_integral,
    full_rank_fraction,
    mc_orbital_multi,
    measure_charfun_batch,
    product_formula,
    theta_bruteforce,
)
from .params import (
    DeltaParam,
    OmegaParam,
    canonicalize_omega,
    convolve,
    distinguishing_argument,
    validate,
)
from .residue import GaussSumResult, gauss_sum, legendre
from .sampling import (
    KIND_CONGRUENCE,
    KIND_TWO_SIDED,
    RandomStream,
    haar_gl,
    orbital_push,
    sample_corner,
    uniform_integer,
)

__version__ = "0.1.0"
