"""Numerical toolkit for Hardy-type inequalities on periodic grids.

Spectral transforms and fractional operators (spectral_core), the dyadic
frequency decomposition with Besov / Triebel-Lizorkin norms
(littlewood_paley), the dyadic Schur test (schur), Hardy quotients and
their proof chains (hardy), the two-weight Riesz-potential machinery
(stein_weiss), empirical sharp-constant estimation (extremal), and a CLI
front end (cli).
"""

from .spectral_core import (
    GridSpec,
    SampledField,
    Spectrum,
    apply_multiplier,
    forward_transform,
    fractional_laplacian,
    gradient,
    inverse_transform,
    lq_norm,
    make_field,
    make_grid,
    read_field,
    riesz_transform,
    weighted_lq_norm,
    write_field,
)
from .littlewood_paley import (
    DyadicPartition,
    bernstein_check,
    besov_norm,
    build_partition,
    decompose,
    project,
    square_function,
    triebel_lizorkin_norm,
)
from .schur import (
    SchurKernel,
    hardy_kernel,
    hardy_row_sums,
    schur_bound_check,
    schur_conditions,
)
from .hardy import (
    besov_hardy_quotient,
    classical_hardy_quotient,
    fractional_hardy_quotient,
    gradient_hardy_quotient,
    holder_refinement_check,
    refined_hardy_quotient,
    shell_chain_check,
)
from .stein_weiss import (
    RadialProfile,
    SteinWeissParams,
    inner_ball_bound_check,
    inner_ball_potential,
    riesz_potential,
    split_weighted_potential,
    stein_weiss_check,
)
from .extremal import ConstantEstimate, estimate_constant, quasi_extremal
from .report import CheckReport, reports_to_csv, reports_to_json

__version__ = "0.1.0"
