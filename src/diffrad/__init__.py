"""Exact finite-difference polynomial calculus.

Falling-factorial arithmetic over Q(i, sqrt(p), ...), shifting zeros and
their heights, chain decompositions, difference radicals, Casorati
determinants, and structured checkers for the associated degree
inequalities and falling-power functional equations.
"""

from .errors import (
    BackendMismatchError,
    DiffradError,
    ExactDivisionError,
    ParseError,
    RootsUnavailableError,
    SamplingBudgetError,
)
from .scalar import Exact, Numeric
from .poly import (
    NEG_INF,
    FactoredPoly,
    Poly,
    classical_rad,
    exact_sqrt,
    factor,
    poly_gcd,
)
from .diffcalc import (
    NewtonExpansion,
    binomial,
    binomial_transform_check,
    delta,
    delta_k,
    falling_power,
    falling_power_factored,
    from_newton,
    raising_power,
    shift,
    to_newton,
)
from .shiftcalc import (
    ChainDecomposition,
    ShiftClass,
    chain_decomposition,
    common_shifting_divisors,
    factor_at,
    gcd_tower,
    gcd_tower_closed,
    gcd_tower_euclid,
    is_shifting_prime,
    pairwise_shifting_prime,
    rad_delta,
    rad_delta_q,
    rad_kappa,
    shift_classes,
    shifting_zero_height,
    shifting_zero_height_via_delta,
)
from .casorati import (
    casoratian,
    casoratian_replace,
    linearly_independent,
)
from .theorems import (
    FermatReport,
    Hypothesis,
    MasonReport,
    fermat_check,
    fermat_multi_check,
    gen_chain_poly,
    gen_mason_instance,
    mason_classical,
    mason_delta,
    mason_delta_ext,
    unit_cubic_certificate,
    unit_cubic_resolvent_roots,
    unit_cubic_triad,
)
from .parser import eval_expr, eval_factored, parse, parse_factored, parse_poly

__version__ = "0.1.0"
