"""Exact constant-term arithmetic for Dyson-style products.

The package constructs the q-Dyson product, extracts coefficients by (pruned)
expansion, reads the classical Dyson values off them at q = 1, evaluates the
known closed forms for first-layer coefficients and their corrected variants,
and verifies each identity exactly — including the one modification that is
known to fail.  Every check takes one validated ``Instance(n, a, I, J)``.
"""

__version__ = "0.1.0"

from .qpoly import (  # noqa: F401
    InexactDivisionError,
    QPoly,
    QRat,
    divexact,
    multinomial,
    one_minus_q,
    q_multinomial,
    q_multinomial_poly,
    q_pochhammer,
    q_power,
)
from .laurent import (  # noqa: F401
    AmbientMismatchError,
    FactoredProduct,
    LaurentPoly,
    ct_of_factor_list,
    expand_product,
    homogeneous_degree,
    pi_action,
    shifted_factorial,
)
from .dyson import (  # noqa: F401
    Instance,
    q_dyson_factors,
    q_dyson_source,
    verify_dyson,
    verify_q_dyson,
)
from .firstlayer import (  # noqa: F401
    count_upto,
    first_layer_brute,
    first_layer_closed,
    first_layer_closed_q1,
    layer_exponent,
    layer_exponent_general,
    verify_first_layer,
    weight_vector,
)
from .kadell import (  # noqa: F401
    corrected_ct,
    corrected_ct_closed,
    modified_q_product,
    reproduce_counterexample,
    verify_kadell,
)
from .paired import (  # noqa: F401
    NpcViolationError,
    chain_exponent,
    correction_polynomial,
    matrix_choice_property,
    npc_holds,
    removal_exponent,
    verify_factorization,
    verify_paired,
    verify_tail_cancel,
)
from .reports import VerificationReport  # noqa: F401
from .sweeps import SweepConfig, run_sweep  # noqa: F401
