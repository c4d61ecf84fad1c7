"""Exact constant-term arithmetic for Dyson-style products.

The package constructs the q-Dyson product, reads its coefficients in one
pruned pass over the box of exponent vectors each check needs, reads the
classical Dyson values off them at q = 1, evaluates the known closed forms
for first-layer coefficients and their corrected variants, and verifies each
identity exactly — including the one modification that is known to fail.
``Instance(n, a, I, J)`` validates input; every check is
``check(layout, source)``: it reads the ``Layout`` that
``compile_layout(n, I, J)`` compiled and validated, and the product its
caller built, which carries the exponent vector a.
``verify(identity, n, a, I, J)`` checks one instance end to end, and
``run_sweep`` a whole grid.
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
    Pair,
    ct_of_factor_list,
)
from .dyson import (  # noqa: F401
    Instance,
    Layout,
    q_dyson_factors,
    q_dyson_source,
    verify_dyson,
    verify_q_dyson,
)
from .firstlayer import (  # noqa: F401
    first_layer_closed,
    first_layer_closed_q1,
    verify_first_layer,
)
from .kadell import (  # noqa: F401
    corrected_ct,
    corrected_ct_closed,
    reproduce_counterexample,
    verify_kadell,
)
from .paired import (  # noqa: F401
    NpcViolationError,
    compile_layout,
    matrix_choice_property,
    npc_holds,
    verify_factorization,
    verify_paired,
    verify_tail_cancel,
)
from .reports import VerificationReport  # noqa: F401
from .sweeps import SweepConfig, run_sweep, verify  # noqa: F401
