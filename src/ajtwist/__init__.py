"""Exact recurrence and A-polynomial toolkit for twist knots.

The package certifies, with integer arithmetic end to end, that the
annihilator of the colored Jones function of a twist knot reproduces the
A-polynomial, verifies shipped q-recurrences for the 5_2 and 6_1 knots,
and evaluates the associated hyperbolic volume numerics.
"""

from .laurent import (LaurentPoly, InexactDivision, PolyParseError,
                      parse_poly, VARS)
from .jones import (KnotId, masbaum_coeff, sigma_basis, colored_jones,
                    colored_jones_multisum, summand_spec, named_form_unit)
from .apoly import (a_polynomial, b_polynomial, h_polynomial,
                    cd_coefficients, verify_aj)
from .qrec import (parse_recurrence, load_recurrence, check_kfree,
                   specialize_q1, compare_with_apoly)
from .volnum import (CertificationError, jhat, dilog, bloch_wigner,
                     saddle_solve, optimistic_volume, kashaev_scan)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly", "InexactDivision", "PolyParseError", "parse_poly", "VARS",
    "KnotId", "masbaum_coeff", "sigma_basis", "colored_jones",
    "colored_jones_multisum", "summand_spec", "named_form_unit",
    "a_polynomial", "b_polynomial", "h_polynomial", "cd_coefficients",
    "verify_aj",
    "parse_recurrence", "load_recurrence", "check_kfree", "specialize_q1",
    "compare_with_apoly",
    "CertificationError", "jhat", "dilog", "bloch_wigner", "saddle_solve",
    "optimistic_volume", "kashaev_scan",
    "__version__",
]
