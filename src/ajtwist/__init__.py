"""Exact recurrence and A-polynomial toolkit for twist knots.

The package certifies, with integer arithmetic end to end, that the
annihilator of the colored Jones function of a twist knot reproduces the
A-polynomial, verifies shipped q-recurrences for the 5_2 and 6_1 knots,
and evaluates the associated hyperbolic volume numerics.

Importing the package loads no submodule: each public name is imported
from its submodule on first access and then cached here.  Only the
volume half of volnum imports mpmath, inside its functions, so of all
the commands only volume loads it; kashaev runs on Python ints.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("LaurentPoly", "InexactDivision", "CertificationError",
                     "PolyParseError", "parse_poly", "VARS"), "laurent"),
    **dict.fromkeys(("KnotId", "masbaum_coeff", "sigma_basis",
                     "colored_jones", "colored_jones_multisum",
                     "named_form_unit"), "jones"),
    **dict.fromkeys(("a_polynomial", "b_polynomial", "h_polynomial",
                     "cd_coefficients", "verify_aj"), "apoly"),
    **dict.fromkeys(("parse_recurrence", "load_recurrence", "check_kfree",
                     "specialize_q1", "compare_with_apoly"), "qrec"),
    **dict.fromkeys(("jhat", "dilog", "bloch_wigner", "saddle_solve",
                     "optimistic_volume", "kashaev_scan"), "volnum"),
}

__all__ = [*_HOME, "__version__"]


def _bind_on_lookup(namespace):
    """A module __getattr__ that binds each _HOME name into namespace.

    The name's submodule is imported on the first lookup, so a module
    that calls a layer as module.NAME (cli, qrec) loads it only when it
    runs it, and a patch on that attribute reaches the call.
    """
    def __getattr__(name):
        home = _HOME.get(name)
        if home is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (namespace["__name__"], name))
        value = getattr(import_module("." + home, __name__), name)
        namespace[name] = value
        return value
    return __getattr__


__getattr__ = _bind_on_lookup(globals())


def __dir__():
    return sorted(set(globals()) | set(_HOME))
