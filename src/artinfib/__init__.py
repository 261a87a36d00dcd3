"""Laurent-coefficient cohomology of Artin groups.

The package computes, exactly, the cohomology of the finite free
complexes over A[q, q^-1] attached to Coxeter and Artin systems (and to
arbitrary user-supplied polynomial families), verifies the degree-shift
isomorphism against truncated two-sided series windows, and extracts
fiber Betti numbers with their monodromy eigenvalues.
"""

from .domains import GF, QQ, ZZ, Domain, domain_from_spec
from .laurent import (LaurentPoly, cyclotomic_poly, factor_cyclotomic,
                      format_poly, parse_poly, q_bracket)
from .series import (RecurrenceKernel, WindowSeries, kernel_of_scalar_mul,
                     m_cohomology_dim_window, poly_window_product,
                     recurrence_extend, solve_scalar_mul)
from .coxeter import (CoxeterSystem, FiniteTypeLabel, finite_type_system,
                      parabolic_components, parse_label, poincare_poly,
                      poincare_poly_bruteforce, poincare_quotient,
                      system_from_string)
from .complexes import (CochainComplex, PolynomialFamily,
                        build_generic_complex, build_salvetti_complex,
                        check_cocycle_family, check_d_squared, dump_family,
                        is_well_filtered, koszul_family, load_family,
                        parse_family, random_koszul_family, salvetti_family,
                        transpose_complex)
from .homology import (InvariantFactors, MonodromyDegree, ShiftReport,
                       SmithDecomposition, cohomology, homology,
                       monodromy_char_poly, smith_normal_form,
                       verify_shift_theorem)
from .cli import RunConfig

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "ZZ", "Domain", "domain_from_spec",
    "LaurentPoly", "cyclotomic_poly", "factor_cyclotomic", "format_poly",
    "parse_poly", "q_bracket",
    "RecurrenceKernel", "WindowSeries", "kernel_of_scalar_mul",
    "m_cohomology_dim_window", "poly_window_product", "recurrence_extend",
    "solve_scalar_mul",
    "CoxeterSystem", "FiniteTypeLabel", "finite_type_system",
    "parabolic_components", "parse_label", "poincare_poly",
    "poincare_poly_bruteforce", "poincare_quotient", "system_from_string",
    "CochainComplex", "PolynomialFamily",
    "build_generic_complex", "build_salvetti_complex",
    "check_cocycle_family", "check_d_squared", "dump_family",
    "is_well_filtered", "koszul_family", "load_family", "parse_family",
    "random_koszul_family", "salvetti_family", "transpose_complex",
    "InvariantFactors", "MonodromyDegree", "ShiftReport",
    "SmithDecomposition", "cohomology", "homology",
    "monodromy_char_poly", "smith_normal_form", "verify_shift_theorem",
    "RunConfig",
    "__version__",
]
