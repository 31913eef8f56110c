"""Noncommutative polynomial computer algebra over the rationals.

Gröbner Bases (Mora's algorithm), Involutive Bases under twelve
involutive divisions, and basis conversion walks between the
degree-based monomial orderings, for free associative algebras with
exact rational coefficients.
"""

from .algebra import (Alphabet, ParseError, Polynomial, Term,
                      format_polynomial, normal_word_counts, parse_polynomial,
                      poly_combine, term_mul_poly)
from .groebner import (BasisResult, divide, log_expand, mora, reduce_basis,
                       sugar_value)
from .involutive import (InvolutiveDivision, MultiplicativeTable,
                         assign_multiplicative, autoreduce, inv_divide,
                         involutive_basis, involutively_divides)
from .orderings import MonomialOrdering, initial
from .spoly import OverlapSpec, criterion2_applies, enumerate_overlaps, s_polynomial
from .walk import WalkJob, groebner_walk, involutive_walk

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
