"""Cyclic codes over F2[v]/(v^3 - v), their Gray images, and the CSS
quantum codes they induce, with exact audits of the structural claims
behind the construction."""

from .codes import (
    BinaryCode,
    RingCode,
    audit_decomposition_image,
    audit_dual_formula,
    audit_single_generator,
    audit_size_formula,
    audit_triple,
    binary_cyclic,
    gray_image_basis,
    min_hamming,
)
from .errors import CapExceeded, ParseError, PreconditionError
from .gf2poly import (
    Factorization,
    degree,
    divides_xn1,
    enumerate_divisors,
    factor_xn1,
    format_poly,
    parse_poly,
    poly_divmod,
    poly_gcd,
    poly_hex,
    poly_mod,
    poly_mul,
    reciprocal,
    xn1,
)
from .quantum import (
    QuantumCodeRecord,
    SearchOutcome,
    css_from_triple,
    dual_containing_poly,
    search_triples,
)
from .reference import REFERENCE_ROWS, reproduce_all
from .ring import gray_vec, gray_vec_inverse

__version__ = "0.1.0"
