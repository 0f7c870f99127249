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
    binary_cyclic,
    build_ring_cyclic,
    dual_binary,
    dual_ring_formula,
    gray_image_basis,
    min_hamming,
    phi,
)
from .errors import CapExceeded, ParseError, PreconditionError
from .gf2poly import (
    Factorization,
    degree,
    divides_xn1,
    enumerate_divisors,
    factor_xn1,
    format_poly,
    is_irreducible,
    parse_poly,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_hex,
    poly_mod,
    poly_mul,
    reciprocal,
    xn1,
)
from .quantum import (
    CssValidation,
    QuantumCodeRecord,
    SearchOutcome,
    css_from_triple,
    dual_containing_poly,
    search_triples,
    validate_css_binary,
)
from .reference import REFERENCE_ROWS, reproduce_all
from .ring import (
    classify,
    gray,
    gray_inverse,
    gray_vec,
    gray_vec_inverse,
    lee_weight,
    lee_weight_vec,
    principal_ideal,
    ring_add,
    ring_inner_product,
    ring_mul,
    scale_vec,
    vec_add,
)

__version__ = "0.1.0"
