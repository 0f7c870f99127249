"""Independent brute-force oracles used to cross-check the library.

The ring's element arithmetic comes first: addition and the product of
elements, units and principal ideals, Lee weights, the Gray map of one
element, the per-coordinate inverse of the Gray map on vectors (the
package's form before it unpacked masks by bytes), scaling, the inner
product and the text grammar of an element.
The package computes on Gray masks alone and needs none of it; these are
the paper's definitions, which the tests hold the Gray map to.

The oracles after it deliberately avoid the library's representations and
code paths: polynomials are coefficient lists, ring elements are multiplied
by expanding v-power convolutions, spans are built by iterating every
scalar combination.  Slow and dumb on purpose.

The column-scan elimination keeps the library's earlier form of rref, as a
reference for the pivot table that replaced it.  phi (the blockwise shift
of a Gray mask, in one closed form) and _v_multiples (the Gray masks of v*x
and v^2*x) are the library's earlier per-shift operators, which its
one-pass span over the thirds of a mask replaced; the per-third shift is
the form before phi.  The Gray image by shifts keeps the earlier,
unmemoised gray_image_basis: one row space over every generator's shifts
and v-multiples at once, built with phi and _v_multiples.  The span of a
mask by rows keeps that one-pass span over the full 3n bits, the form
before the library split every mask into its two parts.

The set-based audits take the library's Gray images and walk their
codewords, as the audits did before they became rank algebra, so they check
the library's witnesses against plain set differences.  The projections of
an image by the rref of its thirds are the library's form before it read
them off the image's basis.

The last section holds references on the library's own representations,
moved out of the package because only tests use them: the null space and
binary dual of a code, with the argument that the dual of a Gray image is
the image of the ring dual, the codeword walk of a binary code, the paper's
cyclic code of a triple, its single generator and its claimed dual, each
laid out from unit coefficients, whether a binary code holds its null-space
dual, the exact CSS check of a divisor triple from its code key, full ring
spans through the Gray bijection (refused over an enumeration cap, the one
bound left on a codeword walk), the minimum Lee weight of a span, the 8^n
scan for the ring dual, shift and self-orthogonality checks on spans, the
decomposition audit of a set of ring tuples, and the sum, the irreducibility
(by Rabin's test and by trial division) and the formal derivative of
polynomials as ints.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from typing import NamedTuple

from vcubed.codes import (
    DEFAULT_ENUM_CAP,
    BinaryCode,
    DecompositionAudit,
    RingCode,
    _combination_mask,
    _thirds,
    audit_decomposition_image,
    audit_size_formula,
    code_key,
    gray_image_basis,
    rref,
)
from vcubed.errors import CapExceeded, ParseError, PreconditionError
from vcubed.gf2poly import (
    X, degree, poly_divmod, poly_gcd, poly_mod, poly_mul, reciprocal, require_divisor, xn1,
)
from vcubed.ring import _TERM_BITS, gray_vec, gray_vec_inverse

DEFAULT_RING_DUAL_CAP = 1 << 24


# ---------------------------------------------------------------------------
# The ring's element arithmetic: the paper's definitions, which the tests
# hold the package's Gray masks to.
# ---------------------------------------------------------------------------

ONE = 1
V = 2
ONE_PLUS_V = 3
V2 = 4
ONE_PLUS_V2 = 5
V_PLUS_V2 = 6
ONE_PLUS_V_PLUS_V2 = 7

ELEMENTS = tuple(range(8))
UNITS = (ONE, ONE_PLUS_V_PLUS_V2)

# Lee weights, indexed by element: w(0)=0, w(1)=2, w(v)=w(v^2)=w(1+v^2)=1,
# w(1+v)=3, w(v+v^2)=w(1+v+v^2)=2.  Equals the Hamming weight of the Gray image.
LEE_WEIGHTS = (0, 2, 1, 3, 1, 1, 2, 2)


def ring_add(x: int, y: int) -> int:
    return x ^ y


def ring_mul(x: int, y: int) -> int:
    """Product reduced by v^3 = v (hence v^4 = v^2).

    Closed form: (a1 + v b1 + v^2 c1)(a2 + v b2 + v^2 c2)
      = a1a2 + v(a1b2 + b1a2 + b1c2 + c1b2) + v^2(a1c2 + b1b2 + c1a2 + c1c2).
    """
    a1, b1, c1 = x & 1, (x >> 1) & 1, (x >> 2) & 1
    a2, b2, c2 = y & 1, (y >> 1) & 1, (y >> 2) & 1
    const = a1 & a2
    vc = (a1 & b2) ^ (b1 & a2) ^ (b1 & c2) ^ (c1 & b2)
    v2c = (a1 & c2) ^ (b1 & b2) ^ (c1 & a2) ^ (c1 & c2)
    return const | vc << 1 | v2c << 2


def classify(x: int) -> str:
    """'zero', 'unit' (only 1 and 1+v+v^2), or 'zero_divisor'."""
    if x == 0:
        return "zero"
    return "unit" if x in UNITS else "zero_divisor"


def principal_ideal(x: int) -> frozenset[int]:
    return frozenset(ring_mul(r, x) for r in ELEMENTS)


def lee_weight(x: int) -> int:
    return LEE_WEIGHTS[x]


def lee_weight_vec(vec: tuple[int, ...]) -> int:
    return sum(LEE_WEIGHTS[e] for e in vec)


def gray(x: int) -> tuple[int, int, int]:
    a, b, c = x & 1, (x >> 1) & 1, (x >> 2) & 1
    return (a, b, a ^ c)


def gray_inverse(t: tuple[int, int, int]) -> int:
    a, b, third = t
    return a | b << 1 | (a ^ third) << 2


def gray_vec_inverse_by_bits(mask: int, n: int) -> tuple[int, ...]:
    """The ring vector of a 3n-bit Gray mask, read one coordinate at a
    time: the package's form before it spread each third into bytes."""
    full = (1 << n) - 1
    a = mask & full
    b = (mask >> n) & full
    c = a ^ (mask >> (2 * n)) & full
    return tuple(
        ((a >> i) & 1) | ((b >> i) & 1) << 1 | ((c >> i) & 1) << 2 for i in range(n)
    )


def scale_vec(s: int, vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ring_mul(s, e) for e in vec)


def ring_inner_product(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """sum_i x_i * y_i as a ring element."""
    if len(x) != len(y):
        raise PreconditionError(f"length mismatch: {len(x)} vs {len(y)}")
    acc = 0
    for a, b in zip(x, y):
        acc ^= ring_mul(a, b)
    return acc


def parse_elem(text: str) -> int:
    """Inverse of vcubed.ring.format_elem: terms 1, v and v^2 joined by '+',
    or "0"."""
    s = text.strip()
    if s == "0":
        return 0
    x = 0
    pos = 0
    for term in s.split("+"):
        stripped = term.strip()
        if stripped not in _TERM_BITS:
            raise ParseError(f"bad ring term {stripped!r}", pos)
        x ^= _TERM_BITS[stripped]
        pos += len(term) + 1
    return x


def to_coeffs(p: int) -> list[int]:
    return [(p >> i) & 1 for i in range(p.bit_length())]


def from_coeffs(coeffs: list[int]) -> int:
    return sum((bit & 1) << i for i, bit in enumerate(coeffs))


def schoolbook_mul(p: int, q: int) -> int:
    a, b = to_coeffs(p), to_coeffs(q)
    if not a or not b:
        return 0
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= ai & bj
    return from_coeffs(out)


def schoolbook_divmod(p: int, d: int) -> tuple[int, int]:
    assert d != 0
    rem = to_coeffs(p)
    div = to_coeffs(d)
    dd = len(div) - 1
    quot = [0] * max(len(rem) - dd, 0)
    for top in range(len(rem) - 1, dd - 1, -1):
        if rem[top]:
            shift = top - dd
            quot[shift] = 1
            for i, bit in enumerate(div):
                rem[shift + i] ^= bit
    return from_coeffs(quot), from_coeffs(rem)


def ring_mul_structural(x: int, y: int) -> int:
    """Multiply two ring elements by v-power convolution, then reduce v^3 -> v."""
    xc = [x & 1, (x >> 1) & 1, (x >> 2) & 1]
    yc = [y & 1, (y >> 1) & 1, (y >> 2) & 1]
    conv = [0] * 5
    for i in range(3):
        for j in range(3):
            conv[i + j] ^= xc[i] & yc[j]
    reduced = [0, 0, 0]
    for power in range(4, -1, -1):
        e = power
        while e >= 3:
            e -= 2  # v^(e) = v^(e-2) once e >= 3
        reduced[e] ^= conv[power]
    return reduced[0] | reduced[1] << 1 | reduced[2] << 2


def lee_weight_by_gray(x: int) -> int:
    return sum(gray(x))


def span_by_all_combinations(generators, n, cyclic=False):
    """Every sum of ring multiples of the generators (and shifts if cyclic)."""
    gens = []
    for g in generators:
        if cyclic:
            cur = tuple(g)
            for _ in range(n):
                gens.append(cur)
                cur = cur[-1:] + cur[:-1]
        else:
            gens.append(tuple(g))
    span = set()
    for scalars in product(range(8), repeat=len(gens)):
        acc = [0] * n
        for s, g in zip(scalars, gens):
            for i, e in enumerate(g):
                acc[i] ^= ring_mul_structural(s, e)
        span.add(tuple(acc))
    return frozenset(span)


def binary_min_weight_direct(basis, _ncols) -> int:
    """Minimum weight by iterating every coefficient combination."""
    best = None
    for coeffs in product((0, 1), repeat=len(basis)):
        cw = 0
        for bit, row in zip(coeffs, basis):
            if bit:
                cw ^= row
        if cw:
            w = bin(cw).count("1")
            best = w if best is None else min(best, w)
    assert best is not None
    return best


def binary_dual_direct(basis, ncols) -> set[int]:
    """All vectors orthogonal to every basis row, by scanning 2^ncols."""
    out = set()
    for vec in range(1 << ncols):
        if all(bin(vec & row).count("1") % 2 == 0 for row in basis):
            out.add(vec)
    return out


def rref_by_columns(rows, ncols):
    """Canonical RREF by scanning the columns in order: each column takes
    the first remaining row with a bit there as its pivot and clears that
    bit from every other row."""
    work = [r for r in rows if r]
    basis = []  # kept with ascending pivot
    for col in range(ncols):
        pivot_row = None
        for i, r in enumerate(work):
            if (r >> col) & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        piv = work.pop(pivot_row)
        basis = [b ^ piv if (b >> col) & 1 else b for b in basis]
        work = [w ^ piv if (w >> col) & 1 else w for w in work]
        work = [w for w in work if w]
        basis.append(piv)
        if not work:
            break
    return tuple(basis)


def phi(mask: int, length: int) -> int:
    """Blockwise shift of a binary vector split into three equal thirds.

    The mask must be length bits wide.  Each third of n bits rotates right
    by one position at once: with top the mask of every third's highest bit,
    the other bits move up one and the top bits wrap round to the bottom of
    their own third.
    """
    if length % 3 != 0:
        raise PreconditionError(f"length {length} not divisible by 3")
    n = length // 3
    top = (1 | 1 << n | 1 << (2 * n)) << (n - 1)
    return (mask & ~top) << 1 | (mask & top) >> (n - 1)


def _v_multiples(mask: int, n: int) -> tuple[int, int]:
    """Gray masks of v*x and v^2*x, given the Gray mask (A|B|C) of x.

    With x = a + v*b + v^2*c, so that (A|B|C) = (a|b|a+c), v*x = v*(a+c)
    + v^2*b and v^2*x = v*b + v^2*(a+c), whose Gray images are (0|C|B) and
    (0|B|C).
    """
    _, b, c = _thirds(mask, n)
    return c << n | b << (2 * n), b << n | c << (2 * n)


def phi_by_thirds(mask, length):
    """Split a 3n-bit mask into its thirds, rotate each by one position
    (bit i to bit i+1, the top bit to bit 0) and join them again."""
    n = length // 3
    full = (1 << n) - 1

    def rot(x):
        return ((x << 1) & full) | (x >> (n - 1))

    t0, t1, t2 = mask & full, (mask >> n) & full, (mask >> (2 * n)) & full
    return rot(t0) | rot(t1) << n | rot(t2) << (2 * n)


def gray_image_basis_by_shifts(code):
    """The Gray image as the row space of u*g for u in {1, v, v^2} over every
    generator g and, when cyclic, every shift of it, all in one elimination."""
    n = code.n
    rows = set()
    for gen in code.generators:
        mask = gray_vec(gen)
        for shift in range(n if code.cyclic else 1):
            if shift:
                mask = phi(mask, 3 * n)
            rows.update((mask, *_v_multiples(mask, n)))
    return BinaryCode.from_rows(3 * n, rows)


def mask_span_by_rows(mask: int, n: int, cyclic: bool) -> tuple[int, ...]:
    """The span of one Gray mask by the rows of its full 3n bits, with no
    split into parts: the rref of (A|B|C), (0|C|B) and (0|B|C) for every
    shift of the mask, each third rotated by one position per shift."""
    full = (1 << n) - 1
    top, n2 = n - 1, 2 * n
    a, b, c = _thirds(mask, n)
    rows: list[int] = []
    for _ in range(n if cyclic else 1):
        rows += (a | b << n | c << n2, c << n | b << n2, b << n | c << n2)
        a = (a << 1 | a >> top) & full
        b = (b << 1 | b >> top) & full
        c = (c << 1 | c >> top) & full
    return rref(rows)


# ---------------------------------------------------------------------------
# Set-based audits: the codeword walks that the library's rank algebra
# replaced, kept as references for its witnesses.
# ---------------------------------------------------------------------------


def image_projections_by_rref(image: BinaryCode) -> tuple[BinaryCode, BinaryCode, BinaryCode]:
    """The first, second and last thirds of a Gray image, as codes of length
    n, each the rref of the thirds of the basis rows (projection is linear).

    It takes any binary code of length 3n, so it is the reference for
    codes._image_projections, which reads C1 and C2 = C3 of an R-linear
    code's image off its basis."""
    n = image.n // 3
    thirds = [_thirds(mask, n) for mask in image.basis]
    return tuple(BinaryCode.from_rows(n, [t[i] for t in thirds]) for i in range(3))


def _least_ring_vector(masks, n):
    """min(gray_vec_inverse(m, n) for m in masks), converting only the winner.

    The vector of a mask (A|B|C) has entries e_i = a_i | b_i<<1 | c_i<<2 with
    c = A^C, so tuples compare as the integers sum e_i * 8^(n-1-i), that is
    as S(A) | S(B)<<1 | S(A^C)<<2, where S moves bit i to bit 3(n-1-i).  S
    reads the bits of its argument, lowest first, as octal digits.
    """
    full = (1 << n) - 1
    spread = cache(lambda x: int(f"{x:0{n}b}"[::-1], 8))

    def key(mask):
        a = mask & full
        return (spread(a) | spread((mask >> n) & full) << 1
                | spread(a ^ (mask >> (2 * n)) & full) << 2)

    return gray_vec_inverse(min(masks, key=key), n)


def audit_decomposition_by_sets(psi, n):
    """The decomposition audit on the full set psi of Gray masks of a code:
    projection sets, the product walked in sorted order, the reconstruction
    built from every triple of projections."""
    full = (1 << n) - 1
    a_set = {m & full for m in psi}
    b_set = {(m >> n) & full for m in psi}
    c_set = {(m >> (2 * n)) & full for m in psi}
    product_size = len(a_set) * len(b_set) * len(c_set)

    tensor_equal = len(psi) == product_size
    tensor_witness = None
    if not tensor_equal:
        candidates = (a | b << n | c << (2 * n)
                      for a, b, c in product(sorted(a_set), sorted(b_set), sorted(c_set)))
        tensor_witness = gray_vec_inverse(next(m for m in candidates if m not in psi), n)

    recon = {_combination_mask(a, b, c, n) for a in a_set for b in b_set for c in c_set}
    reconstruction_equal = recon == psi
    witness = None
    side = ""
    if not reconstruction_equal:
        extra = recon - psi
        side = "only_in_reconstruction"
        if not extra:
            extra = psi - recon
            side = "only_in_code"
        witness = _least_ring_vector(extra, n)

    return DecompositionAudit(
        n=n,
        code_size=len(psi),
        projection_sizes=(len(a_set), len(b_set), len(c_set)),
        product_size=product_size,
        tensor_equal=tensor_equal,
        tensor_witness=tensor_witness,
        reconstruction_equal=reconstruction_equal,
        reconstruction_witness=witness,
        reconstruction_witness_side=side,
    )


def dual_witness_by_walk(n, f1, f2, f3):
    """(witness, side) of the dual-formula audit, found by walking every
    codeword of the side with extras and keeping those outside the other."""
    dual = dual_binary(gray_image_basis(build_ring_cyclic(n, f1, f2, f3)))
    formula = gray_image_basis(dual_ring_formula(n, f1, f2, f3))
    if formula == dual:
        return None, ""
    extras, other, side = ((formula, dual, "only_in_formula")
                           if formula.contains_code(dual)
                           else (dual, formula, "only_in_brute"))
    outside = [m for m in codewords(extras) if not other.contains(m)]
    return _least_ring_vector(outside, n), side


# ---------------------------------------------------------------------------
# References on the library's representations, moved out of the package.
# ---------------------------------------------------------------------------


def nullspace(rows, ncols: int) -> tuple[int, ...]:
    """Canonical basis of {x : x . row = 0 for every row}.

    Every row must be narrower than ncols.  Each free column of the pivot
    table's echelon form (rref) gives one vector: its own bit plus the
    pivot bit of every row with a bit in that column.
    """
    reduced = rref(rows)
    pivots = [(r & -r).bit_length() - 1 for r in reduced]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for row, piv in zip(reduced, pivots):
            if (row >> free) & 1:
                vec |= 1 << piv
        basis.append(vec)
    return rref(basis)


@lru_cache(maxsize=1024)
def dual_binary(code: BinaryCode) -> BinaryCode:
    """Null space of the basis; dimension n - dim.

    Of a Gray image, it is the Gray image of the exact ring dual.  The
    v^2-coefficient of <x, y> is the dot product of the Gray masks of x and
    y, so the image of C^perp lies in the binary dual of the image of C; R
    is a Frobenius ring, so |C| * |C^perp| = 8^n and the two are the same
    size.  The reference for codes._dual_key, which reads the dual off the
    code key.
    """
    return BinaryCode(code.n, nullspace(code.basis, code.n))


def codewords(code: BinaryCode):
    """All 2^dim codewords of a binary code, walked in Gray-code order
    starting from 0."""
    yield 0
    cw = 0
    for t in range(1, 1 << code.dim):
        # Gray step t flips the row at the lowest set bit of t.
        cw ^= code.basis[(t & -t).bit_length() - 1]
        yield cw


def _unit_multiple(unit: int, f: int, n: int) -> tuple[int, ...]:
    """The ring vector unit * f, with f reduced mod x^n - 1: unit times each
    binary coefficient of f."""
    f = poly_mod(f, xn1(n))
    return scale_vec(unit, tuple((f >> i) & 1 for i in range(n)))


def combined_generator(n: int, f1: int, f2: int, f3: int) -> tuple[int, ...]:
    """The one vector v*f1 + (1+v)*f2 + (1+v^2)*f3, each fi reduced
    mod x^n - 1, summed from its unit multiples by ring addition; the
    reference for the Gray mask that codes._single_image spans."""
    parts = (_unit_multiple(u, f, n) for u, f in zip((V, ONE_PLUS_V, ONE_PLUS_V2), (f1, f2, f3)))
    return tuple(ring_add(ring_add(a, b), c) for a, b, c in zip(*parts))


def build_ring_cyclic(n: int, f1: int, f2: int, f3: int) -> RingCode:
    """The paper's cyclic code <v f1, (1+v) f2, (1+v^2) f3>, the reference
    for codes.cyclic_image, which builds the image from the code key.

    Each fi must divide x^n - 1; it enters reduced mod x^n - 1, so x^n - 1
    itself contributes the zero vector.
    """
    for label, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        require_divisor(n, f, label)
    gens = (_unit_multiple(u, f, n) for u, f in zip((V, ONE_PLUS_V, ONE_PLUS_V2), (f1, f2, f3)))
    return RingCode(n, tuple(gens), cyclic=True)


def dual_ring_formula(n: int, f1: int, f2: int, f3: int) -> RingCode:
    """The paper's claimed dual: the cyclic code of the one generator
    v*h1* + (1+v)*h2* + (1+v^2)*h3* (combined_generator), where hi* is the
    reciprocal of hi = (x^n - 1)/fi.

    This is a claim under audit, not a trusted construction.
    """
    hs = []
    for f in (f1, f2, f3):
        require_divisor(n, f)
        hs.append(reciprocal(poly_divmod(xn1(n), f)[0]))
    return RingCode(n, (combined_generator(n, *hs),), cyclic=True)


def contains_dual(code: BinaryCode) -> bool:
    """Whether a binary code holds its dual, taken as a null space
    (dual_binary): the CSS condition, decided without the code key."""
    return code.contains_code(dual_binary(code))


def holds_dual_of(n: int, g: int, h: int) -> bool:
    """Whether <g> holds <h>^perp, for divisors g and h of x^n - 1.

    <h>^perp is <p*> with p = (x^n - 1)/h, and <q> lies in <g> exactly when
    g divides q (MacWilliams and Sloane, ch. 7).  The reciprocal is
    multiplicative, so g | p* holds exactly when g* | p, that is when
    g* h divides x^n - 1.  The diagonal h = g is the paper's criterion.
    """
    return poly_mod(xn1(n), poly_mul(reciprocal(g), h)) == 0


class CssValidation(NamedTuple):
    """Binary-level check of a triple: Gray-image rank and dual containment."""

    ring_n: int
    dim_code: int
    dim_dual: int
    expected_dim: int
    dim_matches: bool
    containment_ok: bool
    k_formula: int
    k_rank: int
    validated: bool
    reason: str


def validate_css_binary(n: int, f1: int, f2: int, f3: int) -> CssValidation:
    """Check any divisor triple's claimed dimension against its Gray-image
    rank, and whether its code C holds its dual C^perp, the CSS condition.

    The rank and the claimed dimension come from audit_size_formula, and
    C^perp has dimension 3n minus the rank.  Containment is decided from the
    code key (g_a, g_u, g_v) (code_key), with no null space.  The image
    is C_A (+) P, with C_A = <g_a> on the first third and the Plotkin code
    P = {(u | u+y) : u in C_u, y in C_v} on the other two, so C^perp =
    C_A^perp (+) P^perp with P^perp = {(b+c | b) : b in C_v^perp,
    c in C_u^perp}.  (b+c | b) lies in P exactly when c is in C_v and b+c in
    C_u.  With b = 0 this asks for C_u^perp in C_v, which is the same as
    C_v^perp in C_u; and then b+c is in C_u, because C_v lies in C_u (g_u
    divides g_v).  So P^perp lies in P exactly when C_v^perp lies in C_u, and
    C^perp lies in C exactly when <g_a> holds <g_a>^perp and <g_u> holds
    <g_v>^perp (holds_dual_of).
    """
    size = audit_size_formula(n, f1, f2, f3)
    g_a, g_u, g_v = code_key(n, f1, f2, f3)
    containment = holds_dual_of(n, g_a, g_a) and holds_dual_of(n, g_u, g_v)
    reasons = []
    if not containment:
        reasons.append("dual not contained in Gray image")
    if not size.matches:
        reasons.append(
            f"Gray-image rank {size.rank_log2} differs from claimed {size.claimed_log2}"
        )
    return CssValidation(
        ring_n=n,
        dim_code=size.rank_log2,
        dim_dual=3 * n - size.rank_log2,
        expected_dim=size.claimed_log2,
        dim_matches=size.matches,
        containment_ok=containment,
        k_formula=2 * size.claimed_log2 - 3 * n,
        k_rank=2 * size.rank_log2 - 3 * n,
        validated=containment and size.matches,
        reason="; ".join(reasons),
    )


def check_enum_cap(image: BinaryCode, cap: int) -> None:
    """Refuse a Gray image with more than cap codewords."""
    if image.size > cap:
        raise CapExceeded(
            f"span estimate 2^{image.dim} exceeds enumeration cap {cap}"
        )


def span_enumerate(code: RingCode, cap: int = DEFAULT_ENUM_CAP) -> frozenset[tuple[int, ...]]:
    """The full codeword set, pulled back through the Gray bijection."""
    image = gray_image_basis(code)
    check_enum_cap(image, cap)
    return frozenset(gray_vec_inverse(mask, code.n) for mask in codewords(image))


def min_lee_enum(span: frozenset[tuple[int, ...]]) -> int:
    """Minimum Lee weight over nonzero codewords of an enumerated span."""
    weights = [lee_weight_vec(v) for v in span if any(v)]
    if not weights:
        raise PreconditionError("zero code has no nonzero codeword")
    return min(weights)


def _span_f2_basis(span: frozenset[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    masks = rref([gray_vec(v) for v in span])
    return [gray_vec_inverse(m, n) for m in masks]


def dual_ring_bruteforce(span: frozenset[tuple[int, ...]], n: int,
                         cap: int = DEFAULT_RING_DUAL_CAP) -> frozenset[tuple[int, ...]]:
    """Exact annihilator of the span under the ring inner product.

    Scans all 8^n candidate vectors; orthogonality is checked against an
    additive basis of the span, which suffices because the inner product is
    biadditive.
    """
    if 8 ** n > cap:
        raise CapExceeded(f"8^{n} candidates exceed ring dual cap {cap}")
    basis = _span_f2_basis(span, n)
    out = []
    for cand in product(ELEMENTS, repeat=n):
        if all(ring_inner_product(cand, b) == 0 for b in basis):
            out.append(cand)
    return frozenset(out)


def is_self_orthogonal(span: frozenset[tuple[int, ...]], n: int) -> bool:
    """Whether every pair of codewords is orthogonal (checked on a basis)."""
    basis = _span_f2_basis(span, n)
    return all(
        ring_inner_product(x, y) == 0 for x in basis for y in basis
    )


def sigma(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Right cyclic shift: (r0,...,r_{n-1}) -> (r_{n-1}, r0, ..., r_{n-2})."""
    return vec[-1:] + vec[:-1]


def is_cyclic(span: frozenset[tuple[int, ...]]) -> bool:
    return all(sigma(v) in span for v in span)


def is_quasicyclic3(masks: frozenset[int] | set[int], length: int) -> bool:
    return all(phi(m, length) in masks for m in masks)


def audit_decomposition(span: frozenset[tuple[int, ...]], n: int) -> DecompositionAudit:
    """The decomposition audit of a code given as its set of ring tuples."""
    return audit_decomposition_image(BinaryCode.from_rows(3 * n, [gray_vec(v) for v in span]))


def poly_add(p: int, q: int) -> int:
    """Sum over GF(2): coefficient-wise XOR."""
    return p ^ q


def _sqr(p: int) -> int:
    # Frobenius: squaring spreads each bit i to bit 2i.
    r = 0
    while p:
        low = p & -p
        r |= 1 << (2 * (low.bit_length() - 1))
        p ^= low
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Deterministic irreducibility test over GF(2).

    f of degree d is irreducible iff x^(2^d) = x (mod f) and, for every
    prime p dividing d, gcd(x^(2^(d/p)) - x, f) = 1.  Runs in O(d) modular
    squarings, so it stays fast at every degree the factorizations meet.
    """
    d = degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not f & 1:
        return False  # x divides f
    checkpoints = {d // p for p in _prime_factors(d)}
    h = X
    for k in range(1, d + 1):
        h = poly_mod(_sqr(h), f)
        if k in checkpoints and poly_gcd(h ^ X, f) != 1:
            return False
    return h == X


def irreducible_by_trial_division(f: int) -> bool:
    """Literal oracle: no divisor of any lower degree 1..deg-1.

    Exponential in the degree; intended for cross-checking small factors,
    not as the working test.
    """
    d = degree(f)
    if d <= 0:
        return False
    return all(poly_mod(f, q) != 0 for q in range(2, 1 << d))


def derivative(p: int) -> int:
    """Formal derivative: odd-index coefficients shift down, even ones vanish."""
    r = 0
    i = 1
    while p >> i:
        if (p >> i) & 1:
            r |= 1 << (i - 1)
        i += 2
    return r
