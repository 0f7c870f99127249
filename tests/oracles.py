"""Independent brute-force oracles used to cross-check the library.

The first oracles deliberately avoid the library's representations and code
paths: polynomials are coefficient lists, ring elements are multiplied by
expanding v-power convolutions, spans are built by iterating every scalar
combination.  Slow and dumb on purpose.

The column-scan elimination and the per-third shift keep the library's
earlier forms of rref and phi, as references for the pivot table and the
closed-form rotation that replaced them.  The Gray image by shifts keeps the
earlier, unmemoised gray_image_basis: one row space over every generator's
shifts and v-multiples at once.

The set-based audits take the library's Gray images and walk their
codewords, as the audits did before they became rank algebra, so they check
the library's witnesses against plain set differences.

The last section holds references on the library's own representations,
moved out of the package because only tests use them: full ring spans
through the Gray bijection, the minimum Lee weight of a span, the 8^n scan
for the ring dual, shift and self-orthogonality checks on spans, the
decomposition audit of a set of ring tuples, and trial-division
irreducibility and the formal derivative of polynomials as ints.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from vcubed.codes import (
    DEFAULT_ENUM_CAP,
    BinaryCode,
    DecompositionAudit,
    RingCode,
    _combination_mask,
    _v_multiples,
    audit_decomposition_image,
    build_ring_cyclic,
    check_enum_cap,
    dual_binary,
    dual_ring_formula,
    gray_image_basis,
    phi,
    rref,
)
from vcubed.errors import CapExceeded, PreconditionError
from vcubed.gf2poly import degree, poly_mod
from vcubed.ring import ELEMENTS, gray_vec, gray_vec_inverse, lee_weight_vec, ring_inner_product

DEFAULT_RING_DUAL_CAP = 1 << 24


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


def gray_triple(x: int) -> tuple[int, int, int]:
    a, b, c = x & 1, (x >> 1) & 1, (x >> 2) & 1
    return (a, b, a ^ c)


def lee_weight_by_gray(x: int) -> int:
    return sum(gray_triple(x))


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


# ---------------------------------------------------------------------------
# Set-based audits: the codeword walks that the library's rank algebra
# replaced, kept as references for its witnesses.
# ---------------------------------------------------------------------------


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
    outside = [m for m in extras.codewords() if not other.contains(m)]
    return _least_ring_vector(outside, n), side


# ---------------------------------------------------------------------------
# References on the library's representations, moved out of the package.
# ---------------------------------------------------------------------------


def span_enumerate(code: RingCode, cap: int = DEFAULT_ENUM_CAP) -> frozenset[tuple[int, ...]]:
    """The full codeword set, pulled back through the Gray bijection."""
    image = gray_image_basis(code)
    check_enum_cap(image, cap)
    return frozenset(gray_vec_inverse(mask, code.n) for mask in image.codewords())


def min_lee_enum(span: frozenset[tuple[int, ...]]) -> int:
    """Minimum Lee weight over nonzero codewords of an enumerated span."""
    weights = [lee_weight_vec(v) for v in span if any(v)]
    if not weights:
        raise PreconditionError("zero code has no nonzero codeword")
    return min(weights)


def _span_f2_basis(span: frozenset[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    masks = rref([gray_vec(v) for v in span], 3 * n)
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
