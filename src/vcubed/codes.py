"""Linear and cyclic codes over the ring and over GF(2).

Binary codes are row spaces of int bitmasks in reduced row echelon form with
ascending pivots, so two BinaryCode values are equal exactly when they are
the same subspace.  Ring codes are generator lists.  The Gray map is an
additive, weight-preserving bijection onto 3n-bit vectors, so a ring code is
handled through the Gray masks of its image: every size and rank here is a
plain GF(2) rank, and every Lee weight a popcount.

Every rank, span and null space goes through rref.  It passes each row once
over a pivot table, a dict from each stored row's lowest set bit to the row,
and then back-substitutes once from the highest pivot down; every row must
be narrower than the ncols it is given.  The cyclic shift of a Gray image is
phi, which rotates all three n-bit thirds of a mask in one closed form.

A search meets the same generators and the same Gray images many times
over, so the work is memoised where it repeats, in bounded lru_caches.  A
module is the sum of the submodules its generators span, so
gray_image_basis is the rref of the union of per-generator spans, and each
span is built once per (n, generator, cyclic) by _generator_span.
BinaryCode is immutable and hashable, so min_hamming and dual_binary run
once per distinct image.  rref is canonical, so a cached result is the same
basis a fresh one would be.

The exact ring dual is dual_binary of the Gray image.  The v^2-coefficient
of <x, y> is the dot product of the Gray masks of x and y, so the image of
C^perp lies in the binary dual of the image of C; R is a Frobenius ring, so
|C| * |C^perp| = 8^n and the two are the same size.

The decomposition, dual-formula and size-formula routines are audits: they
compare a claimed identity against exact computation and report a witness
when the claim fails, never assuming it.  Every set they compare is a GF(2)
subspace, so the audits are rank algebra on bases: sizes are ranks, equality
and containment are basis comparisons, and each witness, the least member
of one subspace outside another, is read off an echelon form
(_least_outside) without walking a single codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import xor
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, PreconditionError
from .gf2poly import degree, divides_xn1, format_poly, poly_divmod, poly_mod, reciprocal, xn1
from .ring import gray_vec, gray_vec_inverse

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_DIST_CAP = 1 << 20


def rref(rows: Sequence[int], ncols: int) -> tuple[int, ...]:
    """Reduced row echelon basis, pivoting on the lowest column index first.

    The result is canonical for the row space: rows are nonzero, each has a
    distinct lowest set bit (its pivot), pivots ascend, and no row has a bit
    in another row's pivot column.  Every row must be narrower than ncols.

    Rows go into a pivot table, keyed by each stored row's lowest set bit.
    An incoming row is XORed with the stored row at its lowest bit until
    that bit is new to the table (the row is stored) or the row is zero.
    One back-substitution pass, from the highest pivot down, then clears
    every pivot column of the rows below it.
    """
    table: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            stored = table.get(low)
            if stored is None:
                table[low] = row
                break
            row ^= stored
    pivots = sorted(table, reverse=True)
    higher = 0  # the pivot bits above the current one
    for piv in pivots:
        row = table[piv]
        hits = row & higher
        while hits:
            low = hits & -hits
            row ^= table[low]
            hits ^= low
        table[piv] = row
        higher |= piv
    return tuple(table[piv] for piv in reversed(pivots))


def nullspace(rows: Sequence[int], ncols: int) -> tuple[int, ...]:
    """Canonical basis of {x : x . row = 0 for every row}.

    Every row must be narrower than ncols.  Each free column of the pivot
    table's echelon form (rref) gives one vector: its own bit plus the
    pivot bit of every row with a bit in that column.
    """
    reduced = rref(rows, ncols)
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
    return rref(basis, ncols)


@dataclass(frozen=True)
class BinaryCode:
    """A binary linear code as its canonical RREF basis."""

    n: int
    basis: tuple[int, ...]

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int]) -> "BinaryCode":
        return cls(n, rref(rows, n))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << len(self.basis)

    def contains(self, vec: int) -> bool:
        for row in self.basis:
            if vec & (row & -row):
                vec ^= row
        return vec == 0

    def contains_code(self, other: "BinaryCode") -> bool:
        return all(self.contains(row) for row in other.basis)

    def codewords(self) -> Iterator[int]:
        """All 2^dim codewords, walked in Gray-code order starting from 0."""
        yield 0
        cw = 0
        for t in range(1, 1 << self.dim):
            # Gray step t flips the row at the lowest set bit of t.
            cw ^= self.basis[(t & -t).bit_length() - 1]
            yield cw


@lru_cache(maxsize=1024)
def dual_binary(code: BinaryCode) -> BinaryCode:
    """Null space of the basis; dimension n - dim."""
    return BinaryCode(code.n, nullspace(code.basis, code.n))


def binary_cyclic(n: int, g: int) -> BinaryCode:
    """Cyclic code of length n generated by g, which must divide x^n - 1."""
    if not divides_xn1(n, g):
        raise PreconditionError(
            f"{format_poly(g)} does not divide x^{n}+1"
        )
    rows = [g << i for i in range(n - degree(g))]
    return BinaryCode.from_rows(n, rows)


@lru_cache(maxsize=1024)
def min_hamming(code: BinaryCode, cap: int = DEFAULT_DIST_CAP) -> int:
    """Exact minimum weight over nonzero codewords.

    Sums of basis rows are searched in order of how many rows they use.  The
    basis is in RREF, so each row owns a pivot column that no other row
    touches and a sum of t rows has weight at least t: once the best weight
    found is at most t, no sum of t or more rows can beat it.  This is the
    one-information-set case of Brouwer-Zimmermann.  ``cap`` bounds the code
    size, as if every codeword were walked.
    """
    if code.dim == 0:
        raise PreconditionError("zero code has no nonzero codeword")
    if code.size > cap:
        raise CapExceeded(f"2^{code.dim} codewords exceed distance cap {cap}")
    best = code.n + 1
    for t in range(1, code.dim + 1):
        if best <= t:
            break
        for rows in combinations(code.basis, t):
            w = reduce(xor, rows).bit_count()
            if w < best:
                best = w
    return best


# ---------------------------------------------------------------------------
# Ring codes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingCode:
    """A code over the ring, given by generator vectors of length n.

    When ``cyclic`` is set the code is the span of all cyclic shifts of the
    generators, i.e. the module they generate inside R[x]/(x^n - 1).
    """

    n: int
    generators: tuple[tuple[int, ...], ...]
    cyclic: bool = False


def _thirds(mask: int, n: int) -> tuple[int, int, int]:
    """Split a 3n-bit Gray mask (A|B|C) into its three n-bit thirds."""
    full = (1 << n) - 1
    return mask & full, (mask >> n) & full, (mask >> (2 * n)) & full


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


def gray_image_basis(code: RingCode) -> BinaryCode:
    """Canonical basis of the Gray image, a binary code of length 3n.

    A module is the sum of the submodules its generators span, so the image
    is the row space of the union of the generators' own spans.
    """
    rows = [row for gen in code.generators
            for row in _generator_span(code.n, gen, code.cyclic)]
    return BinaryCode.from_rows(3 * code.n, rows)


@lru_cache(maxsize=1024)
def _generator_span(n: int, gen: tuple[int, ...], cyclic: bool) -> tuple[int, ...]:
    """Canonical basis of the Gray image of the submodule one generator spans.

    Over R that submodule is the GF(2) span of {u*g : u in {1, v, v^2}} for
    the generator g (and every shift of it, when cyclic); all of these are
    taken on Gray masks, where the shift is phi.
    """
    rows: set[int] = set()
    mask = gray_vec(gen)
    for shift in range(n if cyclic else 1):
        if shift:
            mask = phi(mask, 3 * n)
        rows.update((mask, *_v_multiples(mask, n)))
    return rref(rows, 3 * n)


def check_enum_cap(image: BinaryCode, cap: int) -> None:
    """Refuse a Gray image with more than cap codewords."""
    if image.size > cap:
        raise CapExceeded(
            f"span estimate 2^{image.dim} exceeds enumeration cap {cap}"
        )


def build_ring_cyclic(n: int, f1: int, f2: int, f3: int) -> RingCode:
    """Cyclic ring code generated by v*f1, (1+v)*f2 and (1+v^2)*f3.

    Each fi must divide x^n - 1.  A divisor is its own remainder mod x^n - 1
    except x^n - 1 itself, which contributes the zero vector.
    """
    modulus = xn1(n)
    for label, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        if not divides_xn1(n, f):
            raise PreconditionError(
                f"{label} = {format_poly(f)} does not divide x^{n}+1"
            )
    f1, f2, f3 = (0 if f == modulus else f for f in (f1, f2, f3))
    masks = (_combination_mask(f1, 0, 0, n), _combination_mask(0, f2, 0, n),
             _combination_mask(0, 0, f3, n))
    return RingCode(n, tuple(gray_vec_inverse(m, n) for m in masks), cyclic=True)


@lru_cache(maxsize=8)
def _cyclic_image(n: int, f1: int, f2: int, f3: int) -> BinaryCode:
    """Gray image of build_ring_cyclic(n, f1, f2, f3), the one place a
    cyclic triple's image is built.

    The audits of one triple and its CSS record run back to back and share
    this image, so a few cached entries are enough; BinaryCode is immutable.
    """
    return gray_image_basis(build_ring_cyclic(n, f1, f2, f3))


def _combination_mask(a: int, b: int, c: int, n: int) -> int:
    """Gray mask of v*a + (1+v)*b + (1+v^2)*c for n-bit binary vectors a, b, c.

    Its ring coordinates are (b+c) + v*(a+b) + v^2*c, so the mask is
    (b+c | a+b | b).
    """
    return (b ^ c) | (a ^ b) << n | b << (2 * n)


def combined_generator(n: int, f1: int, f2: int, f3: int) -> tuple[int, ...]:
    """The single vector v*f1 + (1+v)*f2 + (1+v^2)*f3, each fi reduced
    mod x^n - 1."""
    modulus = xn1(n)
    a, b, c = (poly_mod(f, modulus) for f in (f1, f2, f3))
    return gray_vec_inverse(_combination_mask(a, b, c, n), n)


def _dual_polys(n: int, f1: int, f2: int, f3: int) -> tuple[int, ...]:
    """(h1*, h2*, h3*): the reciprocals of hi = (x^n - 1)/fi."""
    modulus = xn1(n)
    for f in (f1, f2, f3):
        if not divides_xn1(n, f):
            raise PreconditionError(f"{format_poly(f)} does not divide x^{n}+1")
    return tuple(reciprocal(poly_divmod(modulus, f)[0]) for f in (f1, f2, f3))


def _image_projections(image: BinaryCode) -> tuple[BinaryCode, BinaryCode, BinaryCode]:
    """The first, second and last thirds of a Gray image, as codes of length n.

    Projection is linear, so each is spanned by the thirds of the basis rows.
    """
    n = image.n // 3
    thirds = [_thirds(mask, n) for mask in image.basis]
    return tuple(BinaryCode.from_rows(n, [t[i] for t in thirds]) for i in range(3))


def dual_ring_formula(n: int, f1: int, f2: int, f3: int) -> RingCode:
    """The claimed dual: one generator v*h1r + (1+v)*h2r + (1+v^2)*h3r,
    where hi = (x^n - 1)/fi and hir is the reciprocal of hi.

    This is a claim under audit, not a trusted construction; compare its
    span against the exact dual, dual_binary of the code's Gray image.
    """
    return RingCode(n, (combined_generator(n, *_dual_polys(n, f1, f2, f3)),), cyclic=True)


# ---------------------------------------------------------------------------
# Audits.  Each one tests a structural claim against exact computation and
# carries a witness when the claim fails.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionAudit:
    """Does the Gray image equal C1 x C2 x C3, and does the reconstruction
    v*C1 + (1+v)*C2 + (1+v^2)*C3 reproduce the code?"""

    n: int
    code_size: int
    projection_sizes: tuple[int, int, int]
    product_size: int
    tensor_equal: bool
    tensor_witness: Optional[tuple[int, ...]]  # in C1 x C2 x C3, not in code
    reconstruction_equal: bool
    reconstruction_witness: Optional[tuple[int, ...]]
    reconstruction_witness_side: str  # "", "only_in_reconstruction", "only_in_code"

    @property
    def passed(self) -> bool:
        return self.tensor_equal and self.reconstruction_equal


def audit_decomposition_image(image: BinaryCode) -> DecompositionAudit:
    """The decomposition audit of a code, given its Gray image, by rank algebra.

    C1 x C2 x C3 is the direct sum of the three projections and always holds
    the image, so the tensor claim is a rank question.  The reconstruction
    map (a, b, c) -> v*a + (1+v)*b + (1+v^2)*c is linear, so its set is the
    span of the images of the projections' basis rows.
    """
    n = image.n // 3
    c1, c2, c3 = _image_projections(image)
    product_size = c1.size * c2.size * c3.size

    tensor_equal = image.size == product_size
    tensor_witness = None
    if not tensor_equal:
        direct_sum = BinaryCode.from_rows(
            image.n, [*c1.basis, *(b << n for b in c2.basis), *(c << (2 * n) for c in c3.basis)]
        )
        tensor_witness = gray_vec_inverse(
            _least_outside(direct_sum, image, _product_order_key(n)), n
        )

    recon = BinaryCode.from_rows(image.n, [
        *(_combination_mask(a, 0, 0, n) for a in c1.basis),
        *(_combination_mask(0, b, 0, n) for b in c2.basis),
        *(_combination_mask(0, 0, c, n) for c in c3.basis),
    ])
    reconstruction_equal = recon == image
    witness = None
    side = ""
    if not reconstruction_equal:
        extras, other, side = ((image, recon, "only_in_code")
                               if image.contains_code(recon)
                               else (recon, image, "only_in_reconstruction"))
        witness = gray_vec_inverse(_least_outside(extras, other, _ring_order_key(n)), n)

    return DecompositionAudit(
        n=n,
        code_size=image.size,
        projection_sizes=(c1.size, c2.size, c3.size),
        product_size=product_size,
        tensor_equal=tensor_equal,
        tensor_witness=tensor_witness,
        reconstruction_equal=reconstruction_equal,
        reconstruction_witness=witness,
        reconstruction_witness_side=side,
    )


def _product_order_key(n: int) -> Callable[[int], int]:
    """The order of product(sorted(C1), sorted(C2), sorted(C3)) on masks:
    (A|B|C) compares as A<<2n | B<<n | C."""
    def key(mask: int) -> int:
        a, b, c = _thirds(mask, n)
        return a << (2 * n) | b << n | c
    return key


def _ring_order_key(n: int) -> Callable[[int], int]:
    """The order of ring tuples (gray_vec_inverse) on masks.

    The vector of a mask (A|B|C) has entries e_i = a_i | b_i<<1 | c_i<<2 with
    c = A^C, so tuples compare as the integers sum e_i * 8^(n-1-i), that is
    as S(A) | S(B)<<1 | S(A^C)<<2, where S moves bit i to bit 3(n-1-i).  S
    reads the bits of its argument, lowest first, as octal digits.
    """
    def spread(x: int) -> int:
        return int(f"{x:0{n}b}"[::-1], 8)

    def key(mask: int) -> int:
        a, b, c = _thirds(mask, n)
        return spread(a) | spread(b) << 1 | spread(a ^ c) << 2
    return key


def _reduce(row: int, basis: Sequence[int]) -> int:
    """row with the leading (highest) bit of every basis row cleared; the
    basis has distinct leading bits and is sorted in descending order."""
    for b in basis:
        row = min(row, row ^ b)
    return row


def _leading_basis(rows: Iterable[int]) -> list[int]:
    """Echelon basis of the span of rows, one row per leading bit, sorted in
    descending order."""
    basis: list[int] = []
    for row in rows:
        row = _reduce(row, basis)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return basis


def _least_outside(x: BinaryCode, y: BinaryCode, key: Callable[[int], int]) -> int:
    """The least mask of x outside y, under the order of key(mask).

    key must be a linear bijection (here, a bit relabelling), so a mask m
    travels as key(m) << n | m and sums act on both halves at once.  Let
    Z = x & y.  x \\ y is the union of the cosets x' + Z with x' not in Z; the
    least member of a coset is its reduction by Z's leading-bit echelon
    basis, because adding any nonzero z sets z's leading bit, which the
    reduction cleared.  Those reductions form a subspace W, and its least
    nonzero member is the echelon row with the lowest leading bit.
    """
    if y.contains_code(x):
        raise PreconditionError("no codeword outside the other code")
    n = x.n
    # Zassenhaus: among the sums of (m | m) for m in x and (m | 0) for m in
    # y, those with a zero left half carry x & y in their right half.
    sums = _leading_basis([m << n | m for m in x.basis] + [m << n for m in y.basis])
    z = _leading_basis(key(s) << n | s for s in sums if s >> n == 0)
    w = _leading_basis(_reduce(key(m) << n | m, z) for m in x.basis)
    return min(w) & ((1 << n) - 1)


@dataclass(frozen=True)
class DualFormulaAudit:
    """Span of the claimed dual generator versus the exact dual (dual_binary).

    Fields named "brute" describe the exact dual; they share their names
    with the audit record's keys, which stay fixed.
    """

    n: int
    fs: tuple[int, int, int]
    code_size: int
    brute_dual_size: int
    formula_span_size: int
    claimed_dual_size: int
    formula_matches_brute: bool
    witness: Optional[tuple[int, ...]]
    witness_side: str  # "", "only_in_brute", "only_in_formula"
    size_claim_matches: bool  # claimed 2^(sum deg fi) vs exact dual size
    product_law_ok: bool  # |C| * |dual| == 8^n, which rank-nullity ensures
    three_generator_matches_brute: bool  # the <v h1r, (1+v) h2r, (1+v^2) h3r> variant


def audit_dual_formula(n: int, f1: int, f2: int, f3: int,
                       enum_cap: int = DEFAULT_ENUM_CAP) -> DualFormulaAudit:
    """Compare Gray-image bases.

    The side holding the witness is still checked against enum_cap, the
    bound on the codeword walk that used to find the witness, so a run with
    a small cap stops where it always did.
    """
    code = _cyclic_image(n, f1, f2, f3)
    dual = dual_binary(code)
    formula = gray_image_basis(dual_ring_formula(n, f1, f2, f3))
    three_gen = _cyclic_image(n, *_dual_polys(n, f1, f2, f3))

    witness = None
    side = ""
    if formula != dual:
        # The side with codewords outside the other one holds the witness.
        extras, other, side = ((formula, dual, "only_in_formula")
                               if formula.contains_code(dual)
                               else (dual, formula, "only_in_brute"))
        check_enum_cap(extras, enum_cap)
        witness = gray_vec_inverse(_least_outside(extras, other, _ring_order_key(n)), n)

    claimed = 1 << (degree(f1) + degree(f2) + degree(f3))
    return DualFormulaAudit(
        n=n,
        fs=(f1, f2, f3),
        code_size=code.size,
        brute_dual_size=dual.size,
        formula_span_size=formula.size,
        claimed_dual_size=claimed,
        formula_matches_brute=formula == dual,
        witness=witness,
        witness_side=side,
        size_claim_matches=claimed == dual.size,
        product_law_ok=code.size * dual.size == 8 ** n,
        three_generator_matches_brute=three_gen == dual,
    )


@dataclass(frozen=True)
class SizeFormulaAudit:
    """Rank-computed code size versus the claimed 2^(3n - sum deg fi)."""

    n: int
    fs: tuple[int, int, int]
    rank_log2: int
    claimed_log2: int
    matches: bool


def audit_size_formula(n: int, f1: int, f2: int, f3: int) -> SizeFormulaAudit:
    dim = _cyclic_image(n, f1, f2, f3).dim
    claimed = 3 * n - (degree(f1) + degree(f2) + degree(f3))
    return SizeFormulaAudit(n=n, fs=(f1, f2, f3), rank_log2=dim,
                            claimed_log2=claimed, matches=dim == claimed)


@dataclass(frozen=True)
class SingleGeneratorAudit:
    """Span of the combined generator v*f1 + (1+v)*f2 + (1+v^2)*f3 versus
    the three-generator cyclic code (a uniqueness claim under audit)."""

    n: int
    fs: tuple[int, int, int]
    code_log2: int
    single_log2: int
    equal: bool
    witness: Optional[tuple[int, ...]]  # generated by three gens, missed by one


def audit_single_generator(n: int, f1: int, f2: int, f3: int) -> SingleGeneratorAudit:
    code_basis = _cyclic_image(n, f1, f2, f3)
    single = RingCode(n, (combined_generator(n, f1, f2, f3),), cyclic=True)
    single_basis = gray_image_basis(single)
    equal = code_basis == single_basis
    witness = None
    if not equal:
        # Basis rows are comparable directly; pick one outside the other span.
        for row in code_basis.basis:
            if not single_basis.contains(row):
                witness = gray_vec_inverse(row, n)
                break
        else:
            for row in single_basis.basis:
                if not code_basis.contains(row):
                    witness = gray_vec_inverse(row, n)
                    break
    return SingleGeneratorAudit(
        n=n,
        fs=(f1, f2, f3),
        code_log2=code_basis.dim,
        single_log2=single_basis.dim,
        equal=equal,
        witness=witness,
    )
