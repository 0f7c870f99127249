"""Linear and cyclic codes over the ring and over GF(2).

Binary codes are row spaces of int bitmasks in reduced row echelon form with
ascending pivots, so two BinaryCode values are equal exactly when they are
the same subspace.  Ring codes are generator lists.  The Gray map is an
additive, weight-preserving bijection onto 3n-bit vectors, so a ring code is
handled through the Gray masks of its image: every size and rank here is a
plain GF(2) rank, and every Lee weight a popcount.

Every rank, span and witness goes through one elimination (_reduced, which
rref returns in full).  It passes each row once over a pivot table, a dict
from each stored row's lowest set bit to the row, and then back-substitutes
once from the highest pivot down.  The cyclic shift of a Gray image
rotates each n-bit third (A|B|C) of its mask by one position, and the Gray
masks of v*g and v^2*g are (0|C|B) and (0|B|C), so a cyclic span is built
on the thirds alone (_part_span).

The idempotents e1 = 1+v^2 and e2 = v^2 split R as e1*R + e2*R (Abualrub
and Siap, Des. Codes Cryptogr. 2007), and every image is built through
that split.  With x = a + v*b + v^2*c, so that its Gray mask
is (A|B|C) = (a|b|a+c), e2*x = v*b + v^2*(a+c) and e1*x = x + e2*x =
a + v^2*a have the Gray masks (0|B|C) and (A|0|0).  An R-submodule holds
e1*x and e2*x with each x, and x = e1*x + e2*x, so its Gray image is the
direct sum of its first third and its last two thirds, and v maps the
second part into itself, taking (0|B|C) to (0|C|B).  The canonical basis
of the image is therefore the basis of the first part followed by the
basis of the second: every span of one generator is two part spans
(_mask_span), and the projections are read off the basis with no
elimination (_image_projections).

A search meets the same generators and the same Gray images many times
over, so the work is memoised where it repeats, in bounded lru_caches;
each cached function says what it is cached per and why.  rref is
canonical, so a cached result is the same basis a fresh one would be.

The exact dual that the audits compare against is the binary dual of the
Gray image, which is the Gray image of the ring dual: the v^2-coefficient
of <x, y> is the dot product of the Gray masks of x and y, and R is a
Frobenius ring.  It is read off the code key, as the image of the dual key
(_dual_key): the binary dual of <g> is <h*>, h = (x^n - 1)/g (MacWilliams
and Sloane, ch. 7), so no null space is taken.

The decomposition, size-formula, single-generator and dual-formula routines
are audits: they compare a claimed identity against exact computation and
report a witness when the claim fails, never assuming it.  The four audits
of a divisor triple run as one pass (audit_triple), which builds the code
key, its image, the h* triple, the dual key and the claimed dimension once
and hands them to each audit.  Every set they compare is a GF(2)
subspace, so the audits are rank algebra on bases: sizes are ranks, equality
and containment are basis comparisons, and each witness, the least member
of one subspace outside another, is read off the elimination of the first
subspace (_mirrored_rows) without walking a single codeword.  Each mask
rides above its order key, so that the key's lowest bit is the pivot; the
witness is the first row, as _reduced yields them, that the other subspace
does not contain (_least_outside).  A witness that is least as a ring
tuple takes its key from ring (tuple_order_key), the packing that
gray_vec_inverse prints it with.  The tensor witness is read off the
family (0|0|C3) alone (audit_decomposition_image).
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import combinations
from operator import xor
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import CapExceeded, PreconditionError
from .gf2poly import (
    degree, poly_divmod, poly_gcd, reciprocal, require_divisor, xn1,
)
from .ring import gray_vec, gray_vec_inverse, tuple_order_key

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_DIST_CAP = 1 << 20


def rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis, pivoting on the lowest column index first.

    The result is canonical for the row space: rows are nonzero, each has a
    distinct lowest set bit (its pivot), pivots ascend, and no row has a bit
    in another row's pivot column.
    """
    return tuple(_reduced(rows))[::-1]


def _reduced(rows: Iterable[int]) -> Iterator[int]:
    """The rows of rref(rows), highest pivot first, each yielded as soon as
    it is reduced.

    Rows go into a pivot table, keyed by each stored row's lowest set bit.
    An incoming row is XORed with the stored row at its lowest bit until
    that bit is new to the table (the row is stored) or the row is zero.
    One back-substitution pass, from the highest pivot down, then clears
    from each row the pivot columns of the rows with higher pivots; those
    rows are already reduced, so one XOR per such column suffices.
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
    higher = 0  # the pivot bits above the current one
    for piv in sorted(table, reverse=True):
        row = table[piv]
        hits = row & higher
        while hits:
            low = hits & -hits
            row ^= table[low]
            hits ^= low
        table[piv] = row
        higher |= piv
        yield row


class BinaryCode(NamedTuple):
    """A binary linear code as its canonical RREF basis."""

    n: int
    basis: tuple[int, ...]

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int]) -> "BinaryCode":
        return cls(n, rref(rows))

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


def binary_cyclic(n: int, g: int) -> BinaryCode:
    """Cyclic code of length n generated by g, which must divide x^n - 1."""
    require_divisor(n, g)
    rows = [g << i for i in range(n - degree(g))]
    return BinaryCode.from_rows(n, rows)


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


class RingCode(NamedTuple):
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
    """Canonical basis of the Gray image of the submodule one generator
    spans, once per (n, generator, cyclic): a search meets the same
    generators for many triples."""
    return _mask_span(gray_vec(gen), n, cyclic)


def _mask_span(mask: int, n: int, cyclic: bool) -> tuple[int, ...]:
    """Canonical basis of the Gray image of the submodule that the vector
    with Gray mask ``mask`` spans (and every shift of it, when cyclic).

    For the vector g with Gray mask (A|B|C), that submodule is the sum of
    the submodules that e1*g and e2*g span, with the Gray masks (A|0|0) and
    (0|B|C) (the split in the module docstring), and their images lie on
    disjoint thirds.  So the canonical
    basis is the span of the first part followed by the span of the
    second, each read from _part_span, which many generators share.
    """
    first = mask & ((1 << n) - 1)
    return _part_span(first, n, cyclic) + _part_span(mask ^ first, n, cyclic)


@lru_cache(maxsize=1024)
def _part_span(mask: int, n: int, cyclic: bool) -> tuple[int, ...]:
    """Canonical basis of the Gray image of the submodule that one part of
    a generator (_mask_span), with Gray mask ``mask``, spans; built once per
    part, since single generators and the generators of key and catalog
    images share their parts.

    Over R that submodule is the GF(2) span of {u*g : u in {1, v, v^2}} for
    the generator g (and every shift of it, when cyclic).  All of these are
    taken on Gray masks, split once into thirds (A|B|C): with g = a + v*b +
    v^2*c, so that (A|B|C) = (a|b|a+c), v*g = v*(a+c) + v^2*b and v^2*g =
    v*b + v^2*(a+c) have the Gray masks (0|C|B) and (0|B|C), and the cyclic
    shift rotates each third by one position, its top bit to bit 0.
    """
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


def code_key(n: int, f1: int, f2: int, f3: int) -> tuple[int, int, int]:
    """The code key (g_a, g_u, g_v) = (gcd(f2, f3), gcd(f1, f2), f1) of a
    divisor triple; a PreconditionError names the first fi that does not
    divide x^n - 1.

    Write x = a + v b + v^2 c, so its Gray image is (a | b | a+c).  The
    idempotents 1+v^2 and v^2 split R as F2 x F2[w]/(w^2) with w = v+v^2:
    1+v^2 takes v f1, (1+v) f2 and (1+v^2) f3 to 0, (1+v^2) f2 and
    (1+v^2) f3, and v^2 takes them to (v^2+w) f1, w f2 and 0.  A sum of
    cyclic ideals is the ideal of the gcd (Bonnecaze and Udaya, IEEE Trans.
    IT 1999; Abualrub and Siap, Des. Codes Cryptogr. 2007), so the code is
    generated by (1+v^2) g_a, w g_u and v^2 g_v, and its Gray image is
    {(a | u | u+y) : a in C_A, u in C_u, y in C_v} with C_A = <g_a>,
    C_u = <g_u> and C_v = <g_v>: C_A on the first third and the Plotkin
    code (u | u+y) on the other two.  So the code depends on its key alone.
    """
    for label, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        require_divisor(n, f, label)
    return poly_gcd(f2, f3), poly_gcd(f1, f2), f1


@lru_cache(maxsize=1024)
def _key_image(n: int, g_a: int, g_u: int, g_v: int) -> BinaryCode:
    """Gray image of the key (g_a, g_u, g_v), built by the rank path once
    per key: the image of every divisor triple with that code key, and the
    exact dual of every image whose dual key (_dual_key) it is.

    The key's own generators (1+v^2) g_a, (v+v^2) g_u and v^2 g_v generate
    the code (code_key); their Gray masks are (g_a|0|0), (0|g_u|g_u) and
    (0|0|g_v).  Each g must divide x^n - 1, so it is reduced mod x^n - 1
    already unless it is x^n - 1 itself, which contributes the zero vector.
    """
    modulus = xn1(n)
    g_a, g_u, g_v = (0 if g == modulus else g for g in (g_a, g_u, g_v))
    masks = (g_a, g_u << n | g_u << (2 * n), g_v << (2 * n))
    # The hop through ring vectors waits on ROADMAP items 1 and 8: the
    # benchmark asserts that a search calls gray_vec_inverse.
    return gray_image_basis(RingCode(n, tuple(gray_vec_inverse(m, n) for m in masks), cyclic=True))


def _combination_mask(a: int, b: int, c: int, n: int) -> int:
    """Gray mask of v*a + (1+v)*b + (1+v^2)*c for n-bit binary vectors a, b, c.

    Its ring coordinates are (b+c) + v*(a+b) + v^2*c, so the mask is
    (b+c | a+b | b).
    """
    return (b ^ c) | (a ^ b) << n | b << (2 * n)


@lru_cache(maxsize=1024)
def _single_image(n: int, f1: int, f2: int, f3: int) -> BinaryCode:
    """Gray image of the cyclic code that the one generator
    v*f1 + (1+v)*f2 + (1+v^2)*f3 spans, built once per triple from the
    generator's Gray mask (_combination_mask), (f2+f3 | f1+f2 | f2), with
    no ring vector in between.  Each fi must divide x^n - 1, so it is
    reduced mod x^n - 1 already unless it is x^n - 1 itself, which enters
    as 0.

    It is the one per-triple image of an audit (audit_triple): the
    single-generator audit of a triple T and the dual-formula audit of the
    triple whose dual polynomials (_dual_polys) are T both read it, and h*
    is an involution on the divisors of x^n - 1, so every divisor triple is
    asked for twice by an audit of all of them.

    It spans the mask rather than reading a key, because no key in closed
    form is known for it: the naive one, (gcd(f2+f3, x^n - 1),
    gcd(f1, f2 (x^n - 1)/f1), f1), gives the span at every odd n <= 9 but
    not at even n, where a module over F2[w]/(w^2) is not fixed by its
    residue and torsion ideals.
    """
    modulus = xn1(n)
    mask = _combination_mask(*(0 if f == modulus else f for f in (f1, f2, f3)), n)
    return BinaryCode(3 * n, _mask_span(mask, n, cyclic=True))


def _dual_polys(n: int, f1: int, f2: int, f3: int) -> tuple[int, ...]:
    """(h1*, h2*, h3*): the reciprocals of hi = (x^n - 1)/fi."""
    return tuple(_dual_poly(n, f) for f in (f1, f2, f3))


def _dual_key(n: int, g_a: int, g_u: int, g_v: int) -> tuple[int, int, int]:
    """The key (h_a*, h_v*, h_u*) whose image is the binary dual of the
    image of the key (g_a, g_u, g_v), for divisors g_u | g_v of x^n - 1.

    The image is {(a | u | u+y) : a in C_A, u in C_u, y in C_v} (code_key),
    and (p | q | r) . (a | u | u+y) = p.a + (q+r).u + r.y, so (p | q | r)
    is orthogonal to the image exactly when p is in C_A^perp, r in C_v^perp
    and q + r in C_u^perp.  So the dual is {(p | b+c | b) : b in C_v^perp,
    c in C_u^perp}.  C_v lies in C_u, so C_u^perp lies in C_v^perp, and
    u = b+c, y = c range over C_v^perp and C_u^perp independently: the dual
    is the image of the key (h_a*, h_v*, h_u*), since <g>^perp = <h*>
    (MacWilliams and Sloane, ch. 7).  h_v* divides h_u*, so the dual key
    again has g_u | g_v, and h* is an involution, so _dual_key is too.
    """
    return _dual_poly(n, g_a), _dual_poly(n, g_v), _dual_poly(n, g_u)


@lru_cache(maxsize=1024)
def _dual_poly(n: int, f: int) -> int:
    """h* = reciprocal((x^n - 1)/f), computed once per divisor f of x^n - 1;
    a PreconditionError, which is never cached, names an f that does not
    divide."""
    require_divisor(n, f)
    return reciprocal(poly_divmod(xn1(n), f)[0])


def _image_projections(image: BinaryCode) -> tuple[BinaryCode, BinaryCode]:
    """The projections C1 and C2 of a Gray image onto its first and second
    thirds, as codes of length n, read off its canonical basis with no
    elimination.

    ``image`` must be the Gray image of an R-linear code (every caller
    passes one: a cyclic code's image, or a catalog code's).  Its basis is
    then the basis of its first third followed by the basis of its last two
    thirds (the split in the module docstring).  So C1 is the rows with
    their pivot in the first third, which lie wholly in it.  C2 is the
    middle thirds of the rows with their pivot in the middle third: every
    other row is 0 there, and these middle thirds keep the rows' distinct
    pivots and cleared pivot columns, so they are canonical.  v maps
    (0|B|C) to (0|C|B) inside the image, so the last third's projection C3
    is C2.
    """
    n = image.n // 3
    thirds = [_thirds(mask, n) for mask in image.basis]
    c1 = BinaryCode(n, tuple(a for a, _, _ in thirds if a))
    c2 = BinaryCode(n, tuple(b for a, b, _ in thirds if b and not a))
    return c1, c2


# ---------------------------------------------------------------------------
# Audits.  Each one tests a structural claim against exact computation and
# carries a witness when the claim fails.
# ---------------------------------------------------------------------------


class DecompositionAudit(NamedTuple):
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


@lru_cache(maxsize=1024)
def audit_decomposition_image(image: BinaryCode) -> DecompositionAudit:
    """The decomposition audit of a code, given its Gray image, by rank algebra.

    Many triples share one image, and the audit depends on the image alone,
    so it runs once per distinct image; BinaryCode is immutable.

    C1 x C2 x C3 is the direct sum of the three projections and always holds
    the image, so the tensor claim is a rank question.  Its witness, the
    first word of product(sorted(C1), sorted(C2), sorted(C3)) outside the
    image, lies in the family (0|0|C3), the only one eliminated.  The image
    is its first part C1 x 0 x 0 plus a part P inside (0|C2|C3) (the split
    in the module docstring); let K = {y : (0|0|y) in the image}.  If
    K = C3, then P holds (0|b|y) + (0|0|C3) = (0|b|C3) for each b in C2, so
    P = C2 x C3 and the claim holds.  Otherwise let c be the least member
    of C3 \\ K: the words before (0|0|c) in that order are the (0|0|y) with
    y in C3 below c, all in K, so (0|0|c) is the witness.  For a key
    image, C3 = <g_u> and K = <g_v> (code_key), and g_u is the least
    nonzero member of <g_u>, so the witness is v^2*g_u.

    The reconstruction map (a, b, c) -> v*a + (1+v)*b + (1+v^2)*c is
    linear, so its set is the span of the images of the projections' basis
    rows.
    """
    n = image.n // 3
    c1, c2 = _image_projections(image)  # C3 = C2
    product_size = c1.size * c2.size * c2.size

    tensor_equal = image.size == product_size
    tensor_witness = None
    if not tensor_equal:
        last = BinaryCode(image.n, tuple(c << (2 * n) for c in c2.basis))  # (0|0|C3)
        tensor_witness = gray_vec_inverse(
            _least_outside(_mirrored_rows(last, _product_order_key(n)), image), n
        )

    recon = BinaryCode.from_rows(image.n, [
        *(_combination_mask(a, 0, 0, n) for a in c1.basis),
        *(_combination_mask(0, b, 0, n) for b in c2.basis),
        *(_combination_mask(0, 0, c, n) for c in c2.basis),
    ])
    reconstruction_equal = recon == image
    witness, side = _ring_witness(image, "only_in_code", recon, "only_in_reconstruction")

    return DecompositionAudit(
        n=n,
        code_size=image.size,
        projection_sizes=(c1.size, c2.size, c2.size),
        product_size=product_size,
        tensor_equal=tensor_equal,
        tensor_witness=tensor_witness,
        reconstruction_equal=reconstruction_equal,
        reconstruction_witness=witness,
        reconstruction_witness_side=side,
    )


def _product_order_key(n: int) -> Callable[[int], int]:
    """The order of product(sorted(C1), sorted(C2), sorted(C3)) on masks,
    as the mirrored order of a key (_least_outside): (A|B|C) compares as
    the integer A<<2n | B<<n | C, so the key is that integer's 3n bits
    reversed, which is the mask with each third reversed in place.  The
    tensor audit orders only (0|0|C3) words by it, which compare as their
    last thirds."""
    def key(mask: int) -> int:
        a, b, c = _thirds(mask, n)
        return int(f"{a << (2 * n) | b << n | c:0{3 * n}b}"[::-1], 2)
    return key


def _ring_witness(x: BinaryCode, x_side: str, y: BinaryCode,
                  y_side: str) -> tuple[Optional[tuple[int, ...]], str]:
    """The witness that two Gray images differ, as a ring vector, and the
    side that holds it: the least member, in the order of ring tuples, of
    the code with members outside the other, x when x holds y.  (None, "")
    when they are equal."""
    if x == y:
        return None, ""
    extras, other, side = (x, y, x_side) if x.contains_code(y) else (y, x, y_side)
    return gray_vec_inverse(_least_outside(_ring_order_rows(extras), other), x.n // 3), side


@lru_cache(maxsize=1024)
def _ring_order_rows(x: BinaryCode) -> tuple[int, ...]:
    """_mirrored_rows of x in the order of ring tuples, eliminated once per
    code: the codes that hold the audits' witnesses recur across triples
    (an exact dual, a claimed dual, a reconstruction)."""
    return tuple(_mirrored_rows(x, partial(tuple_order_key, n=x.n // 3)))


def _mirrored_rows(x: BinaryCode, key: Callable[[int], int]) -> Iterator[int]:
    """A basis of x reduced in the mirrored order of key(mask), least row
    first: of two keys, the one with a 0 at the lowest bit where they
    differ is less.

    key must be linear and one-to-one, so a mask m travels as m << w |
    key(m), with w the width of the widest key of a basis row, and sums act
    on both halves at once; no sum of keys is wider, so each row's pivot,
    its lowest set bit, lies in the key half.  In the mirrored order a row
    with a higher pivot is less, and rref reduces each row by exactly the
    rows with higher pivots, which _reduced yields first.  Each reduced
    row is the least member of its coset of the span of the rows before
    it: adding any nonzero sum of those rows sets that sum's lowest bit, a
    pivot column that the reduction cleared, and leaves every bit below
    it.  The rows do not depend on the basis of x they start from.
    """
    keys = [key(m) for m in x.basis]
    w = max(keys, default=0).bit_length()
    return (row >> w for row in _reduced(m << w | k for m, k in zip(x.basis, keys)))


def _least_outside(rows: Iterable[int], y: BinaryCode) -> int:
    """The least mask of x outside y in the mirrored order of a key, given
    the rows of x as _mirrored_rows yields them for that key.

    It is the first row that y rejects.  The rows before it lie in y, so
    the whole coset of that row lies outside y.  Every member of x with a
    higher lowest key bit lies in the span of those rows, which is inside
    y, and every one with a lower lowest key bit is greater.  The row is the
    least member of its coset, so it is the unique least member of x \\ y.
    """
    for row in rows:
        if not y.contains(row):
            return row
    raise PreconditionError("no codeword outside the other code")


class DualFormulaAudit(NamedTuple):
    """Span of the claimed dual generator versus the exact dual (_dual_key).

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
    three_generator_matches_brute: bool  # the <v h1r, (1+v) h2r, (1+v^2) h3r> variant


def audit_dual_formula(n: int, fs: tuple[int, int, int], hs: tuple[int, ...],
                       dual_key: tuple[int, int, int], claimed_log2: int) -> DualFormulaAudit:
    """Compare the claimed dual, the span of the one generator
    v*h1* + (1+v)*h2* + (1+v^2)*h3* (the _single_image of hs, the h* triple
    of fs), with the exact dual, the image of ``dual_key``, the dual key of
    the code key of fs (_dual_key), by their bases.  The claim is under
    audit, not a trusted construction.  ``claimed_log2`` is the code's
    claimed dimension 3n - sum deg fi (audit_size_formula), so the claimed
    dual has 2^(sum deg fi) words.

    The code's own image is not read: |C| * |C^perp| = 8^n, so the code
    has 2^(3n - dim) words, where dim is the dual's dimension.  Nor is the
    image of the three-generator variant <v h1*, (1+v) h2*, (1+v^2) h3*>
    built: a key (g_a, g_u, g_v) with g_u | g_v is read back off its image,
    as <g_a> = the first third, <g_u> = the middle third and <g_v> = the
    last thirds of the words (0|0|y), and every code key and dual key is
    such a key, so two images are equal exactly when their keys are.
    """
    dual = _key_image(n, *dual_key)
    formula = _single_image(n, *hs)
    witness, side = _ring_witness(formula, "only_in_formula", dual, "only_in_brute")

    claimed = 1 << (3 * n - claimed_log2)
    return DualFormulaAudit(
        n=n,
        fs=fs,
        code_size=1 << (3 * n - dual.dim),
        brute_dual_size=dual.size,
        formula_span_size=formula.size,
        claimed_dual_size=claimed,
        formula_matches_brute=formula == dual,
        witness=witness,
        witness_side=side,
        size_claim_matches=claimed == dual.size,
        three_generator_matches_brute=code_key(n, *hs) == dual_key,
    )


class SizeFormulaAudit(NamedTuple):
    """Rank-computed code size versus the claimed 2^(3n - sum deg fi)."""

    n: int
    fs: tuple[int, int, int]
    rank_log2: int
    claimed_log2: int
    matches: bool


def audit_size_formula(n: int, fs: tuple[int, int, int], rank: int) -> SizeFormulaAudit:
    """The one place the claimed dimension 3n - sum deg fi is computed, set
    against ``rank``, the dimension of the Gray image of the triple fs: an
    audit (audit_triple) and a search (quantum.css_from_triple) both read
    it off the code key's image (_key_image)."""
    claimed = 3 * n - sum(map(degree, fs))
    return SizeFormulaAudit(n=n, fs=fs, rank_log2=rank,
                            claimed_log2=claimed, matches=rank == claimed)


class SingleGeneratorAudit(NamedTuple):
    """Span of the combined generator v*f1 + (1+v)*f2 + (1+v^2)*f3 versus
    the three-generator cyclic code (a uniqueness claim under audit)."""

    n: int
    fs: tuple[int, int, int]
    code_log2: int
    single_log2: int
    equal: bool
    witness: Optional[tuple[int, ...]]  # generated by three gens, missed by one


def audit_single_generator(n: int, fs: tuple[int, int, int],
                           code: BinaryCode) -> SingleGeneratorAudit:
    """The span of the combined generator of fs (_single_image) against
    ``code``, the Gray image of the triple's three-generator code."""
    single = _single_image(n, *fs)
    equal = code == single
    witness = None
    if not equal:
        # The combined generator is a sum of the code's generators, so the
        # single span lies inside the code and a code row lies outside it.
        witness = gray_vec_inverse(_least_outside(code.basis, single), n)
    return SingleGeneratorAudit(
        n=n,
        fs=fs,
        code_log2=code.dim,
        single_log2=single.dim,
        equal=equal,
        witness=witness,
    )


class TripleAudit(NamedTuple):
    """The four audits of one divisor triple (audit_triple)."""

    decomposition: DecompositionAudit
    size: SizeFormulaAudit
    single_generator: SingleGeneratorAudit
    dual_formula: DualFormulaAudit


def audit_triple(n: int, f1: int, f2: int, f3: int) -> TripleAudit:
    """The four audits of the cyclic code <v f1, (1+v) f2, (1+v^2) f3> of
    length n, in one pass; a PreconditionError names the first fi that does
    not divide x^n - 1 (code_key).

    The pass builds what the audits share once and hands it to each:
    the code key, whose Gray image (_key_image) is the decomposition
    audit's input, the size audit's rank and the single-generator audit's
    code; the h* triple (_dual_polys) and the dual key (_dual_key) of the
    dual-formula audit; and the claimed dimension, which the size audit
    computes and the dual-formula audit reads.  Triples that share a code
    key share one image and one exact dual, and the three claim records
    share one fs tuple.
    """
    fs = (f1, f2, f3)
    key = code_key(n, f1, f2, f3)
    image = _key_image(n, *key)
    size = audit_size_formula(n, fs, image.dim)
    return TripleAudit(
        decomposition=audit_decomposition_image(image),
        size=size,
        single_generator=audit_single_generator(n, fs, image),
        dual_formula=audit_dual_formula(n, fs, _dual_polys(n, f1, f2, f3),
                                        _dual_key(n, *key), size.claimed_log2),
    )
