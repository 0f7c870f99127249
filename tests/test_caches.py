"""Memoised layers: every cache is bounded, a warm search returns what a cold
one does, and a failed call is never cached."""

import re
from pathlib import Path

import pytest

import vcubed
from vcubed import cli, codes, gf2poly, quantum, reference, ring
from vcubed.codes import BinaryCode, binary_cyclic, min_hamming
from vcubed.errors import CapExceeded, PreconditionError
from vcubed.gf2poly import parse_poly
from vcubed.quantum import css_from_triple, dual_containing_poly, search_triples

P = parse_poly
MODULES = (cli, codes, gf2poly, quantum, reference, ring)

# The memo tiers of a search: per divisor, per pair of divisors, per
# generator, per part of a generator and per code key.
TIERS = ("vcubed.gf2poly.divides_xn1", "vcubed.quantum.dual_containing_poly",
         "vcubed.quantum._component_distance", "vcubed.gf2poly.poly_gcd",
         "vcubed.codes._generator_span", "vcubed.codes._part_span",
         "vcubed.codes._key_image")


def _caches():
    """Every lru_cache defined at the top level of a vcubed module, by name."""
    return {
        f"{mod.__name__}.{name}": obj
        for mod in MODULES
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__
    }


def _clear_caches():
    for fn in _caches().values():
        fn.cache_clear()


def test_every_cache_is_bounded():
    caches = _caches()
    decorated = sum(
        len(re.findall(r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b", path.read_text(), re.M))
        for path in Path(vcubed.__file__).parent.glob("*.py")
    )
    assert len(caches) == decorated
    # a new memo tier is a visible edit of this count
    assert len(caches) == 13
    assert set(TIERS) <= set(caches)
    unbounded = {name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None}
    assert unbounded == set()


@pytest.mark.parametrize("n, equal_only", [(7, False), (8, False), (15, True), (21, True)])
def test_warm_search_matches_cold_search(n, equal_only):
    _clear_caches()
    cold = search_triples(n, equal_triples_only=equal_only)
    misses = {name: _caches()[name].cache_info().misses for name in TIERS}
    warm = search_triples(n, equal_triples_only=equal_only)
    assert warm == cold
    # the second run is served from the tiers without a new miss
    assert {name: _caches()[name].cache_info().misses for name in TIERS} == misses


@pytest.mark.parametrize("n, triples, keys", [(8, 125, 45), (21, 729, 121)])
def test_search_builds_one_image_per_code_key(monkeypatch, n, triples, keys):
    _clear_caches()
    key = codes.code_key
    keyed = []

    def counted(*args):
        keyed.append(args)
        return key(*args)

    # quantum imports code_key by name; the audits look it up in codes
    monkeypatch.setattr(codes, "code_key", counted)
    monkeypatch.setattr(quantum, "code_key", counted)
    assert search_triples(n).admissible == triples
    # one code key per triple, whose rank is read off the key's image: the
    # per-triple tier (_single_image) serves the audits only
    assert len(keyed) == triples
    assert codes._single_image.cache_info().misses == 0
    assert codes._key_image.cache_info().misses == keys
    # containment comes from the key, and the package takes no null space
    assert not hasattr(codes, "dual_binary")


def test_warm_audit_matches_cold_audit(capsys):
    _clear_caches()
    argv = ["audit", "--n-max", "4", "--format", "records"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    tiers = (codes.audit_decomposition_image, codes._key_image, codes._single_image,
             codes._part_span, codes._ring_order_rows, codes._dual_poly)
    misses = [fn.cache_info().misses for fn in tiers]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cold
    # the second run audits every image and builds every triple from the cache
    assert [fn.cache_info().misses for fn in tiers] == misses


def test_records_that_share_cached_fields_print_the_same_twice(capsys):
    # a record that changed a cached _poly_fields dict would change the
    # second run's bytes
    argvs = [[*argv, "--format", fmt]
             for argv in (["search", "--n", "8"], ["factor", "--n", "15"])
             for fmt in ("table", "records")]
    _clear_caches()
    runs = []
    for _ in range(2):
        for argv in argvs:
            assert cli.main(argv) == 0
            runs.append(capsys.readouterr().out)
    assert runs[:4] == runs[4:]
    # the 375 fields of the 125 admissible triples at n = 8 name 5 divisors,
    # and x^15+1 has 4 factors besides x+1: every other field was shared
    assert cli._poly_fields.cache_info().misses == 5 + 4


def test_audit_builds_each_single_generator_image_once(monkeypatch, capsys):
    _clear_caches()
    build = codes.gray_image_basis
    built = []

    def counted(code):
        built.append(code)
        return build(code)

    monkeypatch.setattr(codes, "gray_image_basis", counted)
    assert cli.main(["audit", "--n-max", "4", "--format", "records"]) == 0
    capsys.readouterr()
    # h* is an involution on divisor triples, so the dual-formula audit of T
    # reads the image that the single-generator audit of hs(T) built
    info = codes._single_image.cache_info()
    assert (info.misses, info.hits) == (224, 224)
    # 8 catalog codes and 122 keys: the 88 code keys and the 34 dual keys
    # (_dual_key) that are the code key of no divisor triple; the
    # single-generator images are spanned straight from their Gray masks,
    # not through gray_image_basis
    assert len(built) == 130
    # every span of one generator is two part spans: the 448 parts of the
    # 224 single images, (f2+f3 | 0 | 0) and (0 | f1+f2 | f2), are 74 masks,
    # and the 82 parts of the 41 generator spans of key and catalog images
    # (_generator_span) add 9 more
    assert codes._generator_span.cache_info().misses == 41
    info = codes._part_span.cache_info()
    assert (info.misses, info.hits) == (83, 447)
    # one ring-order elimination per code that holds a witness: of the 297
    # witnesses, 183 are read off a code eliminated before (81 claimed
    # duals, 63 exact duals and 39 reconstructions equal to an earlier one)
    info = codes._ring_order_rows.cache_info()
    assert (info.misses, info.hits) == (114, 183)
    # h* once for each of the 14 divisors of x^n - 1, n <= 4
    assert codes._dual_poly.cache_info().misses == 14


def test_audit_runs_each_triple_in_one_pass(monkeypatch, capsys):
    _clear_caches()
    key = codes.code_key
    keyed = []

    def counted(*args):
        keyed.append(args)
        return key(*args)

    fmt = gf2poly.format_poly
    texts = []

    def formatted(p):
        texts.append(p)
        return fmt(p)

    monkeypatch.setattr(codes, "code_key", counted)
    # cli imports format_poly by name; an error message looks it up in gf2poly
    monkeypatch.setattr(cli, "format_poly", formatted)
    monkeypatch.setattr(gf2poly, "format_poly", formatted)
    assert cli.main(["audit", "--n-max", "4", "--format", "records"]) == 0
    capsys.readouterr()
    # one code key per triple, and one per h* triple for the three-generator
    # variant of the dual formula, over the 224 divisor triples at n <= 4
    assert len(keyed) == 2 * 224
    # the audits build no per-triple image of the three generators: each
    # triple reads its key's image once, and its exact dual once
    assert not hasattr(codes, "cyclic_image")
    info = codes._key_image.cache_info()
    assert (info.misses, info.hits + info.misses) == (122, 2 * 224)
    # each divisor's text is built once per length: the 14 divisors of
    # x^n - 1, n <= 4, which are 7 polynomials
    assert (len(texts), len(set(texts))) == (14, 7)


def _messages(bad):
    """The error text of each layer that checks that a polynomial divides x^8+1."""
    calls = (
        lambda: css_from_triple(8, bad, 1, 1),
        lambda: css_from_triple(8, 1, 1, bad),
        lambda: dual_containing_poly(8, bad),
        lambda: codes.audit_triple(8, 1, bad, 1),
        lambda: codes.audit_triple(8, 1, 1, bad),
        lambda: binary_cyclic(8, bad),
        lambda: codes._dual_polys(8, 1, 1, bad),
    )
    out = []
    for call in calls:
        with pytest.raises(PreconditionError) as info:
            call()
        out.append(str(info.value))
    return out


@pytest.mark.parametrize("bad, text", [(P("x^2+x+1"), "x^2+x+1"), (0, "0")])
def test_errors_are_never_cached(bad, text):
    _clear_caches()
    before = _messages(bad)
    assert before == [f"f1 = {text} does not divide x^8+1",
                      f"f3 = {text} does not divide x^8+1",
                      f"{text} does not divide x^8+1",
                      f"f2 = {text} does not divide x^8+1",
                      f"f3 = {text} does not divide x^8+1",
                      f"{text} does not divide x^8+1",
                      f"{text} does not divide x^8+1"]
    good = P("x^3+x^2+x+1")
    assert dual_containing_poly(8, good)
    css_from_triple(8, good, good, good)
    assert _messages(bad) == before


def test_min_hamming_errors_are_never_cached():
    code = BinaryCode.from_rows(6, [0b000111, 0b111000])
    zero = BinaryCode(6, ())
    for _ in range(2):
        with pytest.raises(CapExceeded, match=r"2\^2 codewords exceed distance cap 2"):
            min_hamming(code, 2)
        with pytest.raises(PreconditionError, match="zero code"):
            min_hamming(zero)
        assert min_hamming(code, 4) == 3


def test_gcd_errors_are_never_cached():
    gf2poly.poly_gcd.cache_clear()
    for _ in range(2):
        with pytest.raises(PreconditionError, match=r"gcd\(0, 0\) is undefined"):
            gf2poly.poly_gcd(0, 0)
    assert gf2poly.poly_gcd.cache_info().currsize == 0
    assert gf2poly.poly_gcd(0, P("x+1")) == P("x+1")
