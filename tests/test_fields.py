import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from triwaring.errors import (
    DegreeMismatchError,
    EnumerationTooLargeError,
    NotPrimeError,
    ReducibleModulusError,
    TriwaringError,
)
from triwaring.fields import (
    DEFAULT_ENUM_GUARD,
    FIELD_CACHE_SIZE,
    PRIME_TEST_BOUND,
    ROOT_MAP_CACHE_SIZE,
    FieldSpec,
    _default_modulus,
    _digits,
    _is_irreducible,
    _make_field_cached,
    _poly_mod,
    enum_guard,
    field_text,
    is_prime,
    kth_root_map,
    kth_roots,
    make_field,
    minus_one_is_kth_power,
    parse_field,
)
from triwaring.claims import lang_weil_check, quotient_zero_report
from triwaring.cli import main
from triwaring.oracle import all_kth_powers, bn_conjugate
from triwaring.tri_matrix import zero
from tests.conftest import PRIME_POWERS_49


def test_make_field_prime():
    F = make_field(7)
    assert F.q == 7 and F.p == 7 and F.m == 1


def test_make_field_extension_default_modulus():
    # x^2 + 1 has no root mod 3, and is the smallest-encoding choice
    F = make_field(3, 2)
    assert F.q == 9
    assert F.modulus == (1, 0, 1)
    for t in range(3):
        assert (t * t + 1) % 3 != 0
    # the largest admitted prime of each degree, by the modulus search
    # alone, with no tables; at (31, 4) every one of the 31^2 monic
    # quadratics is tried on the modulus it accepts
    assert _default_modulus(31, 4) == (1, 1, 0, 0, 1)
    assert _default_modulus(97, 3) == (2, 0, 0, 1)
    assert _default_modulus(997, 2) == (2, 0, 1)


def test_make_field_rejects_composite_characteristic():
    for p in (4, 1, 0):
        with pytest.raises(NotPrimeError):
            make_field(p)


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulusError):
        make_field(3, 2, (0, 0, 1))  # x^2
    with pytest.raises(ReducibleModulusError):
        make_field(5, 2, (4, 0, 1))  # x^2 - 1 = (x-1)(x+1)


def test_make_field_rejects_bad_shapes():
    with pytest.raises(DegreeMismatchError):
        make_field(3, 2, (1, 1))
    with pytest.raises(DegreeMismatchError, match="must be >= 1, got 0"):
        make_field(3, 0)
    with pytest.raises(DegreeMismatchError):
        make_field(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(DegreeMismatchError):
        make_field(2, 5)


@pytest.mark.parametrize("args, error, message", [
    ((2.0,), NotPrimeError, "2.0 is not prime"),
    ((7, 1.0), DegreeMismatchError, "1.0 is not an integer"),
    ((3, 2, (1.0, 0, 1)), DegreeMismatchError, "must be ints"),
], ids=["p", "m", "modulus"])
def test_a_field_of_non_int_arguments_is_refused(args, error, message):
    # once FieldSpec(2.0) built a field of q = 2.0 whose elements() failed
    with pytest.raises(error, match=message):
        FieldSpec(*args)


def test_make_field_of_a_float_misses_the_cached_int_field():
    # the cache is typed: 7.0 once read the entry of F_7 when F_7 was
    # built first, and built a broken field otherwise
    assert make_field(7).q == 7
    with pytest.raises(NotPrimeError, match="7.0 is not prime"):
        make_field(7.0)


def test_make_field_refuses_huge_extension_fields():
    # the first refused prime of each degree, 37^4 = 1,874,161,
    # 101^3 = 1,030,301 and 1009^2 = 1,018,081 elements, and 47^4: refused
    # before any modulus search or table build
    start = time.perf_counter()
    for p, m in ((37, 4), (47, 4), (101, 3), (1009, 2)):
        with pytest.raises(EnumerationTooLargeError, match=str(p ** m)):
            make_field(p, m)
    assert time.perf_counter() - start < 1.0


def conjugacy(p, n):
    F = make_field(p)
    return bn_conjugate, F, zero(F, n), zero(F, n)


# Every guarded call, as (name, inputs -> call, work) on a small input,
# then on the first input the default budget refuses. The unit of each is
# the steps it takes: matrices walked by the image, m q |K| fold steps
# weighted by 1 + m bit_length(q) // 8192 for the bits of their sums,
# q^2 k quotient steps, w^3 + w (q-1)^n + 3 q^2 (n >= 2, w = n(n+1)/2)
# for conjugacy, and the q elements a root map walks.
GUARDED = [
    ("image",
     lambda: (all_kth_powers, make_field(3), 2, 2), 27,
     lambda: (all_kth_powers, make_field(467), 2, 2), 467 ** 3),
    ("fold",
     lambda: (lang_weil_check, make_field(13), 2, 2, (1, 1)), 182,
     lambda: (lang_weil_check, make_field(7079), 1, 2, (1, 1)),
     2 * 7079 ** 2),
    ("fold, big integers",
     lambda: (lang_weil_check, make_field(7), 2, 2731, [1] * 2731), 152_936,
     lambda: (lang_weil_check, make_field(31), 1, 14_000, [1] * 14_000),
     121_086_000),
    ("quotient report",
     lambda: (quotient_zero_report, make_field(7), 2), 98,
     lambda: (quotient_zero_report, make_field(7), 2_040_817),
     49 * 2_040_817),
    ("conjugacy",
     lambda: conjugacy(7, 2), 282,
     lambda: conjugacy(2, 30), 100_545_102),
    ("root map",
     lambda: (kth_root_map, make_field(101), 2), 101,
     lambda: (kth_root_map, make_field(100_000_007), 2), 100_000_007),
]


@pytest.mark.parametrize("small, work", [(g[1], g[2]) for g in GUARDED],
                         ids=[g[0] for g in GUARDED])
def test_each_guard_counts_the_steps_of_its_call(monkeypatch, small, work):
    # a cached root map is not asked again, so each call starts cold
    fn, *args = small()
    monkeypatch.setenv("WARING_MAX_ENUM", str(work - 1))
    kth_root_map.cache_clear()
    with pytest.raises(EnumerationTooLargeError,
                       match=f"^enumeration of size {work} exceeds guard "
                             f"{work - 1}$"):
        fn(*args)
    monkeypatch.setenv("WARING_MAX_ENUM", str(work))
    kth_root_map.cache_clear()
    fn(*args)


@pytest.mark.parametrize("first, work", [(g[3], g[4]) for g in GUARDED],
                         ids=[g[0] for g in GUARDED])
def test_first_refused_input_refuses_fast(monkeypatch, first, work):
    monkeypatch.delenv("WARING_MAX_ENUM", raising=False)
    assert work > DEFAULT_ENUM_GUARD
    fn, *args = first()
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLargeError,
                       match=f"^enumeration of size {work} exceeds guard "
                             f"{DEFAULT_ENUM_GUARD}$"):
        fn(*args)
    assert time.perf_counter() - start < 0.01


def test_guard_writes_a_power_far_past_the_budget_unformed(monkeypatch):
    # a power is formed unless its log2 passes the budget's bit length by
    # more than 64; past that its size is written as base^exponent
    monkeypatch.setenv("WARING_MAX_ENUM", "1")
    with pytest.raises(EnumerationTooLargeError,
                       match=f"^enumeration of size {2 ** 65} exceeds guard 1$"):
        enum_guard(2, 65)
    with pytest.raises(EnumerationTooLargeError,
                       match=r"^enumeration of size 2\^66 exceeds guard 1$"):
        enum_guard(2, 66)
    enum_guard(1, 10 ** 12)
    enum_guard(0, 10 ** 12)
    monkeypatch.setenv("WARING_MAX_ENUM", str(3 ** 200))
    enum_guard(3, 200)
    with pytest.raises(EnumerationTooLargeError,
                       match=f"^enumeration of size {3 ** 201} exceeds"):
        enum_guard(3, 201)


def test_guard_writes_a_size_past_the_digit_limit_by_its_bit_length(
        monkeypatch, digit_limit_640):
    # a size whose base has more digits than the interpreter prints is
    # written as 2^b or more, b = exponent * (bit length of the base - 1):
    # at the refusal after the power is formed, and at the one before
    budget = 10 ** 639  # 640 digits, the most the lowered limit prints
    monkeypatch.setenv("WARING_MAX_ENUM", str(budget))
    with pytest.raises(EnumerationTooLargeError,
                       match=rf"^enumeration of size 2\^2142 or more "
                             rf"exceeds guard {budget}$"):
        enum_guard(10 ** 645)
    monkeypatch.delenv("WARING_MAX_ENUM")
    with pytest.raises(EnumerationTooLargeError,
                       match=r"^enumeration of size 2\^4284 or more "
                             r"exceeds guard 100000000$"):
        enum_guard(10 ** 645, 2)


def test_root_map_guard_is_asked_once_per_build(monkeypatch):
    F = make_field(101)
    kth_root_map.cache_clear()
    built = kth_root_map(F, 3)
    monkeypatch.setenv("WARING_MAX_ENUM", "100")
    assert kth_root_map(F, 3) is built  # warm: the guard is not asked
    with pytest.raises(EnumerationTooLargeError, match="size 101"):
        kth_root_map(F, 5)
    # a value that is not an integer fails closed where a map is built
    monkeypatch.setenv("WARING_MAX_ENUM", "1e6")
    with pytest.raises(EnumerationTooLargeError, match="WARING_MAX_ENUM"):
        kth_root_map(F, 5)


def is_prime_reference(n):
    """Trial division, the primality test make_field once ran."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def strong_probable_prime(n, b):
    """Does odd n > b pass the Miller-Rabin round to the base b?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(b, d, n)
    return x in (1, n - 1) or any(
        pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_is_prime_matches_trial_division():
    assert [n for n in range(2 * 10 ** 5) if is_prime(n)] == \
        [n for n in range(2 * 10 ** 5) if is_prime_reference(n)]


def test_is_prime_refuses_strong_pseudoprimes():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    # each passes every base before the listed one, which catches it
    for n, catcher in ((2047, 3), (3215031751, 11),
                       (3825123056546413051, 37),
                       (318665857834031151167461, 41)):
        before = bases[:bases.index(catcher)]
        assert all(strong_probable_prime(n, b) for b in before), n
        assert not strong_probable_prime(n, catcher), n
        assert not is_prime(n), n
    # the bound passes all 13 bases and is composite: a base outside the
    # set catches it
    assert all(strong_probable_prime(PRIME_TEST_BOUND, b) for b in bases)
    assert not strong_probable_prime(PRIME_TEST_BOUND, 43)
    with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
        is_prime(PRIME_TEST_BOUND)


def test_is_prime_decides_large_primes_fast():
    for n in (2 ** 61 - 1, 10 ** 16 + 61):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert is_prime(n)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01, n
        assert not is_prime(n * 3)
    F = make_field(10 ** 16 + 61)
    assert F.q == 10 ** 16 + 61 and F.mul(F.inv(12345), 12345) == 1


def test_make_field_refuses_characteristic_past_the_prime_test_bound():
    for p in (PRIME_TEST_BOUND, 10 ** 30 + 57):
        with pytest.raises(EnumerationTooLargeError,
                           match=str(PRIME_TEST_BOUND)):
            make_field(p)


def test_arith_examples(F7, F9):
    assert F7.inv(3) == 5
    assert F7.neg(1) == 6
    # x * x = -1 = 2 under the modulus x^2 + 1 (x encodes as 3)
    assert F9.mul(3, 3) == 2


def test_division_by_zero(F7):
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_pow_examples(F7, F13):
    assert F7.pow(3, 2) == 2
    assert F13.pow(5, 2) == 12
    for F in (F7, F13):
        for a in F.elements():
            assert F.pow(a, 1) == a
    assert F7.pow(0, 0) == 1
    with pytest.raises(ValueError, match="negative exponent"):
        F7.pow(3, -1)


def test_field_axioms_exhaustive(all_fields):
    # associativity, commutativity, distributivity, inverses over every
    # element pair/triple, via precomputed tables to keep it brisk
    for F in all_fields:
        q = F.q
        add = [[F.add(a, b) for b in range(q)] for a in range(q)]
        mul = [[F.mul(a, b) for b in range(q)] for a in range(q)]
        for a in range(q):
            assert add[a][0] == a
            assert mul[a][1] == a
            assert add[a][F.neg(a)] == 0
            if a:
                assert mul[a][F.inv(a)] == 1
            for b in range(q):
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
                for c in range(q):
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_frobenius_fixed_points(all_fields):
    for F in all_fields:
        for a in F.elements():
            assert F.pow(a, F.q) == a


def test_kth_power_image_examples(F7, F13):
    # the image of x -> x^k is the root map's keys
    assert set(kth_root_map(F7, 2)) == {0, 1, 2, 4}
    img = set(kth_root_map(F13, 3))
    assert img == {0, 1, 5, 8, 12}
    assert len(img - {0}) == 12 // 3
    assert set(kth_root_map(F7, 1)) == set(range(7))
    with pytest.raises(ValueError, match="k must be positive"):
        kth_root_map(F7, 0)


def test_kth_power_image_size_formula(all_fields):
    for F in all_fields:
        for k in range(1, 13):
            image = set(kth_root_map(F, k))
            assert len(image - {0}) == (F.q - 1) // math.gcd(k, F.q - 1)


def root_map_reference(F, k):
    """Reference: one F.pow per element in encoding order, so each fiber
    is sorted and values are keyed in order of least root."""
    fibers = {}
    for a in F.elements():
        fibers.setdefault(F.pow(a, k), []).append(a)
    return {v: tuple(roots) for v, roots in fibers.items()}


def test_kth_root_map_matches_per_element_powers(all_fields):
    # every field with q <= 49 (characteristic 2 included) and F_169
    for F in all_fields + [make_field(13, 2)]:
        order = F.q - 1
        for k in [*range(1, 13), order, 2 * order]:
            got = kth_root_map(F, k)
            assert list(got.items()) == \
                list(root_map_reference(F, k).items())
            if k % order == 0:
                # every nonzero element maps to 1
                assert got == {0: (0,), 1: tuple(range(1, F.q))}


def root_map_by_slices(F, k):
    """Reference: the slice construction the extension-field branch used
    before its one pass. exp[i]^k = exp[k i mod (q - 1)] depends on i mod
    (q - 1)/d only, d = gcd(k, q - 1), so each nonzero fiber is the slice
    exp[i::(q - 1)/d], sorted, and the fibers are sorted by least root."""
    order = F.q - 1
    step = order // math.gcd(k, order)
    cosets = sorted((tuple(sorted(F._exp[i:order:step])),
                     F._exp[k * i % order]) for i in range(step))
    return {0: (0,), **{v: roots for roots, v in cosets}}


def test_kth_root_map_one_pass_matches_the_slices():
    # every modulus of every extension field up to F_169; the maps are
    # built uncached, so the caches other tests read stay as they were
    cases = 0
    for p, m in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2),
                 (5, 3), (7, 2), (11, 2), (13, 2)]:
        q = p ** m
        for t in range(q):
            modulus = (*_digits(t, p, m), 1)
            if not _is_irreducible(modulus, p):
                continue
            F = FieldSpec(p, m, modulus)
            for k in [*range(1, 13), q - 1, q, q + 1, 2 * (q - 1)]:
                got = kth_root_map.__wrapped__(F, k)
                assert list(got.items()) == \
                    list(root_map_by_slices(F, k).items()), (modulus, k)
                cases += 1
    assert cases == 3824


def test_kth_roots_examples(F7, F13):
    assert kth_roots(F13, 1, 3) == (1, 3, 9)
    assert kth_roots(F7, 0, 4) == (0,)
    assert kth_roots(F7, 3, 2) == ()


def test_kth_roots_preimage_consistency(all_fields):
    for F in all_fields:
        for k in (1, 2, 3, 5):
            for lam in F.elements():
                roots = set(kth_roots(F, lam, k))
                for a in F.elements():
                    assert (a in roots) == (F.pow(a, k) == lam)
                if lam != 0 and roots:
                    assert math.gcd(k, F.q - 1) % len(roots) == 0


def test_irreducibility_counts_match_moebius_formula():
    # (1/d) sum_{e | d} mu(d/e) p^e monic irreducibles of degree d
    mu = {1: 1, 2: -1, 3: -1, 4: 0}
    for p in (2, 3, 5, 7):
        for d in (2, 3, 4):
            counted = 0
            for t in range(p ** d):
                coeffs = tuple(_digits(t, p, d)) + (1,)
                if _is_irreducible(coeffs, p):
                    counted += 1
            divisors = [e for e in range(1, d + 1) if d % e == 0]
            expected = sum(mu[d // e] * p ** e for e in divisors) // d
            assert counted == expected, (p, d)


def _poly_mul(a, b, p):
    """The product of two little-endian polynomials over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


@functools.cache
def reducible_monics(p, d):
    """Every reducible monic of degree d over F_p, as a product g h of
    monics with 1 <= deg g <= d // 2: a brute-force factor search."""
    def monics(e):
        return [tuple(_digits(t, p, e)) + (1,) for t in range(p ** e)]
    return {tuple(_poly_mul(list(g), list(h), p))
            for i in range(1, d // 2 + 1)
            for g in monics(i) for h in monics(d - i)}


def irreducible_reference(coeffs, p):
    """Whether no factor search finds the monic `coeffs`: a separate rule
    that _is_irreducible must agree with."""
    return tuple(coeffs) not in reducible_monics(p, len(coeffs) - 1)


def _undigits(coeffs, p):
    value = 0
    for c in reversed(coeffs):
        value = value * p + (c % p)
    return value


def tables_reference(p, m, modulus):
    """Two walks, with element-level products: find each candidate's
    order, then walk the first generator again to fill exp/log."""
    q = p ** m
    order = q - 1

    def mul(a, b):
        prod = _poly_mul(_digits(a, p, m), _digits(b, p, m), p)
        return _undigits(_poly_mod(prod, list(modulus), p), p)

    for g in range(2, q):
        seen, acc = 1, g
        while acc != 1:
            acc = mul(acc, g)
            seen += 1
            if seen > order:
                break
        if seen == order:
            exp = [1] * (2 * order)
            log = [0] * q
            acc = 1
            for i in range(order):
                exp[i] = exp[i + order] = acc
                log[acc] = i
                acc = mul(acc, g)
            return tuple(exp), tuple(log)
    raise RuntimeError("no multiplicative generator found")


def test_irreducibility_matches_reference():
    # every monic of degree 1-4 over every p <= 13
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 5):
            for t in range(p ** d):
                coeffs = tuple(_digits(t, p, d)) + (1,)
                assert (_is_irreducible(coeffs, p)
                        == irreducible_reference(coeffs, p)), (p, coeffs)


# every extension field up to F_169, then two where the norm test leaves
# more candidates: q = 17^2 (p - 1 = 2^4) and q = 7^3 (degree 3)
EXTENSION_FIELDS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2),
                    (5, 3), (7, 2), (11, 2), (13, 2), (17, 2), (7, 3))
# the fields of the benchmark's cold CLI calls: 230 moduli in all
CLI_COLD_FIELDS = ((3, 3), (5, 2), (7, 2), (3, 4), (11, 2), (5, 3), (13, 2))


def irreducible_moduli(p, m):
    """Every monic irreducible of degree m over F_p, by the reference
    rule, in increasing order of encoding."""
    return [c for c in (tuple(_digits(t, p, m)) + (1,)
                        for t in range(p ** m))
            if irreducible_reference(c, p)]


def test_tables_match_reference_on_every_modulus():
    for p, m in EXTENSION_FIELDS:
        moduli = irreducible_moduli(p, m)
        assert _default_modulus(p, m) == moduli[0]
        for modulus in moduli:
            F = FieldSpec(p, m, modulus)
            assert (F._exp, F._log) == tables_reference(p, m, modulus), \
                (p, m, modulus)


def test_norm_of_a_degree_one_candidate_is_one_horner_evaluation():
    # N(g) = g^((q - 1)/(p - 1)) = (-a)^m f(-b/a) for g = a x + b, a != 0
    for p, m in EXTENSION_FIELDS:
        for modulus in irreducible_moduli(p, m):
            F = FieldSpec(p, m, modulus)
            e = (F.q - 1) // (p - 1)
            for g in range(p, p * p):
                a, b = divmod(g, p)
                c = -b * pow(a, p - 2, p) % p
                f_c = sum(coef * c ** i for i, coef in enumerate(modulus))
                assert (-a) ** m * f_c % p == F.pow(g, e), (p, modulus, g)


def test_norm_test_skips_the_tables_of_non_generators(monkeypatch):
    # 479 multiplication tables before the norm test, for the same tables
    walked = []
    times_table = FieldSpec._times_table
    monkeypatch.setattr(FieldSpec, "_times_table",
                        lambda F, g: walked.append(g) or times_table(F, g))
    moduli = [(p, m, modulus) for p, m in CLI_COLD_FIELDS
              for modulus in irreducible_moduli(p, m)]
    assert len(moduli) == 230
    for p, m, modulus in moduli:
        FieldSpec(p, m, modulus)
    assert len(walked) == 264
    # a reducible modulus is refused before any table is built: a
    # reducible f of degree m has a factor of degree <= m // 2 <= 2, a
    # root in F_p or, at m = 4, a monic quadratic
    with pytest.raises(ReducibleModulusError):
        make_field(5, 2, (4, 0, 1))  # x^2 - 1 = (x - 1)(x + 1)
    with pytest.raises(ReducibleModulusError):
        make_field(3, 4, (1, 0, 2, 0, 1))  # (x^2 + 1)^2, with no root
    assert len(walked) == 264


def test_table_walk_is_bounded_on_a_reducible_modulus():
    # x^2 over F_3: FieldSpec refuses it, as make_field does, before any
    # table is built. The walk itself, run on it past the constructor,
    # stops at its bound: no element has order 8, and x is nilpotent
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from triwaring.fields import FieldSpec\n"
        "F = object.__new__(FieldSpec)\n"
        "for name, value in zip(('p', 'm', 'modulus', 'q'),\n"
        "                       (3, 2, (0, 0, 1), 9)):\n"
        "    object.__setattr__(F, name, value)\n"
        "try:\n"
        "    F._build_tables()\n"
        "except RuntimeError as err:\n"
        "    print(err)\n"
        "FieldSpec(3, 2, (0, 0, 1))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=5)
    assert proc.returncode == 1
    assert proc.stdout == "no multiplicative generator found\n"
    assert proc.stderr.endswith("ReducibleModulusError: modulus [0, 0, 1] "
                                "is reducible over F_3\n")


# Every input the make_field tests above refuse, and Z/4 under the
# modulus x, a ring that is not a field
MAKE_FIELD_REFUSALS = [
    (4,), (1,), (0,), (4, 1, (0, 1)),
    (3, 2, (0, 0, 1)), (5, 2, (4, 0, 1)), (3, 4, (1, 0, 2, 0, 1)),
    (3, 2, (1, 1)), (3, 0), (3, 2, (1, 0, 2)), (2, 5),
    (37, 4), (47, 4), (101, 3), (1009, 2),
    (PRIME_TEST_BOUND,), (10 ** 30 + 57,),
]


def test_field_spec_refuses_what_make_field_refuses(monkeypatch):
    walked = []
    times_table = FieldSpec._times_table
    monkeypatch.setattr(FieldSpec, "_times_table",
                        lambda F, g: walked.append(g) or times_table(F, g))
    for args in MAKE_FIELD_REFUSALS:
        with pytest.raises(TriwaringError) as cached:
            make_field(*args)
        start = time.perf_counter()
        with pytest.raises(TriwaringError) as direct:
            FieldSpec(*args)
        assert time.perf_counter() - start < 0.1, args
        assert type(direct.value) is type(cached.value), args
        assert str(direct.value) == str(cached.value), args
    assert walked == []
    # three of them by the type their check raises
    for args, error in [((4, 1, (0, 1)), NotPrimeError),
                        ((3, 2, (0, 0, 1)), ReducibleModulusError),
                        ((37, 4), EnumerationTooLargeError)]:
        with pytest.raises(error):
            FieldSpec(*args)


def add_reference(F, a, b):
    """Digit-wise addition of the encodings, base p."""
    p = F.p
    out, mult = 0, 1
    while a or b:
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def neg_reference(F, a):
    """Digit-wise negation of the encoding, base p."""
    p = F.p
    out, mult = 0, 1
    while a:
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def test_zech_arithmetic_matches_digit_loops_on_every_modulus():
    for p, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        moduli = [c for c in (tuple(_digits(t, p, m)) + (1,)
                              for t in range(p ** m))
                  if irreducible_reference(c, p)]
        for modulus in moduli:
            F = FieldSpec(p, m, modulus)
            assert len(F._zech) == F.q - 1
            neg = [neg_reference(F, a) for a in F.elements()]
            assert [F.neg(a) for a in F.elements()] == neg, modulus
            for a in F.elements():
                assert F.add(a, neg[a]) == 0
                assert F.add(0, a) == F.add(a, 0) == a
                assert [F.add(a, b) for b in F.elements()] == \
                    [add_reference(F, a, b) for b in F.elements()], (modulus, a)
                assert [F.sub(a, b) for b in F.elements()] == \
                    [add_reference(F, a, neg[b]) for b in F.elements()], \
                    (modulus, a)


def test_sub_is_add_of_neg(all_fields):
    # sub folds the negation into the Zech index; it must agree with the
    # two-step form on every pair
    for F in all_fields + [make_field(13, 2)]:
        for a in F.elements():
            assert [F.sub(a, b) for b in F.elements()] == \
                [F.add(a, F.neg(b)) for b in F.elements()], (F, a)


def test_field_caches_past_their_bounds_give_equal_answers():
    primes = [n for n in range(2, 1000) if is_prime(n)][:FIELD_CACHE_SIZE + 1]
    first = [make_field(p) for p in primes]
    assert _make_field_cached.cache_info().currsize <= FIELD_CACHE_SIZE
    F9 = make_field(3, 2)
    misses = _make_field_cached.cache_info().misses
    assert [make_field(p) for p in primes] == first
    rebuilt = make_field(3, 2)
    # cycling through one key more than the cache holds evicts every key
    assert _make_field_cached.cache_info().misses == misses + len(primes) + 1
    assert (rebuilt, rebuilt._exp, rebuilt._log, rebuilt._zech) == \
        (F9, F9._exp, F9._log, F9._zech)
    assert _make_field_cached.cache_info().currsize <= FIELD_CACHE_SIZE

    F = make_field(13)
    ks = range(1, ROOT_MAP_CACHE_SIZE + 2)
    maps = [kth_root_map(F, k) for k in ks]
    misses = kth_root_map.cache_info().misses
    assert [kth_root_map(F, k) for k in ks] == maps
    assert kth_root_map.cache_info().misses == misses + len(ks)
    assert kth_root_map.cache_info().currsize <= ROOT_MAP_CACHE_SIZE


def test_minus_one_examples(F7, F13):
    assert minus_one_is_kth_power(F13, 2) is True
    assert minus_one_is_kth_power(F7, 2) is False
    assert minus_one_is_kth_power(F13, 3) is True


def test_minus_one_literal_in_char_two():
    # -1 = 1 = 1^k, so the literal definition says yes
    F4 = make_field(2, 2)
    assert minus_one_is_kth_power(F4, 3) is True


def test_field_text_round_trip():
    # every field with q <= 49 under every modulus: the monic
    # irreducibles of degree m, linear ones included
    count = 0
    for p, m in PRIME_POWERS_49:
        for low in itertools.product(range(p), repeat=m):
            if m > 1 and not _is_irreducible(low + (1,), p):
                continue
            F = make_field(p, m, low + (1,))
            assert parse_field(field_text(F)) == F, (p, m, low)
            assert repr(F) == f"FieldSpec({field_text(F)!r})"
            count += 1
    assert count == 328 + 35 + 10 + 3  # moduli of degree 1, 2, 3, 4
    assert field_text(make_field(7)) == "7"
    assert field_text(make_field(3, 2)) == "3^2/1,0,1"
    # a prime field under a modulus other than x writes it out
    for text in ("3/1,1", "3/2,1", "13/5,1"):
        assert field_text(parse_field(text)) == text
        assert parse_field(text) != parse_field(text.split("/")[0])
    assert parse_field("13").q == 13
    assert parse_field("3^2").q == 9
    assert parse_field("3/0,1") == make_field(3)


@pytest.mark.parametrize("text", ["3^", "3/", "3^2/", "3^/0,1", "3^2/1,x",
                                  "x"])
def test_malformed_field_spec_is_refused(capsys, text):
    with pytest.raises(DegreeMismatchError, match="cannot parse field spec"):
        parse_field(text)
    assert main(["field", "--q", text, "--json"]) == 1
    failure = json.loads(capsys.readouterr().out)["failure"]
    assert failure == {"type": "DegreeMismatchError",
                       "message": f"cannot parse field spec {text!r}"}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIME_POWERS_49), st.data())
def test_power_laws(pm, data):
    F = make_field(*pm)
    a = data.draw(st.integers(0, F.q - 1))
    e1 = data.draw(st.integers(0, 60))
    e2 = data.draw(st.integers(0, 60))
    assert F.pow(a, e1 + e2) == F.mul(F.pow(a, e1), F.pow(a, e2))
    assert F.pow(F.pow(a, e1), e2) == F.pow(a, e1 * e2)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIME_POWERS_49), st.data())
def test_sub_div_consistency(pm, data):
    F = make_field(*pm)
    a = data.draw(st.integers(0, F.q - 1))
    b = data.draw(st.integers(0, F.q - 1))
    assert F.add(F.sub(a, b), b) == a
    if b:
        assert F.mul(F.mul(a, F.inv(b)), b) == a
