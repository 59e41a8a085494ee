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
)
from triwaring.fields import (
    FIELD_CACHE_SIZE,
    PRIME_TEST_BOUND,
    ROOT_MAP_CACHE_SIZE,
    FieldSpec,
    _default_modulus,
    _digits,
    _is_irreducible,
    _make_field_cached,
    _poly_gcd,
    _poly_mod,
    _poly_mul,
    _poly_trim,
    field_text,
    is_prime,
    kth_root_map,
    kth_roots,
    make_field,
    minus_one_is_kth_power,
    parse_field,
)
from triwaring.cli import main
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


def test_make_field_refuses_huge_extension_fields():
    # 47^4 = 4,879,681 and 101^3 = 1,030,301 elements: refused before
    # any modulus search or table build
    start = time.perf_counter()
    for p, m in ((47, 4), (101, 3)):
        with pytest.raises(EnumerationTooLargeError, match=str(p ** m)):
            make_field(p, m)
    assert time.perf_counter() - start < 1.0


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


def irreducible_reference(coeffs, p):
    """Root scan, plus a gcd with x^(p^2) - x at degree 4: a separate rule
    for degree <= 4 that _is_irreducible must agree with."""
    poly = list(coeffs)
    deg = len(poly) - 1
    if deg == 1:
        return True
    for t in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * t + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    acc = [0, 1]
    for _ in range(2):
        acc = _poly_pow_mod(acc, p, poly, p)
    diff = acc + [0] * (2 - len(acc))
    diff[1] = (diff[1] - 1) % p
    diff = _poly_trim(diff)
    if not diff:
        return False
    return len(_poly_gcd(poly, diff, p)) == 1


def _poly_pow_mod(base, e, mod, p):
    result = [1]
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


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
    for p, dmax in ((2, 4), (3, 4), (5, 4), (7, 4), (11, 3), (13, 3)):
        for d in range(1, dmax + 1):
            for t in range(p ** d):
                coeffs = tuple(_digits(t, p, d)) + (1,)
                assert (_is_irreducible(coeffs, p)
                        == irreducible_reference(coeffs, p)), (p, coeffs)


def test_tables_match_reference_on_every_modulus():
    # every irreducible modulus of every extension field up to F_169
    for p, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2),
                 (5, 3), (7, 2), (11, 2), (13, 2)):
        moduli = [c for c in (tuple(_digits(t, p, m)) + (1,)
                              for t in range(p ** m))
                  if irreducible_reference(c, p)]
        assert _default_modulus(p, m) == moduli[0]
        for modulus in moduli:
            F = FieldSpec(p, m, modulus)
            assert (F._exp, F._log) == tables_reference(p, m, modulus), \
                (p, m, modulus)


def test_table_walk_is_bounded_on_a_reducible_modulus():
    # x^2 over F_3, bypassing make_field's irreducibility check: no element
    # has order 8, and x is nilpotent, so a walk must stop at its bound
    src = Path(__file__).resolve().parent.parent / "src"
    code = "from triwaring.fields import FieldSpec; FieldSpec(3, 2, (0, 0, 1))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=5)
    assert proc.returncode == 1
    assert "RuntimeError: no multiplicative generator found" in proc.stderr


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
