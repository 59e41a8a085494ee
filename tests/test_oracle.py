import collections
import functools
import hashlib
import itertools
import json
import math
import random
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwaring.errors import (
    EnumerationTooLargeError,
    FieldMismatchError,
    RootMismatchError,
    SizeMismatchError,
)
from triwaring import oracle
from triwaring.canonical import ConjugationWitness
from triwaring.claims import negative_checks
from triwaring.fields import FieldSpec, kth_root_map, make_field
from triwaring.power_sums import _matchable
from triwaring.oracle import (
    all_kth_powers,
    bn_conjugate,
    iter_matrices,
    matrix_encoding,
    min_waring_number,
    waring_report,
)
from triwaring.tri_matrix import (
    UTMatrix,
    _packed_mul,
    diag,
    elementary,
    from_rows,
    from_text,
    jordan_block,
    junction_matrix,
    mat_inv,
    mat_mul,
    mat_pow,
    zero,
)


def test_all_kth_powers_examples(F3):
    cubes = all_kth_powers(F3, 2, 3)
    assert from_rows(F3, [[1, 1], [0, 1]]) not in cubes
    assert len(all_kth_powers(F3, 2, 1)) == 27
    squares = all_kth_powers(F3, 2, 2)
    assert zero(F3, 2) in squares and diag(F3, [1, 1]) in squares
    for P, root in squares.items():
        assert mat_pow(root, 2) == P


def kth_powers_reference(F, n, k):
    """The image by one mat_pow per matrix, first root in enumeration order."""
    out = {}
    for A in iter_matrices(F, n):
        out.setdefault(mat_pow(A, k), A)
    return out


def _image_cases():
    """(p, m, n, k) with q^width <= 2 * 10^5; k = 1, p | k, and exponents
    where a^k = l^k for distinct a, l (M singular) are all among them."""
    cases = []
    for p, m in [(2, 1), (3, 1), (5, 1), (13, 1), (2, 2), (2, 3), (3, 2)]:
        q = p ** m
        for n in (1, 2, 3):
            if q ** (n * (n + 1) // 2) <= 2 * 10 ** 5:
                cases += [(p, m, n, k) for k in sorted(
                    {1, 2, 3, p, 2 * p, q - 1, q, q + 1, 2 * (q - 1)})]
    return cases


@pytest.mark.parametrize("p, m, n, k", _image_cases())
def test_all_kth_powers_matches_brute_force(p, m, n, k):
    F = make_field(p, m)
    # keys, first roots and their order
    assert (list(all_kth_powers(F, n, k).items())
            == list(kth_powers_reference(F, n, k).items()))


@pytest.mark.parametrize("q, k", [(13, 2), (11, 3)])
def test_image_skips_blocks_an_earlier_root_gave(q, k, monkeypatch):
    # each matrix the walk yields forms one b M. a^2 = (-a)^2 over F_13:
    # at -a, every block whose (a^2, A'^2) had an invertible M at a is
    # skipped; x -> x^3 is injective on F_11, so all 11^3 are walked
    F = make_field(q)
    walked = collections.Counter()
    walk = oracle._power_walk

    def counted(F, n, k, **options):
        for pair in walk(F, n, k, **options):
            walked[n] += 1
            yield pair

    monkeypatch.setattr(oracle, "_power_walk", counted)
    image = oracle._power_image(F, 2, k)
    if k == 2:
        assert walked[2] < q ** 3
    else:
        assert walked[2] == q ** 3
    assert walked[1] == q  # the sub-walk yields every A'
    assert list(image.items()) == [(P.entries, A.entries) for P, A in
                                   kth_powers_reference(F, 2, k).items()]


def test_all_kth_powers_of_the_empty_size(F3):
    empty = UTMatrix(F3, 0, ())
    assert all_kth_powers(F3, 0, 2) == {empty: empty}


@settings(max_examples=25, deadline=None)
@given(pm=st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]),
       n=st.integers(1, 3), k=st.integers(1, 16))
def test_all_kth_powers_property(pm, n, k):
    F = make_field(*pm)
    if F.q ** (n * (n + 1) // 2) > 5000:
        n = 2  # T_3(F_q) for q >= 5 is too slow for the reference
    assert (list(all_kth_powers(F, n, k).items())
            == list(kth_powers_reference(F, n, k).items()))


def test_enumeration_guard(F13):
    with pytest.raises(EnumerationTooLargeError):
        all_kth_powers(F13, 7, 2)  # 13^28 candidates


def test_guard_override(F3, monkeypatch):
    monkeypatch.setenv("WARING_MAX_ENUM", "10")
    with pytest.raises(EnumerationTooLargeError):
        all_kth_powers(F3, 2, 2)  # 27 > 10 once overridden
    monkeypatch.delenv("WARING_MAX_ENUM")
    assert len(all_kth_powers(F3, 2, 2)) == 10


def test_min_waring_examples(F3, F7, F13):
    assert min_waring_number(F3, from_text(F3, "0,1;0"), 2, 5) == 3
    assert min_waring_number(F3, zero(F3, 2), 2, 5) == 1
    assert min_waring_number(F13, from_text(F13, "0,1;0"), 2, 5) == 2
    assert min_waring_number(F7, from_text(F7, "0,1;0"), 2, 5) == 3


def test_min_waring_cap(F3):
    assert min_waring_number(F3, from_text(F3, "0,1;0"), 2, 2) is None


def test_a_diagonal_outside_every_power_sum_answers_at_once():
    # the cubes of F_4 are {0, 1}, so W_s = F_2 for every s: 2 = x is a
    # sum of no number of cubes, and no cap, however large, is walked up to
    F4 = make_field(2, 2)
    start = time.perf_counter()
    assert min_waring_number(F4, from_rows(F4, [[2]]), 3, 10 ** 9) is None
    assert time.perf_counter() - start < 0.5
    rep = waring_report(F4, 2, 3, cap=10 ** 5)
    assert rep.histogram() == {"1": 13, "2": 3, ">100000": 48}


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_is_rejected(F3, cap):
    with pytest.raises(ValueError):
        min_waring_number(F3, zero(F3, 2), 2, cap)
    with pytest.raises(ValueError):
        waring_report(F3, 2, 2, cap=cap)


def test_sumset_monotone(F3, F7):
    # 0 = 0^k lies in the power set, so each layer contains the previous
    for F, k in [(F3, 2), (F3, 3), (F7, 2)]:
        powers = set(all_kth_powers(F, 2, k))
        assert zero(F, 2) in powers
        layer = powers
        for _ in range(3):
            nxt = {S + P for S in layer for P in powers}
            assert layer <= nxt
            layer = nxt


def test_waring_report(F3):
    rep = waring_report(F3, 2, 2, cap=4)
    assert rep.histogram() == {"1": 10, "2": 15, "3": 2}
    assert rep.max_over_field == 3
    assert_witnesses_valid(rep)
    js = rep.to_json()
    assert js["histogram"] == {"1": 10, "2": 15, "3": 2}
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "matrix,min_powers"
    assert len(csv.splitlines()) == 28


def test_bn_iteration(F3):
    mats = list(iter_bn_reference(F3, 2))
    assert len(mats) == 2 ** 2 * 3  # (q-1)^n diagonals, q strict entries
    assert len(set(mats)) == len(mats)
    assert all(0 not in P.diagonal() for P in mats)


def test_bn_conjugate_examples(F3, F7):
    A = mat_pow(jordan_block(F3, 0, 4), 2)
    B = elementary(F3, 4, 1, 2) + elementary(F3, 4, 3, 4)
    assert bn_conjugate(F3, A, B) is None
    M = from_rows(F7, [[1, 1], [0, 2]])
    assert bn_conjugate(F7, M, M) is not None
    w = bn_conjugate(F7, M, diag(F7, [1, 2]))
    assert w is not None
    assert mat_mul(M, w) == mat_mul(w, diag(F7, [1, 2]))


def test_bn_conjugate_equivalence_spot_checks(F3):
    rng = random.Random(17)
    mats = [UTMatrix(F3, 2, tuple(rng.randrange(3) for _ in range(3)))
            for _ in range(8)]
    for A in mats:
        assert bn_conjugate(F3, A, A) is not None  # reflexive
    for A, B in itertools.combinations(mats, 2):
        ab = bn_conjugate(F3, A, B)
        ba = bn_conjugate(F3, B, A)
        assert (ab is None) == (ba is None)  # symmetric
    for A, B, C in itertools.combinations(mats, 3):
        if bn_conjugate(F3, A, B) and bn_conjugate(F3, B, C):
            assert bn_conjugate(F3, A, C) is not None  # transitive


def conjugacy_work(F, n):
    """`bn_conjugate`'s guard unit, w = n(n+1)/2: w^3 elimination steps,
    w per leaf over (q-1)^n leaves, and 3 q^2 table entries for n >= 2."""
    w = n * (n + 1) // 2
    return w ** 3 + w * (F.q - 1) ** n + (3 * F.q ** 2 if n >= 2 else 0)


def test_bn_guard():
    # the first refused shapes: T_30(F_2) (T_29 counts 82,313,322 steps),
    # and T_1 past 10^8
    for F, n in [(make_field(2), 30), (make_field(100_000_007), 1)]:
        work = conjugacy_work(F, n)
        with pytest.raises(EnumerationTooLargeError,
                           match=f"size {work} exceeds guard 100000000"):
            bn_conjugate(F, zero(F, n), zero(F, n))
    assert conjugacy_work(make_field(2), 30) == 100_545_102
    assert conjugacy_work(make_field(2), 29) <= 10 ** 8


class Refused(Exception):
    pass


def prime_power_field(q):
    """F_q when q is a prime power the package builds (m <= 4), else None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = round(math.log(q, p))
    return make_field(p, m) if p ** m == q and m <= 4 else None


def test_bn_guard_admits_every_shape_the_bn_size_guard_did(monkeypatch):
    # the former guard admitted |B_n| = (q-1)^n q^(n(n-1)/2) <= 10^7; the
    # work unit admits all of those shapes, which stop at q <= 215
    asked = []

    def record(work):
        asked.append(work)
        raise Refused

    monkeypatch.setattr(oracle, "enum_guard", record)
    shapes = 0
    for F in filter(None, map(prime_power_field, range(2, 216))):
        n = 1
        while (F.q - 1) ** n * F.q ** (n * (n - 1) // 2) <= 10 ** 7:
            with pytest.raises(Refused):
                bn_conjugate(F, zero(F, n), zero(F, n))
            assert asked.pop() == conjugacy_work(F, n) <= 10 ** 8, (F, n)
            shapes, n = shapes + 1, n + 1
    assert shapes > 100


# Shapes the |B_n| <= 10^7 guard refused and the work unit admits: a
# conjugate pair's witness verifies, and a matrix is conjugate to itself by
# the identity, the first element of B_n
@pytest.mark.parametrize("p, n", [(13, 5), (13, 6), (5, 8), (3, 12), (2, 20)])
def test_bn_conjugate_newly_admitted_shapes(p, n):
    F = make_field(p)
    rng = random.Random(f"bn/admitted/{p}/{n}")
    for _ in range(2):
        A = random_matrix(F, n, rng)
        P = random_matrix(F, n, rng, [rng.randrange(1, p) for _ in range(n)])
        B = mat_mul(mat_mul(mat_inv(P), A), P)
        S = bn_conjugate(F, A, B)
        assert S is not None and ConjugationWitness(S, A, B).verify()
        assert bn_conjugate(F, A, A) == diag(F, [1] * n)


def scan_bn(F, A, B):
    """Reference: the first P of iter_bn_reference with A P = P B, by
    brute force over the packed products."""
    n, ae, be = A.n, A.entries, B.entries
    for P in iter_bn_reference(F, n):
        pe = P.entries
        if _packed_mul(F, n, ae, pe) == _packed_mul(F, n, pe, be):
            return P
    return None


def random_matrix(F, n, rng, diagonal=None):
    M = UTMatrix(F, n, tuple(rng.randrange(F.q)
                             for _ in range(n * (n + 1) // 2)))
    if diagonal is None:
        return M
    return UTMatrix(F, n, tuple(diagonal[i - 1] if i == j else M.get(i, j)
                                for i, j in M.positions()))


def random_pairs(F, n, rng, count):
    """Conjugate, identical and same-diagonal pairs, in turn."""
    for t in range(count):
        A = random_matrix(F, n, rng)
        if t % 3 == 0:
            P = random_matrix(F, n, rng, [rng.randrange(1, F.q)
                                          for _ in range(n)])
            yield A, mat_mul(mat_mul(mat_inv(P), A), P)
        elif t % 3 == 1:
            yield A, A
        else:
            # a diagonal from {0, 1} repeats entries, and strict entries
            # that are 0 half the time vary the Jordan type over any
            # field, so many such pairs are not conjugate
            d = [rng.randrange(2) for _ in range(n)]
            yield tuple(UTMatrix(F, n, tuple(
                x if i == j or rng.randrange(2) else 0
                for (i, j), x in zip(M.positions(), M.entries)))
                for M in (random_matrix(F, n, rng, d),
                          random_matrix(F, n, rng, d)))


# T_3(F_7) and T_3(F_8) take 6 pairs each (test_..._t3_wide). T_3(F_9) is
# left out: B_3(F_9) has 373,248 elements, and 6 pairs take about 3.4 s
@pytest.mark.parametrize("n,p,m", [
    (n, p, m) for n in (2, 3) for p, m in [(2, 1), (3, 1), (2, 2), (5, 1)]
] + [(2, 3, 2)])
def test_bn_conjugate_matches_scan(n, p, m):
    F = make_field(p, m)
    rng = random.Random(f"bn/{p}^{m}/{n}")
    outcomes = set()
    for A, B in random_pairs(F, n, rng, 24):
        w = scan_bn(F, A, B)
        assert bn_conjugate(F, A, B) == w
        outcomes.add(w is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3)])
def test_bn_conjugate_matches_scan_t3_wide(p, m):
    F = make_field(p, m)
    rng = random.Random(f"bn/{p}^{m}/3")
    outcomes = set()
    for A, B in random_pairs(F, 3, rng, 6):
        w = scan_bn(F, A, B)
        assert bn_conjugate(F, A, B) == w
        outcomes.add(w is None)
    assert outcomes == {True, False}


def test_bn_conjugate_matches_scan_t4(F3):
    rng = random.Random("bn/3/4")
    for A, B in random_pairs(F3, 4, rng, 6):
        assert bn_conjugate(F3, A, B) == scan_bn(F3, A, B)


def test_bn_conjugate_scalar(F3):
    # A = B = cI: the kernel is all of T_n, the witness is the identity
    for n in (1, 2, 3):
        for c in F3.elements():
            A = diag(F3, [c] * n)
            assert bn_conjugate(F3, A, A) == scan_bn(F3, A, A) == diag(
                F3, [1] * n)


def test_bn_conjugate_zero_diagonal_column(F3):
    # (AP - PB)_ii = (A_ii - B_ii) P_ii, so where the diagonals differ
    # P_ii is 0 on the whole kernel and no invertible P exists
    cases = [(diag(F3, [1, 0]), diag(F3, [0, 1])),
             (diag(F3, [0, 1, 2]), diag(F3, [0, 2, 1])),
             (from_rows(F3, [[2, 1, 0], [0, 0, 1], [0, 0, 2]]),
              from_rows(F3, [[0, 1, 1], [0, 2, 0], [0, 0, 2]]))]
    for A, B in cases:
        assert bn_conjugate(F3, A, B) is None
        assert scan_bn(F3, A, B) is None


def test_bn_conjugate_criterion_8c_matches_scan(F3):
    A = mat_pow(jordan_block(F3, 0, 4), 2)
    B = elementary(F3, 4, 1, 2) + elementary(F3, 4, 3, 4)
    assert bn_conjugate(F3, A, B) is None
    assert scan_bn(F3, A, B) is None
    assert bn_conjugate(F3, B, B) == scan_bn(F3, B, B)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3), data=st.data())
def test_bn_conjugate_property(F3, n, data):
    width = n * (n + 1) // 2
    entries = st.tuples(*[st.integers(0, 2)] * width)
    A = UTMatrix(F3, n, data.draw(entries))
    B = UTMatrix(F3, n, data.draw(entries))
    assert bn_conjugate(F3, A, B) == scan_bn(F3, A, B)


def test_bn_conjugate_large_prime_t1():
    # the guard counts q steps on T_1, so it admits the largest prime below
    # 10^8, where a q x q table would hold 10^16 entries; the timer stops
    # such a build within a quarter second, before it can take much memory
    F = make_field(99_999_989)
    assert conjugacy_work(F, 1) == F.q <= 10 ** 8
    x, y = (UTMatrix(F, 1, (v,)) for v in (1_234_567, 7_654_321))

    def overrun(signum, frame):
        raise TimeoutError("bn_conjugate on T_1 did more than compare")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 0.25)
    try:
        t0 = time.perf_counter()
        assert bn_conjugate(F, x, x) == diag(F, [1])
        assert bn_conjugate(F, zero(F, 1), zero(F, 1)) == diag(F, [1])
        assert bn_conjugate(F, x, y) is None
        assert bn_conjugate(F, zero(F, 1), y) is None
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 0.25


def rref_reference(F, rows, ncols):
    """Gauss-Jordan over F, columns first to last: (nonzero reduced rows,
    their pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def kernel_rref_reference(F, rows, ncols):
    """The kernel basis in reduced row echelon form by two passes: the
    kernel of the reduced rows, then that basis reduced again."""
    reduced, pivots = rref_reference(F, rows, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(reduced, pivots):
                v[c] = F.neg(row[f])
            basis.append(v)
    return rref_reference(F, basis, ncols)


def random_system(F, rng, nrows, ncols, rank):
    """nrows random combinations of `rank` random rows (rank at most
    `rank`), each entry 0 half the time before combining."""
    base = [[rng.randrange(F.q) if rng.randrange(2) else 0
             for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for b in base:
            a = rng.randrange(F.q)
            row = [F.add(x, F.mul(a, y)) for x, y in zip(row, b)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (2, 3), (3, 2)])
def test_kernel_matches_two_pass_reference(p, m):
    F = make_field(p, m)
    rng = random.Random(f"kernel/{p}^{m}")
    systems = [([], 4), ([[0] * 6] * 6, 6),
               ([[int(i == j) for j in range(5)] for i in range(5)], 5)]
    for _ in range(60):
        ncols = rng.randint(1, 10)
        nrows = rng.randint(0, ncols + 2)
        systems.append((random_system(F, rng, nrows, ncols,
                                      rng.randint(0, nrows)), ncols))
    ranks = set()
    for rows, ncols in systems:
        basis, leads = oracle._kernel_rref(F, rows, ncols)
        assert (basis, leads) == kernel_rref_reference(F, rows, ncols)
        ranks.add("zero" if len(leads) == ncols else
                  "full" if not leads else "partial")
    assert ranks == {"zero", "full", "partial"}


def test_bn_conjugate_checks_its_witness(F3, monkeypatch):
    kernel = oracle._kernel_rref

    def corrupted(F, rows, ncols):
        basis, leads = kernel(F, rows, ncols)
        basis[0][1] = F.add(basis[0][1], 1)  # P_22 off P_11, lead untouched
        return basis, leads

    J = jordan_block(F3, 0, 3)  # its centralizer has P_11 = P_22 = P_33
    assert bn_conjugate(F3, J, J) == UTMatrix(F3, 3, (1, 0, 0, 1, 0, 1))
    monkeypatch.setattr(oracle, "_kernel_rref", corrupted)
    with pytest.raises(RootMismatchError, match="witness failed"):
        bn_conjugate(F3, J, J)


def test_bn_conjugate_typed_mismatch(F3, F7):
    with pytest.raises(FieldMismatchError):
        bn_conjugate(F7, zero(F3, 2), zero(F7, 2))
    with pytest.raises(FieldMismatchError):
        bn_conjugate(F7, zero(F7, 2), zero(F3, 2))
    with pytest.raises(SizeMismatchError):
        bn_conjugate(F3, zero(F3, 2), zero(F3, 3))


@pytest.mark.parametrize("value", ["1e6", "abc", ""])
def test_guard_override_not_an_integer(F3, monkeypatch, value):
    # fails closed: even a tiny enumeration is refused
    monkeypatch.setenv("WARING_MAX_ENUM", value)
    with pytest.raises(EnumerationTooLargeError, match="WARING_MAX_ENUM"):
        all_kth_powers(F3, 1, 2)
    with pytest.raises(EnumerationTooLargeError, match=repr(value)):
        bn_conjugate(F3, zero(F3, 2), zero(F3, 2))
    # not read as "too large to enumerate" by the negative checks
    with pytest.raises(EnumerationTooLargeError, match=repr(value)):
        negative_checks(F3, 2)


def test_negative_checks_f3_k2(F3):
    results = {r.name: r for r in negative_checks(F3, 2)}
    junction = results["junction_(2,2)_not_square"]
    assert junction.applicable and junction.ok
    jordan = results["jordan_not_two_powers"]
    assert jordan.applicable and jordan.ok  # -1 not a square mod 3
    scalar = results["scalar_plus_nilpotent_not_power"]
    assert not scalar.applicable  # needs p | k


def test_negative_checks_f3_k3(F3):
    results = {r.name: r for r in negative_checks(F3, 3)}
    scalar = results["scalar_plus_nilpotent_not_power"]
    assert scalar.applicable and scalar.ok
    jordan = results["jordan_not_two_powers"]
    assert not jordan.applicable  # -1 = 2 = 2^3 mod 3


def test_negative_checks_f7_k2(F7):
    results = {r.name: r for r in negative_checks(F7, 2)}
    assert results["jordan_not_two_powers"].ok
    # T_4(F_7) has 7^10 matrices, beyond the enumeration guard
    assert not results["junction_(2,2)_not_square"].applicable


def test_negative_checks_match_recorded_results():
    # the results on F_2, F_3 and F_4 for k = 1..6, as JSON, recorded
    # while checks (a) and (c) still tested membership in the image dict
    results = [[r.to_json() for r in negative_checks(make_field(p, m), k)]
               for p, m in [(2, 1), (3, 1), (2, 2)] for k in range(1, 7)]
    assert {r["applicable"] for rs in results for r in rs} == {True, False}
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "2217e99ccd23aac908250d9dd25285fc5a9f6172ec7062385072b5d0c87aabec")


def test_negative_checks_report_the_count_found(F7, monkeypatch):
    monkeypatch.setattr(oracle, "min_waring_number", lambda *a, **kw: 2)
    jordan = {r.name: r for r in negative_checks(F7, 2)}[
        "jordan_not_two_powers"]
    assert jordan.ok is False
    assert jordan.detail == "n=2: min = 2; n=3: min = 2"


def test_negative_checks_too_large_is_not_applicable():
    # check (b) needs T_3(F_23), 23^6 matrices; check (c) needs T_2(F_467),
    # 467^3 matrices: both beyond the guard, so both not applicable
    F23 = make_field(23)
    for F, k, name, algebra in [
            (F23, 2, "jordan_not_two_powers", "T_3(F_23)"),
            (make_field(467), 467, "scalar_plus_nilpotent_not_power",
             "T_2(F_467)")]:
        check = {r.name: r for r in negative_checks(F, k)}[name]
        assert (check.applicable, check.ok) == (False, None)
        assert check.detail == f"{algebra} too large to enumerate"
    # a direct oracle call keeps the guard as a hard error
    with pytest.raises(EnumerationTooLargeError, match="exceeds guard"):
        min_waring_number(F23, jordan_block(F23, 0, 3), 2, cap=2)


def test_matrix_encoding_unique(F3):
    codes = {matrix_encoding(M) for M in iter_matrices(F3, 2)}
    assert len(codes) == 27
    assert matrix_encoding(zero(F3, 2)) == 0
    # iter_matrices runs the last packed entry fastest; matrix_encoding
    # makes the first entry its least significant digit
    mats = list(iter_matrices(F3, 2))
    assert [M.entries for M in mats[:4]] == \
        [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)]
    assert [matrix_encoding(M) for M in mats[:6]] == [0, 9, 18, 3, 12, 21]
    assert [M.entries for M in mats] == sorted(M.entries for M in mats)
    assert all(matrix_encoding(M) == sum(e * 3 ** i
                                         for i, e in enumerate(M.entries))
               for M in mats)


def test_junction_shape(F3):
    assert junction_matrix(F3, (2, 2)) == elementary(F3, 4, 2, 3)


# -- the memoised engine behind min_waring_number and waring_report --------


def _fresh_layers():
    oracle._cached_layers.cache_clear()


def report_reference(F, n, k, cap):
    """Reference: the whole-space report by a breadth-first search of its
    own over UTMatrix sums, independent of the layer engine."""
    roots = all_kth_powers(F, n, k)
    powers = list(roots)
    per = {M: None for M in iter_matrices(F, n)}
    parents = {}
    layer = set(powers)
    for P in powers:
        if per[P] is None:
            per[P] = 1
            parents[P] = (roots[P],)
    r = 1
    while r < cap and any(v is None for v in per.values()):
        r += 1
        nxt = set()
        for S in layer:
            for P in powers:
                T = S + P
                nxt.add(T)
                if per[T] is None:
                    per[T] = r
                    parents[T] = parents[S] + (roots[P],)
        if nxt == layer:
            break
        layer = nxt
    witnesses = {}
    for M in sorted(per, key=matrix_encoding):
        v = per[M]
        if v is not None and v not in witnesses:
            witnesses[v] = (M, parents[M])
    return oracle.WaringReport(F, n, k, cap, per, witnesses)


def assert_witnesses_valid(rep):
    for count, (M, parts) in rep.witnesses.items():
        assert len(parts) == count
        total = zero(rep.field, rep.n)
        for part in parts:
            total = total + mat_pow(part, rep.k)
        assert total == M


def witness_parts_reference(F, k, roots, M, count):
    """Reference: the witness descent waring_report once ran inline, on
    the public image and counts: per s = count, ..., 2 the first root, in
    image order, whose power leaves the rest a sum of s - 1 powers."""
    parts = []
    for s in range(count - 1, 0, -1):
        for P, A in roots.items():
            if min_waring_number(F, M - P, k, s) is not None:
                break
        parts.append(A)
        M = M - P
    return (*parts, roots[M])


REPORT_CORPUS = ([(p, m, n, k) for p, m, n in [
    (3, 1, 1), (5, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2),
    (7, 1, 2), (2, 1, 3)] for k in (1, 2, 3, 4)] + [(3, 2, 2, 2), (3, 1, 3, 2)])


@pytest.mark.parametrize("p, m, n, k", REPORT_CORPUS)
def test_report_matches_reference(p, m, n, k):
    F = make_field(p, m)
    for cap in (1, 2, 3, 4):
        want = report_reference(F, n, k, cap)
        _fresh_layers()  # the reference's image built an engine
        cold, warm = (waring_report(F, n, k, cap) for _ in range(2))
        for got in (cold, warm):
            assert list(got.per_matrix_min.items()) == list(
                want.per_matrix_min.items()), cap
            assert got.histogram() == want.histogram()
            assert got.to_json() == want.to_json()
            assert got.to_csv() == want.to_csv()
            assert got.max_over_field == want.max_over_field
            assert {v: M for v, (M, _) in got.witnesses.items()} == {
                v: M for v, (M, _) in want.witnesses.items()}
            assert_witnesses_valid(got)
        assert cold.witnesses == warm.witnesses  # parts are deterministic
        roots = all_kth_powers(F, n, k)
        for v, (M, parts) in cold.witnesses.items():
            assert parts == witness_parts_reference(F, k, roots, M, v), cap


def test_report_matches_recorded_facts():
    # perfbench/facts.json was written from independent reference
    # arithmetic; read it, never write it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "facts.json"
    tables = json.loads(path.read_text())["tables"]
    assert len(tables) == 12
    for name, t in tables.items():
        F = make_field(t["p"], t["m"], tuple(t["modulus"]))
        rep = waring_report(F, t["n"], t["k"], t["cap"])
        width = t["n"] * (t["n"] + 1) // 2
        got = "".join(
            str(rep.per_matrix_min[UTMatrix(F, t["n"], e)] or 0)
            for e in itertools.product(range(F.q), repeat=width))
        assert got == t["mins"], name


@pytest.mark.parametrize("k, closed_at", [(1, 1), (2, 2)])
def test_layers_close_on_the_whole_algebra(F13, k, closed_at):
    # P^closed_at holds all of T_2(F_13), so no count exceeds it
    _fresh_layers()
    rep = waring_report(F13, 2, k, cap=4)
    assert rep.max_over_field == closed_at


@pytest.mark.parametrize("n", [0, -1])
def test_report_rejects_sizes_below_one(F3, n):
    with pytest.raises(ValueError, match="n and cap must be >= 1"):
        waring_report(F3, n, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_oracle_rejects_exponents_below_one(F3, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        min_waring_number(F3, from_text(F3, "0,1;0"), k, 3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        waring_report(F3, 2, k)


def test_report_t3_f5_fourth_powers_in_time():
    # every count up to 5 occurs; growing P^2..P^6 as sumsets took 34 s
    F = make_field(5)
    _fresh_layers()
    t0 = time.perf_counter()
    rep = waring_report(F, 3, 4, cap=6)
    assert time.perf_counter() - t0 < 10
    assert rep.histogram() == {"1": 576, "2": 2175, "3": 4425, "4": 7425,
                               "5": 1024}
    assert_witnesses_valid(rep)


@pytest.mark.parametrize("p, m, n", [(3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3),
                                     (3, 2, 2), (2, 3, 2), (3, 1, 3)])
def test_min_waring_matches_report_cold_and_warm(p, m, n):
    F = make_field(p, m)
    mats = list(iter_matrices(F, n))
    for k in (1, 2, 3):
        # a count capped lower is the cap-4 count, or None above the cap
        full = report_reference(F, n, k, 4).per_matrix_min
        for cap in (2, 3, 4):
            expect = {M: v if v is not None and v <= cap else None
                      for M, v in full.items()}
            for order in (mats, mats[::-1]):
                _fresh_layers()  # the first query of each order runs cold
                for M in order:
                    assert min_waring_number(F, M, k, cap) == expect[M], (k, cap, M)


@pytest.mark.parametrize("p, m, n", [(7, 1, 2), (5, 1, 3), (2, 2, 3)])
@pytest.mark.parametrize("k", [2, 3])
def test_distinct_kth_power_diagonal_is_a_kth_power(p, m, n, k):
    # C = S diag(d) S^-1 (diagonalize_distinct) and diag(d) = diag(a)^k,
    # so C = (S diag(a) S^-1)^k
    F = make_field(p, m)
    powers = all_kth_powers(F, n, k)
    strict = n * (n - 1) // 2
    count = 0
    for d in itertools.permutations(sorted(kth_root_map(F, k)), n):
        for upper in itertools.product(F.elements(), repeat=strict):
            it = iter(upper)
            C = UTMatrix(F, n, tuple(d[i] if i == j else next(it)
                                     for i in range(n) for j in range(i, n)))
            assert C in powers, C
            count += 1
    # k = 3 over F_4: the cubes are 0 and 1, too few for three positions
    assert count or (F.q, n, k) == (4, 3, 3)


def test_cold_min_three_queries_build_no_layer():
    # -1 is not a square mod 11, so b E_12 is no sum of two squares
    F = make_field(11)
    _fresh_layers()
    for b in (1, 2, 10):
        assert min_waring_number(F, from_rows(F, [[0, b], [0, 0]]), 2, 4) == 3


def test_min_waring_nilpotent_jordan_t4_f3():
    # a count of 3 means "not in P^2", decided without building P^2
    # (|P^1| = 5,454 here, so about 15M sums)
    F = make_field(3)
    _fresh_layers()
    t0 = time.perf_counter()
    assert min_waring_number(F, jordan_block(F, 0, 4), 2, 4) == 3
    assert time.perf_counter() - t0 < 15


@pytest.mark.parametrize("n", [1, 2])
def test_min_waring_cache_keyed_on_modulus(n):
    # two models of F_9 whose encodings mean different elements
    Fa, Fb = make_field(3, 2, (2, 1, 1)), make_field(3, 2, (2, 2, 1))
    k, cap = 2, 3
    rep_a = report_reference(Fa, n, k, cap).per_matrix_min
    rep_b = report_reference(Fb, n, k, cap).per_matrix_min
    by_entries = {M.entries: v for M, v in rep_b.items()}
    assert any(by_entries[M.entries] != v for M, v in rep_a.items())
    _fresh_layers()
    for Ma, Mb in zip(iter_matrices(Fa, n), iter_matrices(Fb, n)):
        assert min_waring_number(Fa, Ma, k, cap) == rep_a[Ma]
        assert min_waring_number(Fb, Mb, k, cap) == rep_b[Mb]


def test_min_waring_guard_runs_on_warm_queries(F3, monkeypatch):
    C = from_text(F3, "0,1;0")
    assert min_waring_number(F3, C, 2, 5) == 3
    monkeypatch.setenv("WARING_MAX_ENUM", "10")
    with pytest.raises(EnumerationTooLargeError):
        min_waring_number(F3, C, 2, 5)  # 27 > 10, though the layers are built


def test_min_waring_field_mismatch(F3, F7):
    for cap in (1, 3):
        with pytest.raises(FieldMismatchError):
            min_waring_number(F7, from_text(F3, "0,1;0"), 2, cap)
    with pytest.raises(FieldMismatchError):  # refused when it is built
        UTMatrix(F3, 2, (0, 4, 0))


def test_all_kth_powers_copy_cannot_poison_layers(F3):
    C = from_text(F3, "0,1;0")
    assert min_waring_number(F3, C, 2, 5) == 3
    powers = all_kth_powers(F3, 2, 2)
    powers.clear()
    powers[C] = C  # pretend C were a square
    assert min_waring_number(F3, C, 2, 5) == 3
    assert C not in all_kth_powers(F3, 2, 2)


def test_min_waring_large_t1_skips_tables():
    # T_1(F_p) has p elements; a p^2 table of sums would dwarf them
    F = make_field(10007)
    squares = {F.pow(a, 2) for a in F.elements()}
    for c in (0, 1, 2, 5, 10006):
        C = UTMatrix(F, 1, (c,))
        assert min_waring_number(F, C, 2, 3) == (1 if c in squares else 2)
    assert oracle._cached_layers(F, 1, 2)._table is None


def test_image_reads_no_field_power(monkeypatch):
    calls = []
    pow_ = FieldSpec.pow
    monkeypatch.setattr(FieldSpec, "pow",
                        lambda *a: calls.append(a) or pow_(*a))
    for (p, m), n, k in [((5, 1), 3, 3), ((2, 2), 3, 2), ((3, 2), 2, 4)]:
        F = make_field(p, m)
        kth_root_map.cache_clear()  # the root map is built pow-free too
        image = oracle._power_image(F, n, k)
        assert calls == [], (F.q, n, k)
        assert image == {P.entries: A.entries for P, A in
                         kth_powers_reference(F, n, k).items()}


def test_all_kth_powers_reads_the_engine_image(F3, monkeypatch):
    builds = []
    image = oracle._power_image
    monkeypatch.setattr(oracle, "_power_image",
                        lambda *a: builds.append(a) or image(*a))
    _fresh_layers()
    assert min_waring_number(F3, from_text(F3, "0,1;0"), 2, 3) == 3
    assert builds == [(F3, 2, 2)]
    powers = all_kth_powers(F3, 2, 2)
    assert builds == [(F3, 2, 2)]  # no second walk
    assert list(powers.items()) == list(
        kth_powers_reference(F3, 2, 2).items())


def test_engine_reads_the_sub_table_from_n_two(F13):
    # 40 twelfth powers in T_2(F_13), fewer than the 169 table entries:
    # the walk built the tables, so the engine subtracts through them
    _fresh_layers()
    engine = oracle._power_layers(F13, 2, 12)
    assert len(engine.roots) == 40
    assert engine._table is oracle._field_tables(F13)[1]
    rep = waring_report(F13, 2, 12, cap=4)
    assert rep.per_matrix_min == report_reference(F13, 2, 12, 4).per_matrix_min
    assert_witnesses_valid(rep)


@pytest.mark.parametrize("k", [0, -1])
def test_all_kth_powers_rejects_exponents_below_one(F3, k):
    # mat_pow(A, 0) is I for every A, so no enumeration could give the image
    with pytest.raises(ValueError, match="k must be >= 1"):
        all_kth_powers(F3, 2, k)


class DistinctValueLayers(oracle._SumsetLayers):
    """Reference: the engine under the distinct-value diagonal verdict,
    True when d splits as d_1 + ... + d_s, every d_j in K^n and d_1
    pairwise distinct (a matching of the positions into K), since a
    pairwise distinct diagonal of k-th powers makes a k-th power."""

    def _verdict(self, options):
        values = [[v for _, v in opts] for opts in options]
        return all(values) and (
            _matchable(values, kth_root_map(self.field, self.k)) or None)


@pytest.fixture
def search_calls(monkeypatch):
    """Counts `_SumsetLayers._search` calls, the recursive ones included."""
    calls = [0]
    search = oracle._SumsetLayers._search

    def counted(self, c, s):
        calls[0] += 1
        return search(self, c, s)

    monkeypatch.setattr(oracle._SumsetLayers, "_search", counted)
    return calls


def reports_by_both_engines(monkeypatch, calls, F, n, k):
    """waring_report by the engine and by DistinctValueLayers, each built
    cold in a cache of its own, with the `_search` calls each made."""
    out = []
    for engine in (oracle._SumsetLayers, DistinctValueLayers):
        monkeypatch.setattr(oracle, "_cached_layers", functools.lru_cache(
            maxsize=oracle.LAYER_CACHE_SIZE)(engine))
        calls[0] = 0
        out.append((waring_report(F, n, k), calls[0]))
    return out


@pytest.mark.parametrize("p, m, n, k", [
    (p, m, 2, k) for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                              (2, 3), (3, 2)] for k in (2, 3)]
    + [(3, 1, 3, 2), (3, 1, 3, 3), (2, 2, 3, 2), (5, 1, 3, 2)])
def test_report_matches_distinct_value_engine(monkeypatch, search_calls,
                                              p, m, n, k):
    F = make_field(p, m)
    (rep, made), (ref, ref_made) = reports_by_both_engines(
        monkeypatch, search_calls, F, n, k)
    assert list(rep.per_matrix_min.items()) == list(
        ref.per_matrix_min.items())
    assert rep.histogram() == ref.histogram()
    assert rep.witnesses == ref.witnesses
    assert made <= ref_made


def test_report_search_work(monkeypatch, search_calls):
    # a diagonal of squares with 0 at most once (p does not divide k) makes
    # a square, distinct or not, so no query on T_3(F_5) searches
    (_, made), (_, ref_made) = reports_by_both_engines(
        monkeypatch, search_calls, make_field(5), 3, 2)
    assert (made, ref_made) == (0, 4000)
    (_, made), (_, ref_made) = reports_by_both_engines(
        monkeypatch, search_calls, make_field(3), 3, 2)
    assert ref_made == 1562 and made < ref_made


def bn_system_reference(n):
    """Reference: _bn_system's equations and unknowns from the positions."""
    at = [i * n - i * (i - 1) // 2 for i in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    unknowns = [(i, i) for i in range(n)] + [(i, j) for i, j in upper if i < j]
    col = {ij: c for c, ij in enumerate(unknowns)}
    equations = tuple(
        (tuple((col[l, j], at[i] + l - i) for l in range(i, j + 1)),
         tuple((col[i, l], at[l] + j - l) for l in range(i, j + 1)))
        for i, j in upper)
    return equations, tuple(col[ij] for ij in upper)


def iter_bn_reference(F, n):
    """Reference: B_n with the diagonal, then the strict upper entries
    row-major, each in encoding order, placed entry by entry."""
    for diag_vals in itertools.product(range(1, F.q), repeat=n):
        for uppers in itertools.product(F.elements(), repeat=n * (n - 1) // 2):
            entries, it = [], iter(uppers)
            for i in range(n):
                entries.append(diag_vals[i])
                entries.extend(next(it) for _ in range(i + 1, n))
            yield UTMatrix(F, n, tuple(entries))


def test_bn_system_and_order_match_reference():
    for n in range(9):
        assert oracle._bn_system(n) == bn_system_reference(n), n
    for (p, m), sizes in [((2, 1), range(5)), ((3, 1), range(4)),
                          ((2, 2), range(4)), ((5, 1), range(3))]:
        F = make_field(p, m)
        for n in sizes:
            # bn_conjugate's unknowns, in product order (the last varying
            # fastest), place B_n in the reference order
            _, unknown_of = oracle._bn_system(n)
            ranges = [range(1, F.q)] * n + [F.elements()] * (n * (n - 1) // 2)
            assert [UTMatrix(F, n, tuple(v[c] for c in unknown_of))
                    for v in itertools.product(*ranges)] == \
                list(iter_bn_reference(F, n)), (F.q, n)
