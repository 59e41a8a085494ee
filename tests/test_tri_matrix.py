import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from triwaring.errors import (
    BadPartitionError,
    DiagNotKthPowerError,
    FieldMismatchError,
    IndexOutOfRangeError,
    ParseError,
    PreconditionViolatedError,
    RootMismatchError,
    SizeMismatchError,
    TriwaringError,
)
from triwaring.claims import embed_power, power_diff_quotient
from triwaring.fields import (
    FieldSpec,
    kth_root_map,
    kth_roots,
    make_field,
)
from triwaring.oracle import all_kth_powers, iter_matrices
from triwaring import tri_matrix
from triwaring.tri_matrix import (
    UTMatrix,
    _chain,
    _diagonal_at,
    _root_parts,
    backsub_root,
    diag,
    elementary,
    from_rows,
    from_text,
    identity,
    jordan_block,
    junction_matrix,
    mat_inv,
    mat_mul,
    mat_pow,
    to_text,
    zero,
)
from tests.conftest import PRIME_POWERS_49


def rand_matrix(rng, F, n):
    width = n * (n + 1) // 2
    return UTMatrix(F, n, tuple(rng.randrange(F.q) for _ in range(width)))


def test_mat_mul_examples(F7):
    A = from_rows(F7, [[2, 3], [0, 3]])
    assert mat_mul(A, A) == A @ A == from_rows(F7, [[4, 1], [0, 2]])
    assert repr(A) == "UTMatrix(F_7, '2,3;3')"
    assert mat_mul(identity(F7, 2), A) == A
    E12 = elementary(F7, 3, 1, 2)
    E23 = elementary(F7, 3, 2, 3)
    assert mat_mul(E12, E23) == elementary(F7, 3, 1, 3)
    assert mat_mul(E23, E12) == zero(F7, 3)


def test_mat_mul_mismatches(F7, F13):
    for op in (mat_mul, operator.add, operator.sub):
        with pytest.raises(SizeMismatchError):
            op(zero(F7, 2), zero(F7, 3))
        with pytest.raises(FieldMismatchError):
            op(zero(F7, 2), zero(F13, 2))


def test_sum_and_difference_are_entrywise(F7, F9):
    rng = random.Random(46)
    for F in (F7, F9):
        for n in range(4):
            for _ in range(25):
                A, B = rand_matrix(rng, F, n), rand_matrix(rng, F, n)
                assert (A + B).entries == tuple(
                    F.add(a, b) for a, b in zip(A.entries, B.entries))
                assert (A - B).entries == tuple(
                    F.sub(a, b) for a, b in zip(A.entries, B.entries))


def test_mat_pow_examples(F7, F13):
    A = from_rows(F7, [[1, 5], [0, 2]])
    assert mat_pow(A, 0) == identity(F7, 2)
    assert mat_pow(A, 2) == from_rows(F7, [[1, 1], [0, 4]])
    B = from_rows(F13, [[1, 11], [0, 5]])
    assert mat_pow(B, 2) == from_rows(F13, [[1, 1], [0, 12]])
    with pytest.raises(ValueError, match="negative powers"):
        mat_pow(A, -1)


def mat_pow_reference(A, k):
    """Reference: A^k by the right-to-left square-and-multiply loop."""
    if k == 0:
        return identity(A.field, A.n)
    square, result = A, None
    while True:
        if k & 1:
            result = square if result is None else mat_mul(result, square)
        k >>= 1
        if not k:
            return result
        square = mat_mul(square, square)


def test_mat_pow_matches_right_to_left_reference(monkeypatch):
    # the chain builds k from 1 by doubling and adding one, bit by bit
    for k in range(1, 300):
        e = 1
        for square in _chain(k):
            e = 2 * e if square else e + 1
        assert e == k
    products = [0]
    packed_mul = tri_matrix._packed_mul

    def counted(*args):
        products[0] += 1
        return packed_mul(*args)

    monkeypatch.setattr(tri_matrix, "_packed_mul", counted)
    rng = random.Random(24)
    for spec in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (13, 1), (31, 1)]:
        F = make_field(*spec)
        for n in range(7):
            A = rand_matrix(rng, F, n)
            for k in sorted({*range(41), F.q - 1, F.q, F.q + 1}):
                counts = []
                for power in (mat_pow, mat_pow_reference):
                    products[0] = 0
                    counts.append((power(A, k), products[0]))
                # one value, and as many products in either order
                assert counts[0] == counts[1], (F.q, n, k, to_text(A))


def test_mat_pow_diagonal_is_entrywise(F13):
    rng = random.Random(5)
    for _ in range(20):
        A = rand_matrix(rng, F13, 4)
        P = mat_pow(A, 5)
        assert P.diagonal() == tuple(F13.pow(a, 5) for a in A.diagonal())


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PRIME_POWERS_49), st.integers(1, 4), st.data())
def test_mat_mul_associative(pm, n, data):
    F = make_field(*pm)
    width = n * (n + 1) // 2
    draw = lambda: UTMatrix(F, n, tuple(
        data.draw(st.integers(0, F.q - 1)) for _ in range(width)))
    A, B, C = draw(), draw(), draw()
    assert mat_mul(mat_mul(A, B), C) == mat_mul(A, mat_mul(B, C))
    assert mat_mul(A, B + C) == mat_mul(A, B) + mat_mul(A, C)


def test_root_distinct_diag_examples(F7, F13):
    A = backsub_root(from_rows(F7, [[1, 1], [0, 4]]), 2)
    assert A == from_rows(F7, [[1, 5], [0, 2]])
    B = backsub_root(from_rows(F13, [[1, 1], [0, 12]]), 2)
    assert B == from_rows(F13, [[1, 11], [0, 5]])
    # diagonal input gives a diagonal root
    D = backsub_root(diag(F13, [1, 12, 3]), 2)
    assert D == diag(F13, [1, 5, 4])


def test_root_distinct_diag_errors(F7):
    # a repeated diagonal is no obstacle where the divisor stays nonzero
    assert backsub_root(diag(F7, [1, 1]), 2) == diag(F7, [1, 1])
    with pytest.raises(DiagNotKthPowerError):
        backsub_root(diag(F7, [1, 3]), 2)  # 3 is a non-square


def test_backsub_root_given_roots(F7):
    C = diag(F7, [1, 2]).with_entry(1, 2, 3)
    # given roots fix the diagonal; only the strict upper part is matched
    A = backsub_root(C, 2, [1, 1])
    assert A.diagonal() == (1, 1)
    assert mat_pow(A, 2).with_entries({(1, 1): 1, (2, 2): 2}) == C
    for roots in ([1], [1, 1, 1]):
        with pytest.raises(SizeMismatchError):
            backsub_root(C, 2, roots)
    with pytest.raises(ValueError, match="k must be >= 1"):
        backsub_root(C, 0, [1, 1])


def test_backsub_root_default_repeated_diagonal(all_fields):
    # least roots with repeats on the diagonal: a root or a vanishing
    # divisor under a nonzero residue, never a wrong root
    rng = random.Random(515)
    rooted = 0
    for _ in range(400):
        F = rng.choice(all_fields)
        k = rng.randint(1, 6)
        n = rng.randint(2, 5)
        image = sorted(kth_root_map(F, k))
        C = diag(F, [rng.choice(image[:2]) for _ in range(n)])
        C = C.with_entries({(i, j): rng.randrange(F.q)
                            for i in range(1, n + 1)
                            for j in range(i + 1, n + 1)})
        try:
            A = backsub_root(C, k)
        except PreconditionViolatedError:
            continue
        assert mat_pow(A, k) == C
        rooted += 1
    assert rooted > 100


def test_root_round_trip_random(all_fields):
    rng = random.Random(424242)
    fields = [F for F in all_fields]
    done = 0
    while done < 400:
        F = rng.choice(fields)
        k = rng.randint(1, 6)
        n = rng.randint(1, 6)
        image = sorted(kth_root_map(F, k))
        if len(image) < n:
            continue
        C = diag(F, rng.sample(image, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                C = C.with_entry(i, j, rng.randrange(F.q))
        A = backsub_root(C, k)
        assert mat_pow(A, k) == C
        done += 1


def backsub_root_reference(C, k, roots=None):
    """Back-substitution with one mat_pow of the partial root per
    superdiagonal: a_rs = (c_rs - (A^k)_rs) / pdq(a_rr, a_ss), the current
    superdiagonal still zero in A."""
    if k < 1:
        raise ValueError("k must be >= 1")
    F, n = C.field, C.n
    if roots is None:
        roots = []
        for i, c in enumerate(C.diagonal(), start=1):
            if not kth_roots(F, c, k):
                raise DiagNotKthPowerError(
                    f"diagonal entry {c} at position {i} is not a {k}-th "
                    f"power in F_{F.q}")
            roots.append(kth_roots(F, c, k)[0])
    A = diag(F, roots)
    if A.n != n:
        raise SizeMismatchError(f"{A.n} diagonal roots for size {n}")
    for dist in range(1, n):
        P = mat_pow(A, k)
        found = {}
        for r in range(1, n - dist + 1):
            s = r + dist
            delta = F.sub(C.get(r, s), P.get(r, s))
            f = power_diff_quotient(F, A.get(r, r), A.get(s, s), k)
            if f == 0:
                if delta != 0:
                    raise PreconditionViolatedError(
                        f"divisor vanishes at ({r},{s}) with residue {delta}")
                continue
            found[r, s] = F.mul(delta, F.inv(f))
        A = A.with_entries(found)
    return A


def root_outcome(root, C, k, roots):
    """"root" and the root's packed entries, or the type and message of
    its error."""
    try:
        return "root", root(C, k, roots).entries
    except (TriwaringError, ValueError) as err:
        return type(err).__name__, str(err)


def root_case(rng, F, n, k, mode):
    """A target and roots: the k-th power of a random matrix with default
    roots, a random matrix with default roots (mostly no k-th power on the
    diagonal), given roots drawn from outside [0, q) as well, or roots
    repeating two values, one root too many or too few now and then."""
    C = rand_matrix(rng, F, n)
    if mode == "power":
        return mat_pow(C, k), None
    if mode == "random":
        return C, None
    size = n + rng.choice((0, 0, 0, 0, 0, 1, -1)) if n else n
    if mode == "given":
        return C, [rng.randrange(-2 * F.q, 3 * F.q) for _ in range(size)]
    two = [rng.randrange(F.q) for _ in range(2)]
    return C, [rng.choice(two) for _ in range(size)]


ROOT_MODES = ("power", "random", "given", "repeated")


def test_backsub_root_matches_reference():
    # prime, extension and characteristic-2 fields, and every exponent
    # where the divisor pdq vanishes for a reason: p | k, q - 1 | k
    rng = random.Random(2020)
    seen = set()
    for p, m in [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3),
                 (3, 2), (5, 2)]:
        F = make_field(p, m)
        q = F.q
        for k in sorted({1, 2, 3, p, 2 * p, q - 1, q, q + 1, 40} - {0}):
            for n in range(8):
                for mode in ROOT_MODES * 2:
                    C, roots = root_case(rng, F, n, k, mode)
                    got = root_outcome(backsub_root, C, k, roots)
                    assert got == root_outcome(backsub_root_reference, C, k,
                                               roots), (F, k, mode, C, roots)
                    seen.add(got[0])
    assert seen == {"root", "DiagNotKthPowerError",
                    "PreconditionViolatedError", "SizeMismatchError"}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIME_POWERS_49), st.integers(0, 5),
       st.integers(1, 60), st.sampled_from(ROOT_MODES), st.randoms())
def test_backsub_root_matches_reference_property(pm, n, k, mode, rng):
    F = make_field(*pm)
    C, roots = root_case(rng, F, n, k, mode)
    got = root_outcome(backsub_root, C, k, roots)
    assert got == root_outcome(backsub_root_reference, C, k, roots)
    if roots is None and got[0] == "root":
        assert mat_pow(UTMatrix(F, n, got[1]), k) == C


def test_backsub_root_first_power_is_identity(all_fields):
    rng = random.Random(1)
    for F in all_fields:
        for n in range(6):
            C = rand_matrix(rng, F, n)
            assert backsub_root(C, 1) == C


def root_parts_reference(C, k, diagonals, owners):
    """backsub_root_reference over s parts: per superdiagonal, the residue
    c_rs - (sum_p A_p^k)_rs, divided by pdq in the owner's diagonal."""
    F, n = C.field, C.n
    parts = [diag(F, values) for values in diagonals]
    for dist in range(1, n):
        P = zero(F, n)
        for A in parts:
            P = P + mat_pow(A, k)
        found = [{} for _ in parts]
        for r in range(1, n - dist + 1):
            s = r + dist
            delta = F.sub(C.get(r, s), P.get(r, s))
            owner = owners.get((r, s))
            f = 0 if owner is None else power_diff_quotient(
                F, parts[owner].get(r, r), parts[owner].get(s, s), k)
            if f == 0:
                if delta != 0:
                    raise PreconditionViolatedError(
                        f"divisor vanishes at ({r},{s}) with residue {delta}")
                continue
            found[owner][r, s] = F.mul(delta, F.inv(f))
        parts = [A.with_entries(v) for A, v in zip(parts, found)]
    return parts


def test_root_parts_unowned_position(F7):
    # (1,2) belongs to no part, so its residue 5 has no divisor
    C = from_text(F7, "1,5,3;2,0;4")
    with pytest.raises(PreconditionViolatedError,
                       match=r"divisor vanishes at \(1,2\) with residue 5"):
        _root_parts(C, 2, [[1, 3, 2], [2, 2, 2]], {(1, 3): 0})
    # under a zero residue an unowned entry stays 0, and a part that owns
    # no position comes back diagonal
    A, B = _root_parts(C.with_entry(1, 2, 0), 2, [[1, 3, 2], [2, 2, 2]],
                       {(1, 3): 0})
    assert (A, B) == (from_text(F7, "1,0,1;3,0;2"), diag(F7, [2, 2, 2]))
    assert (mat_pow(A, 2) + mat_pow(B, 2)).get(1, 3) == 3


def test_root_parts_matches_reference():
    # random owner maps over one to three parts, some positions unowned
    rng = random.Random(14)
    seen = set()
    for _ in range(600):
        F = make_field(*rng.choice(PRIME_POWERS_49[:12]))
        n, s = rng.randint(1, 5), rng.randint(1, 3)
        k = rng.choice((1, 2, 3, 4, F.p, F.q - 1, F.q + 1))
        two = [rng.randrange(F.q) for _ in range(2)]
        diagonals = [[rng.choice(two) for _ in range(n)] for _ in range(s)]
        strict = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        owners = {ij: rng.randrange(s) for ij in strict
                  if rng.random() < 0.9}
        C = rand_matrix(rng, F, n)
        if rng.random() < 0.5:
            C = C.with_entries({ij: 0 for ij in strict if ij not in owners})
        try:
            expected = [A.entries for A in
                        root_parts_reference(C, k, diagonals, owners)]
        except PreconditionViolatedError as err:
            with pytest.raises(PreconditionViolatedError) as got:
                _root_parts(C, k, diagonals, owners)
            assert str(got.value) == str(err)
            seen.add("refused")
            continue
        parts = _root_parts(C, k, diagonals, owners)
        assert [A.entries for A in parts] == expected, (F, k, C, owners)
        total = zero(F, n)
        for A in parts:
            total = total + mat_pow(A, k)
        assert all(total[ij] == C[ij] for ij in owners)
        seen.add("rooted")
    assert seen == {"rooted", "refused"}


class MulCountingField(FieldSpec):
    """F_p that counts its multiplications."""

    muls = 0

    def mul(self, a, b):
        MulCountingField.muls += 1
        return super().mul(a, b)


def test_backsub_root_work_count():
    # one walk of the chain: O(n^3 log k) products, against n - 1 whole
    # matrix powers of the partial root
    F = MulCountingField(101, 1, (0, 1))
    n = 30
    rng = random.Random(30)
    for k in (2, 3, 40):
        # roots with one root per k-th power value, repeats allowed: no
        # divisor vanishes, so every position is solved
        reps = [fiber[0] for v, fiber in kth_root_map(F, k).items() if v]
        roots = [rng.choice(reps) for _ in range(n)]
        C = rand_matrix(rng, F, n)
        MulCountingField.muls = 0
        A = backsub_root(C, k, roots)
        assert MulCountingField.muls <= n ** 3 * 2 * math.ceil(math.log2(k))
        # given roots: A^k matches C above the diagonal
        assert mat_pow(A, k).with_entries(
            {(i, i): C[i, i] for i in range(1, n + 1)}) == C


def test_backsub_root_checks_its_root(F7, monkeypatch):
    # a root that misses C above the diagonal never leaves backsub_root,
    # with least roots or with given ones (whose squares miss c_22 here)
    C = from_rows(F7, [[1, 1], [0, 4]])
    walk = tri_matrix._root_parts

    def corrupt(C, k, diagonals, owners=None):
        A, *rest = walk(C, k, diagonals, owners)
        return [A.with_entry(1, 2, A[1, 2] + 1), *rest]

    for roots in (None, [1, 1]):
        backsub_root(C, 2, roots)
    monkeypatch.setattr(tri_matrix, "_root_parts", corrupt)
    for roots in (None, [1, 1]):
        with pytest.raises(RootMismatchError, match="failed verification"):
            backsub_root(C, 2, roots)


def test_root_parts_walks_only_the_owning_parts():
    # parts that own no position cost nothing: three parts under part 0's
    # ownership take the products of one
    F = MulCountingField(101, 1, (0, 1))
    rng = random.Random(31)
    reps = [fiber[0] for v, fiber in kth_root_map(F, 5).items() if v]
    diagonals = [[rng.choice(reps) for _ in range(8)] for _ in range(3)]
    C = rand_matrix(rng, F, 8)
    MulCountingField.muls = 0
    (A,) = _root_parts(C, 5, diagonals[:1])  # backsub_root adds its check
    one = MulCountingField.muls
    assert A == backsub_root(C, 5, diagonals[0])
    MulCountingField.muls = 0
    parts = _root_parts(C, 5, diagonals)
    assert MulCountingField.muls == one
    assert parts == [A, diag(F, diagonals[1]), diag(F, diagonals[2])]


def sparse_instance(rng, F, n, k):
    image = sorted(kth_root_map(F, k))
    dvals = [rng.choice(image) for _ in range(n)]
    C = diag(F, dvals)
    placed = []
    pos = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(pos)
    for i, j in pos:
        if dvals[i - 1] == dvals[j - 1]:
            continue
        if any(s == i or r == j for (r, s) in placed):
            continue
        if rng.random() < 0.4:
            continue
        placed.append((i, j))
        C = C.with_entry(i, j, rng.randrange(1, F.q))
    return C


def test_root_sparse_examples(F13):
    C = diag(F13, [1, 12, 1]).with_entry(1, 2, 1)
    A = backsub_root(C, 2)
    assert A == diag(F13, [1, 5, 1]).with_entry(1, 2, 11)
    assert mat_pow(A, 2) == C
    assert backsub_root(zero(F13, 3), 4) == zero(F13, 3)
    # a chain and an entry over equal diagonal values still root
    for C in (diag(F13, [1, 12, 1]).with_entries({(1, 2): 1, (2, 3): 1}),
              diag(F13, [1, 1]).with_entry(1, 2, 1)):
        assert mat_pow(backsub_root(C, 2), 2) == C
    # pdq(0, 0) = 0 under the residue 1, and no square is "0,1;0"
    C = from_text(F13, "0,1;0")
    with pytest.raises(PreconditionViolatedError):
        backsub_root(C, 2)
    assert C not in all_kth_powers(F13, 2, 2)


def sparse_root_reference(C, k):
    """The no-chain formula entry by entry: a_rs = c_rs / pdq(a_rr, a_ss)
    over the smallest diagonal roots."""
    F = C.field
    A = diag(F, [kth_roots(F, c, k)[0] for c in C.diagonal()])
    return A.with_entries({
        (i, j): F.mul(C[i, j], F.inv(power_diff_quotient(F, A[i, i], A[j, j], k)))
        for i, j in C.nonzero_strict_positions()})


def test_root_sparse_matches_no_chain_formula():
    # backsub_root runs the general back-substitution; on no-chain
    # inputs its correction terms vanish and it gives the formula's root
    rng = random.Random(20231)
    fields = [make_field(p, m) for p, m in
              [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (3, 3)]]
    for F in fields:
        for k in (2, 3, 4):
            for _ in range(25):
                C = sparse_instance(rng, F, rng.randint(1, 6), k)
                assert backsub_root(C, k) == sparse_root_reference(C, k)


def test_with_entries_builder(F7):
    M = diag(F7, [1, 2, 3])
    chained = M.with_entry(1, 2, 9).with_entry(2, 3, -1).with_entry(1, 1, 7)
    built = M.with_entries({(1, 2): 9, (2, 3): -1, (1, 1): 7})
    assert built == chained == from_text(F7, "0,2,0;2,6;3")
    assert M == diag(F7, [1, 2, 3])  # the source is left alone
    assert M.with_entries({}) == M
    with pytest.raises(IndexOutOfRangeError):
        M.with_entries({(1, 2): 1, (3, 2): 1})  # below the diagonal
    with pytest.raises(IndexOutOfRangeError):
        M.with_entries({(1, 4): 1})


def test_root_sparse_round_trip_random(all_fields):
    rng = random.Random(99)
    done = 0
    while done < 400:
        F = rng.choice(all_fields)
        k = rng.randint(1, 6)
        n = rng.randint(1, 6)
        C = sparse_instance(rng, F, n, k)
        A = backsub_root(C, k)
        assert mat_pow(A, k) == C
        done += 1


def test_zero_propagation(all_fields):
    # with a_rs * a_st = 0 for r < s < t, zero entries stay zero in every
    # power, and (A^m)_rs * a_st stays zero
    rng = random.Random(7)
    for _ in range(200):
        F = rng.choice(all_fields[:8])
        n = rng.randint(2, 5)
        C = sparse_instance(rng, F, n, 2)
        for m in range(1, 6):
            P = mat_pow(C, m)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if C.get(i, j) == 0:
                        assert P.get(i, j) == 0
            for r in range(1, n + 1):
                for s in range(r + 1, n + 1):
                    for t in range(s + 1, n + 1):
                        assert F.mul(P.get(r, s), C.get(s, t)) == 0


def test_2x2_cube_obstruction_exhaustive(F3):
    # p | k: the unipotent-plus-nilpotent shape is never a cube
    target = from_rows(F3, [[1, 1], [0, 1]])
    seen = set()
    for entries in itertools.product(range(3), repeat=3):
        seen.add(mat_pow(UTMatrix(F3, 2, entries), 3))
    assert target not in seen


def test_embed_power_example(F7):
    C = from_rows(F7, [[1, 1], [0, 4]])
    root = from_rows(F7, [[1, 5], [0, 2]])
    B, rootB = embed_power(C, root, 2, 3, 2)
    assert B == from_rows(F7, [[1, 0, 1], [0, 2, 0], [0, 0, 4]])
    assert rootB == from_rows(F7, [[1, 0, 5], [0, 3, 0], [0, 0, 2]])
    B1, r1 = embed_power(C, root, 1, 3, 2)
    assert B1 == from_rows(F7, [[2, 0, 0], [0, 1, 1], [0, 0, 4]])
    B3, r3 = embed_power(C, root, 3, 3, 2)
    assert B3 == from_rows(F7, [[1, 1, 0], [0, 4, 0], [0, 0, 2]])


def test_embed_power_all_indices(F13):
    rng = random.Random(3)
    image = sorted(kth_root_map(F13, 3))
    for _ in range(25):
        n = rng.randint(1, 4)
        C = diag(F13, rng.sample(image, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                C = C.with_entry(i, j, rng.randrange(13))
        root = backsub_root(C, 3)
        for l in range(1, n + 2):
            x = rng.randrange(1, 13)
            B, rootB = embed_power(C, root, l, x, 3)
            assert mat_pow(rootB, 3) == B
            assert B.get(l, l) == F13.pow(x, 3)


def test_embed_power_errors(F7, F9):
    C = from_rows(F7, [[1, 1], [0, 4]])
    with pytest.raises(RootMismatchError):
        embed_power(C, identity(F7, 2), 1, 3, 2)
    root = from_rows(F7, [[1, 5], [0, 2]])
    with pytest.raises(ValueError):
        embed_power(C, root, 1, 0, 2)
    with pytest.raises(IndexOutOfRangeError):
        embed_power(C, root, 4, 3, 2)
    # x = q would insert a zero root under the nonzero x^k; over F_9 an
    # unchecked x = 12 ends in F.pow's IndexError
    for x in (7, -1):
        with pytest.raises(FieldMismatchError, match=r"outside \[0, 7\)"):
            embed_power(C, root, 2, x, 2)
    with pytest.raises(FieldMismatchError, match=r"outside \[0, 9\)"):
        embed_power(identity(F9, 1), identity(F9, 1), 1, 12, 2)
    # the inputs are checked before rootC^k = C is: a root of another
    # size or field is refused as such, and k < 1 even where I^k = I
    with pytest.raises(SizeMismatchError, match="sizes 2 and 3 differ"):
        embed_power(C, identity(F7, 3), 1, 3, 2)
    with pytest.raises(FieldMismatchError, match="different fields"):
        embed_power(C, identity(F9, 2), 1, 3, 2)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            embed_power(identity(F7, 2), identity(F7, 2), 1, 2, k)


def test_constructors(F3, F7):
    J = junction_matrix(F3, (1, 1, 1, 2))
    assert J == (elementary(F3, 5, 1, 2) + elementary(F3, 5, 2, 3)
                 + elementary(F3, 5, 3, 4))
    assert junction_matrix(F3, (1, 2, 2)) == (
        elementary(F3, 5, 1, 2) + elementary(F3, 5, 3, 4))
    assert junction_matrix(F3, (2, 2)) == elementary(F3, 4, 2, 3)
    assert jordan_block(F7, 0, 2) == elementary(F7, 2, 1, 2)
    assert jordan_block(F7, 3, 3) == from_rows(
        F7, [[3, 1, 0], [0, 3, 1], [0, 0, 3]])
    with pytest.raises(BadPartitionError):
        junction_matrix(F3, (0, 2))
    with pytest.raises(BadPartitionError):
        junction_matrix(F3, ())
    with pytest.raises(IndexOutOfRangeError):
        elementary(F3, 3, 3, 2)


def test_text_format(F3, F13):
    assert to_text(jordan_block(F3, 0, 2)) == "0,1;0"
    assert from_text(F3, "0,1;0") == jordan_block(F3, 0, 2)
    with pytest.raises(SizeMismatchError):
        from_text(F3, "0,1;0,2")
    with pytest.raises(ParseError):
        from_text(F3, "0,5;0")  # out of range
    with pytest.raises(ParseError):
        from_text(F3, "x,1;0")
    M = from_rows(F13, [[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    assert from_text(F13, to_text(M)) == M


def test_packed_layout_reads_full_rows(F13):
    # row i of the packed layout starts after the n - j entries of each
    # row j above it and holds (i, i), ..., (i, n)
    rng = random.Random(21)
    for n in range(8):
        assert _diagonal_at(n) == tuple(sum(n - j for j in range(i))
                                        for i in range(n))
        rows = [[0] * i + [rng.randrange(13) for _ in range(n - i)]
                for i in range(n)]
        M = from_rows(F13, rows)
        assert M.diagonal() == tuple(rows[i][i] for i in range(n))
        assert to_text(M) == ";".join(",".join(map(str, row[i:]))
                                      for i, row in enumerate(rows))
        assert all(M[i + 1, j + 1] == rows[i][j]
                   for i in range(n) for j in range(n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIME_POWERS_49), st.integers(1, 5), st.data())
def test_text_round_trip(pm, n, data):
    F = make_field(*pm)
    width = n * (n + 1) // 2
    M = UTMatrix(F, n, tuple(
        data.draw(st.integers(0, F.q - 1)) for _ in range(width)))
    assert from_text(F, to_text(M)) == M


def test_mat_inv(F13):
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        M = diag(F13, [rng.randrange(1, 13) for _ in range(n)])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                M = M.with_entry(i, j, rng.randrange(13))
        assert mat_mul(M, mat_inv(M)) == identity(F13, n)
        assert mat_mul(mat_inv(M), M) == identity(F13, n)
    with pytest.raises(ZeroDivisionError):
        mat_inv(diag(F13, [1, 0]))


def inverse_reference(A):
    """A^-1 by back substitution, superdiagonal by superdiagonal: x_ii =
    1 / a_ii and x_ij = -x_ii sum_(i<l<=j) a_il x_lj."""
    F, n = A.field, A.n
    x = {(i, i): F.inv(A.get(i, i)) for i in range(1, n + 1)}
    for d in range(1, n):
        for i in range(1, n - d + 1):
            j = i + d
            acc = 0
            for l in range(i + 1, j + 1):
                acc = F.add(acc, F.mul(A.get(i, l), x[l, j]))
            x[i, j] = F.neg(F.mul(x[i, i], acc))
    return zero(F, n).with_entries(x)


def test_mat_inv_matches_back_substitution():
    # 20 seeded invertible matrices per field up to F_25 and size 0-6
    rng = random.Random(48)
    for p, m in [pm for pm in PRIME_POWERS_49 if pm[0] ** pm[1] <= 25]:
        F = make_field(p, m)
        for n in range(7):
            for _ in range(20):
                A = UTMatrix(F, n, tuple(
                    rng.randrange(1 if i == j else 0, F.q)
                    for i in range(n) for j in range(i, n)))
                assert mat_inv(A) == inverse_reference(A), (F, A)


def test_powers_repeat_with_the_exponent_of_the_algebra():
    # A^k = A^kappa(k): kappa(k) = k below n, and n + (k - n) mod E from
    # n on, with E = (q - 1) p^e and p^e the least power of p with
    # p^e >= n. The nilpotent part is gone by the n-th power, and the
    # units have exponent E. Neither a proper divisor of E nor index
    # n - 1 would do
    for (p, m), n, E in (((5, 1), 2, 20), ((3, 1), 3, 6), ((2, 2), 2, 6),
                         ((2, 1), 4, 4)):
        F, pe = make_field(p, m), 1
        while pe < n:
            pe *= p
        assert E == (F.q - 1) * pe
        periods = {d for d in range(1, E) if E % d == 0}
        index_needed = False
        for A in iter_matrices(F, n):
            powers = [identity(F, n)]
            for _ in range(n + 2 * E):
                powers.append(powers[-1] @ A)
            for k, P in enumerate(powers):
                assert P == powers[k if k < n else n + (k - n) % E], (A, k)
            periods -= {d for d in periods if powers[n + d] != powers[n]}
            index_needed |= powers[n - 1 + E] != powers[n - 1]
        assert not periods and index_needed, (F, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIME_POWERS_49), st.integers(0, 4), st.data())
def test_constructor_refuses_entries_outside_field(pm, n, data):
    F = make_field(*pm)
    q, width = F.q, n * (n + 1) // 2
    for v in (0, q - 1):
        assert UTMatrix(F, n, (v,) * width).entries == (v,) * width
    entries = tuple(data.draw(st.lists(st.integers(-q, 2 * q - 1),
                                       min_size=width, max_size=width)))
    if all(0 <= e < q for e in entries):
        assert UTMatrix(F, n, entries).entries == entries
    else:
        with pytest.raises(FieldMismatchError, match=rf"outside \[0, {q}\)"):
            UTMatrix(F, n, entries)


def test_out_of_field_matrices_are_refused_when_built():
    # once these reached bn_conjugate, backsub_root and
    # verify_decomposition: an IndexError over F_9, a wrong True over F_5
    F5 = make_field(5)
    with pytest.raises(FieldMismatchError):
        UTMatrix(make_field(3, 2), 2, (1, 12, 1))
    with pytest.raises(FieldMismatchError):
        UTMatrix(F5, 2, (7, 0, 7))
    # the builders that take values reduce them mod q
    assert diag(F5, [7, -1]).entries == (2, 0, 4)
    assert from_rows(F5, [[7, 5], [0, -1]]).entries == (2, 0, 4)


def test_packing_and_get(F7):
    M = from_rows(F7, [[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    assert M.entries == (1, 2, 3, 4, 5, 6)
    assert M.get(2, 1) == 0
    assert M[1, 3] == 3
    with pytest.raises(IndexOutOfRangeError):
        M.get(0, 1)
    with pytest.raises(SizeMismatchError):
        UTMatrix(F7, 2, (1, 2))
    with pytest.raises(SizeMismatchError, match="below the diagonal"):
        from_rows(F7, [[1, 2], [3, 4]])
    with pytest.raises(SizeMismatchError, match="ragged rows"):
        from_rows(F7, [[1, 2], [4]])


def test_a_negative_size_is_refused(F7):
    # every builder passes the size to the constructor, which names it
    for n in (-1, -2, -3):
        for build in (lambda: UTMatrix(F7, n, (3,)), lambda: zero(F7, n),
                      lambda: identity(F7, n),
                      lambda: jordan_block(F7, 1, n)):
            with pytest.raises(SizeMismatchError, match=f"size {n} "):
                build()
    empty = UTMatrix(F7, 0, ())  # size 0 is still the empty matrix
    assert zero(F7, 0) == identity(F7, 0) == jordan_block(F7, 1, 0) == empty
