"""Exact arithmetic in F_q, q = p^m.

Elements are plain integers in [0, q): the base-p little-endian digits of an
encoding are the coefficients of a polynomial residue modulo an irreducible
monic modulus of degree m. Two elements are equal iff their encodings are
equal, so sets and dict keys work with no wrapper type.

Prime fields (m = 1) use direct modular arithmetic. Extension fields build
discrete exp/log tables at construction, from one walk over the powers of
the least multiplicative generator g through the table of v -> g v, and a
Zech table log(1 + g^n) read off them, which keeps add/sub/neg as well as
mul/inv/pow at table-lookup cost during the exhaustive scans this package
lives on. For p > 2, a degree-1 candidate g = a x + b is skipped with no
table when its norm (-a)^m f(-b/a) mod p is not a primitive root mod p: the
norm of a generator of F_q^* generates F_p^*. A modulus is accepted, before
any table is built, when it has no root in F_p and, at m = 4, no monic
quadratic factor: a reducible f of degree m has a factor of degree
<= m // 2 <= 2.
"""

from __future__ import annotations

import functools
import math
import operator
import os

from .errors import (
    DegreeMismatchError,
    EnumerationTooLargeError,
    FieldMismatchError,
    NotPrimeError,
    ReducibleModulusError,
)

Element = int

# Largest extension field built: its exp/log/Zech tables hold about 4q
# entries, and the build holds about 3q more (the multiplication table, one
# digit shift and the walk) until it returns. Building F_{31^4}, q = 923,521,
# peaks at about 116 MB of RSS (CPython 3.11, x86-64).
MAX_EXTENSION_Q = 10 ** 6
FIELD_CACHE_SIZE = 64  # (p, m, modulus) fields kept, least recently used out
ROOT_MAP_CACHE_SIZE = 64  # (F, k) root maps kept, least recently used out
# The one enumeration budget: the steps any guarded call may take.
DEFAULT_ENUM_GUARD = 10 ** 8


def _too_large(work: int, exponent: int,
               limit: int) -> EnumerationTooLargeError:
    """The refusal of `work ** exponent` steps: the size written as `work`
    in decimal, then `^exponent` unless it is 1. A `work` with more digits
    than the interpreter prints (`sys.get_int_max_str_digits()`) is
    written by its bit length instead, as `2^b or more`, a lower bound."""
    try:
        size = str(work) + (f"^{exponent}" if exponent != 1 else "")
    except ValueError:
        size = f"2^{exponent * (work.bit_length() - 1)} or more"
    return EnumerationTooLargeError(
        f"enumeration of size {size} exceeds guard {limit}")


def enum_guard(work: int, exponent: int = 1) -> None:
    """Hard error when a call would take more than the budget's steps;
    `work ** exponent` is the number of steps the guarded call takes,
    counted before it starts. A power past the budget by a factor of more
    than 2^64 is refused without being formed, its size written as
    `work^exponent`. WARING_MAX_ENUM overrides DEFAULT_ENUM_GUARD
    (documented as at-your-own-risk); a value that is not an integer fails
    closed with the same error."""
    raw = os.environ.get("WARING_MAX_ENUM")
    try:
        limit = DEFAULT_ENUM_GUARD if raw is None else int(raw)
    except ValueError:
        raise EnumerationTooLargeError(
            f"WARING_MAX_ENUM={raw!r} is not an integer") from None
    if work > 1 and exponent * math.log2(work) > limit.bit_length() + 64:
        raise _too_large(work, exponent, limit)
    work **= exponent
    if work > limit:
        raise _too_large(work, 1, limit)


# Miller-Rabin to the first 13 prime bases decides primality for every
# n below this bound (Sorenson and Webster, Math. Comp. 86 (2017)); the
# bound itself is a strong pseudoprime to all 13.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_TEST_BOUND (ValueError
    beyond it): n - 1 = 2^s d with d odd, and n is prime iff every base b
    has b^d = 1 or b^(2^r d) = -1 mod n for some r < s."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _horner(coeffs, a: int, p: int) -> int:
    """f(a) mod p for the polynomial f with little-endian `coeffs`."""
    value = 0
    for c in reversed(coeffs):
        value = (value * a + c) % p
    return value


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Whether the monic f of degree m <= 4 is irreducible over F_p: it is
    reducible iff it has a monic factor of degree <= m // 2 <= 2, that is a
    root in F_p or, at m = 4, a monic quadratic factor, found by dividing f
    by each of the p^2 monic quadratics."""
    m = len(coeffs) - 1
    if m <= 1:
        return True
    if any(_horner(coeffs, a, p) == 0 for a in range(p)):  # x - a divides f
        return False
    return m < 4 or all(_poly_mod(coeffs, [b, a, 1], p)
                        for a in range(p) for b in range(p))


class Record:
    """Base of the package's immutable value types.

    A record's fields are its base record's fields followed by the names
    of its own `__slots__`. A record writes its own `__init__`, whose
    parameters are the first of its fields, in order, and which passes
    them on to `Record.__init__`: the one place that sets a record's
    fields past the frozen `__setattr__`. Assigning or deleting a field
    afterwards raises AttributeError. Two records are equal, and hash
    alike, on the fields named by `compare` in the class statement (in
    a subclass, its base's `compare`; all fields by default), and only
    when their classes are the same. repr is `Name(field=value, ...)`
    over the fields. Nothing is generated or compiled when a record class
    is defined, which keeps a one-shot call's start-up short."""

    __slots__ = ()
    _fields = ()
    _compare = None

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        own = (own,) if isinstance(own, str) else tuple(own)
        cls._fields = (*cls._fields,
                       *(name for name in own if name not in cls._fields))
        if compare is not None:
            cls._compare = tuple(compare)
        names = cls._compare or cls._fields
        cls._key = (operator.attrgetter(*names) if names
                    else lambda record: ())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots (state[1]) past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def check_elements(F: FieldSpec, values, what: str = "element") -> None:
    """FieldMismatchError naming the first of `values` outside [0, q): the
    one element check, made once by each public function on what it is
    given. FieldSpec's arithmetic itself trusts its arguments."""
    q = F.q
    for v in values:
        if not 0 <= v < q:
            raise FieldMismatchError(f"{what} {v} is outside [0, {q})")


class FieldSpec(Record):
    """The ambient field F_q with a pinned modulus.

    `FieldSpec(p, m=1, modulus=None)` checks its arguments before any
    table is built, in this order: p below PRIME_TEST_BOUND
    (EnumerationTooLargeError) and prime (NotPrimeError); 1 <= m <= 4
    (DegreeMismatchError); q <= MAX_EXTENSION_Q when m > 1
    (EnumerationTooLargeError); then a given modulus, reduced mod p, of
    degree m and monic (DegreeMismatchError) and, when m > 1, irreducible
    (ReducibleModulusError). With modulus omitted, the monic irreducible
    of degree m with the smallest encoding is selected, so the same
    (p, m) names the same field in every run. `make_field` is the bounded
    cache over this constructor.

    Immutable and hashable on (p, m, modulus); safe to share across workers.
    All arithmetic methods are pure functions of their integer arguments,
    which they trust to be elements of F_q (integers in [0, q)): they are
    the hot path of every product, so a value outside that range is not
    caught here but by the public function that took it (`check_elements`).
    """

    __slots__ = ("p", "m", "modulus", "q", "_exp", "_log", "_zech")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if p >= PRIME_TEST_BOUND:
            raise EnumerationTooLargeError(
                f"p = {p} is too large: primality is decided for p < "
                f"{PRIME_TEST_BOUND} (Miller-Rabin to the bases 2..41)")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if m < 1:
            raise DegreeMismatchError(f"extension degree must be >= 1, got {m}")
        if m > 4:
            raise DegreeMismatchError(f"extension degree {m} unsupported (max 4)")
        if m > 1 and p ** m > MAX_EXTENSION_Q:
            raise EnumerationTooLargeError(
                f"F_{p ** m} (p = {p}, m = {m}) is too large: extension fields "
                f"are built up to q = {MAX_EXTENSION_Q} (exp/log tables)")
        if modulus is None:
            modulus = _default_modulus(p, m)
        else:
            # a tuple already reduced mod p is kept as the object given
            reduced = tuple(c % p for c in modulus)
            modulus = modulus if reduced == modulus else reduced
            if len(modulus) != m + 1:
                raise DegreeMismatchError(
                    f"modulus has degree {len(modulus) - 1}, expected {m}")
            if modulus[-1] != 1:
                raise DegreeMismatchError("modulus must be monic")
            if m > 1 and not _is_irreducible(modulus, p):
                raise ReducibleModulusError(
                    f"modulus {list(modulus)} is reducible over F_{p}")
        Record.__init__(self, p, m, modulus)
        object.__setattr__(self, "q", p ** m)
        tables = self._build_tables() if m > 1 else ((), (), ())
        for name, table in zip(("_exp", "_log", "_zech"), tables):
            object.__setattr__(self, name, table)

    # written out, as in UTMatrix: every cache lookup hashes a field, and
    # the attrgetter call of Record's versions costs more than the tuple
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.p, self.m, self.modulus)
                    == (other.p, other.m, other.modulus))
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- construction helpers -------------------------------------------

    def _build_tables(self):
        """Walk the powers of g = p, p + 1, ... through g's multiplication
        table, back to 1, skipping every g inside a subgroup already walked
        (encodings below p are constants, of order dividing p - 1). The first
        walk of q - 1 powers is the exp table, the log table inverts it, and
        the Zech table holds log(1 + g^n), or -1 where 1 + g^n = 0.

        For p > 2, a degree-1 candidate g = a x + b (p <= g < p^2) is first
        put to the norm test and skipped, with no table, when its norm
        N(g) = g^((q - 1)/(p - 1)) is not a primitive root mod p. Proof: if g
        has order q - 1, then N(g) has order p - 1. The norm is the product
        of g's conjugates a (alpha_i - c), c = -b/a, over the roots alpha_i
        of f, so N(g) = (-a)^m f(-b/a), one Horner evaluation mod p. A
        generator always passes, so the least one, and every table, is what
        the walk alone would give."""
        p, m, q = self.p, self.m, self.q
        order = q - 1
        # n is a primitive root mod p iff n^((p - 1)/r) != 1 for each prime
        # r dividing p - 1, found by trial division (p <= 1000, as an
        # extension field has q <= 10^6)
        cofactors = [(p - 1) // r for r in range(2, p)
                     if (p - 1) % r == 0 and is_prime(r)]
        walked = bytearray(q)
        for g in range(p, q):
            if walked[g]:
                continue
            if p > 2 and g < p * p:
                a, b = divmod(g, p)
                c = -b * pow(a, p - 2, p) % p
                norm = _horner(self.modulus, c, p) * pow(-a, m, p) % p
                if norm == 0 or any(pow(norm, e, p) == 1 for e in cofactors):
                    continue
            times = self._times_table(g)
            powers = [1]
            e = g
            while e != 1 and len(powers) <= order:
                powers.append(e)
                e = times[e]
            del times
            if len(powers) == order:
                log = [0] * q
                for i, value in enumerate(powers):
                    log[value] = i
                # 1 + v increments digit 0 of v, without a carry
                zech = tuple(-1 if v == p - 1 else
                             log[v + 1 if v % p != p - 1 else v + 1 - p]
                             for v in powers)
                return tuple(powers) * 2, tuple(log), zech
            for value in powers:
                walked[value] = 1
        # unreachable: __init__ refuses a reducible modulus, and the
        # multiplicative group of a field is cyclic
        raise RuntimeError("no multiplicative generator found")

    def _times_table(self, g: Element) -> list[Element]:
        """times[v] = g v for every encoding v. Multiplication by g is
        F_p-linear, so the block of v whose digit i is c is the block for
        c - 1, each entry shifted by the column g x^i mod f."""
        p, m = self.p, self.m
        modulus = list(self.modulus)
        times = [0]
        col = _digits(g, p, m)
        for i in range(m):
            if i:
                col = _poly_mod([0] + col, modulus, p)  # x times the last
                col += [0] * (m - len(col))
            shift = [0]  # shift[v] = v + col, one digit rotated at a time
            for j, c in enumerate(col):
                digit = [d * p ** j for d in range(p)]
                shift = [hi + lo for hi in digit[c:] + digit[:c] for lo in shift]
            block = times
            for _ in range(p - 1):
                block = [shift[t] for t in block]
                times += block
            del shift, block  # before the next column's shift is built
        return times

    # -- arithmetic ------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        """a + b = g^la (1 + g^(lb - la)); a negative index into the Zech
        table wraps mod q - 1, its length."""
        if self.m == 1:
            return (a + b) % self.p
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def sub(self, a: Element, b: Element) -> Element:
        """a - b = a + (-b) in one Zech lookup. For odd p, -1 =
        g^((q - 1) / 2), so log(-b) is log(b) moved by half the group
        order, kept inside [0, q - 1); in characteristic 2, -b = b."""
        if self.m == 1:
            return (a - b) % self.p
        if b == 0:
            return a
        lb = self._log[b]
        if self.p != 2:
            half = (self.q - 1) >> 1
            lb = lb - half if lb >= half else lb + half
        if a == 0:
            return self._exp[lb]
        la = self._log[a]
        z = self._zech[lb - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: Element) -> Element:
        """-a, as 0 - a."""
        return self.sub(0, a)

    def mul(self, a: Element, b: Element) -> Element:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: Element) -> Element:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.q)
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        order = self.q - 1
        return self._exp[(order - self._log[a]) % order]

    def pow(self, a: Element, e: int) -> Element:
        """a**e with 0**0 = 1."""
        if e < 0:
            raise ValueError("negative exponent; use inv")
        if e == 0:
            return 1
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0
        order = self.q - 1
        return self._exp[(self._log[a] * e) % order]

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"FieldSpec({field_text(self)!r})"


# the fields built, keyed by (p, m, modulus); a refusal is not cached
_make_field_cached = functools.lru_cache(maxsize=FIELD_CACHE_SIZE)(FieldSpec)


def make_field(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """F_{p^m}: `FieldSpec(p, m, modulus)`, with the modulus as a tuple,
    through a cache of the last FIELD_CACHE_SIZE fields built, so the
    same arguments give the same object."""
    return _make_field_cached(p, m, None if modulus is None else tuple(modulus))


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for t in range(p ** m):
        cand = tuple(_digits(t, p, m)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible modulus found")  # unreachable


def parse_field(text: str) -> FieldSpec:
    """Field text form: "p", "p^m", or either followed by "/c0,c1,...,cm";
    a "^" or "/" with nothing after it is refused."""
    body, slash, mod_part = text.partition("/")
    base, caret, exp = body.partition("^")
    try:
        p = int(base)
        m = int(exp) if caret else 1
        modulus = tuple(int(c) for c in mod_part.split(",")) if slash else None
    except ValueError:
        raise DegreeMismatchError(f"cannot parse field spec {text!r}") from None
    return make_field(p, m, modulus)


def field_text(F: FieldSpec) -> str:
    """The text form `parse_field` reads back as F: "p" for F_p under the
    modulus x, else the modulus written out."""
    if F.modulus == (0, 1):
        return str(F.p)
    power = f"^{F.m}" if F.m > 1 else ""
    return f"{F.p}{power}/" + ",".join(str(c) for c in F.modulus)


# -- power-map structure --------------------------------------------------


@functools.lru_cache(maxsize=ROOT_MAP_CACHE_SIZE)
def kth_root_map(F: FieldSpec, k: int) -> dict[Element, tuple[Element, ...]]:
    """value -> sorted tuple of its k-th roots (empty key absent), keyed in
    order of least root. The keys are the image {a^k : a in F_q}, whose
    nonzero part is the subgroup of index gcd(k, q-1) in F_q^*, of size
    (q-1)/gcd(k, q-1).

    Both walk a = 0, 1, ..., q - 1 once, appending a to the fiber of a^k,
    so fibers come out sorted and keyed by least root with no sort. A
    prime field raises a with builtin pow; an extension field reads a^k
    off the tables as exp[k log(a) mod (q - 1)], computing no power. The
    walk takes q steps, so the guard is asked for q before the map is
    built; a map already cached is not asked again."""
    if k < 1:
        raise ValueError("k must be positive")
    enum_guard(F.q)
    fibers: dict[Element, list[Element]] = {}
    if F.m == 1:
        p = F.p
        for a in range(p):
            fibers.setdefault(pow(a, k, p), []).append(a)
    else:
        order, exp, log = F.q - 1, F._exp, F._log
        fibers[0] = [0]
        for a in range(1, F.q):
            fibers.setdefault(exp[k * log[a] % order], []).append(a)
    return {v: tuple(roots) for v, roots in fibers.items()}


def kth_power_map(F: FieldSpec, k: int) -> dict[Element, Element]:
    """a -> a^k for every a in F_q: `kth_root_map` inverted."""
    return {a: v for v, roots in kth_root_map(F, k).items() for a in roots}


def kth_roots(F: FieldSpec, lam: Element, k: int) -> tuple[Element, ...]:
    """All a with a^k = lam, sorted by encoding; empty iff lam is not a
    k-th power. The canonical root choice elsewhere is the first entry.
    lam outside [0, q) raises FieldMismatchError."""
    check_elements(F, (lam,), "lambda")
    return kth_root_map(F, k).get(lam, ())


def minus_one_is_kth_power(F: FieldSpec, k: int) -> bool:
    """Literal reading: does x^k = -1 have a solution? In characteristic 2
    this is trivially true since -1 = 1."""
    return F.neg(1) in kth_root_map(F, k)
