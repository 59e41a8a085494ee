import sys

import pytest

from triwaring.fields import make_field

# every supported prime power q <= 49 (extension degree capped at 4,
# so q = 32 = 2^5 is out of scope)
PRIME_POWERS_49 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
    (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1),
    (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
]

ODD_PRIME_POWERS_49 = [(p, m) for (p, m) in PRIME_POWERS_49 if p != 2]


def assert_distinct_power_solutions(F, k, entries):
    """What class selection promises: each AssignmentEntry solves
    x^k + y^k (+ z^k) = lam, and the x-powers, like the y-powers, are
    pairwise distinct across the entries."""
    xps = [F.pow(e.x, k) for e in entries]
    yps = [F.pow(e.y, k) for e in entries]
    assert len(set(xps)) == len(xps) and len(set(yps)) == len(yps)
    for e, xp, yp in zip(entries, xps, yps):
        total = F.add(xp, yp)
        if e.z is not None:
            total = F.add(total, F.pow(e.z, k))
        assert total == e.lam, e


@pytest.fixture(scope="session")
def all_fields():
    return [make_field(p, m) for (p, m) in PRIME_POWERS_49]


@pytest.fixture(scope="session")
def odd_fields():
    return [make_field(p, m) for (p, m) in ODD_PRIME_POWERS_49]


@pytest.fixture(scope="session")
def F3():
    return make_field(3)


@pytest.fixture(scope="session")
def F7():
    return make_field(7)


@pytest.fixture(scope="session")
def F9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def F13():
    return make_field(13)


@pytest.fixture
def digit_limit_640():
    """The int-to-str digit limit (sys.get_int_max_str_digits()) lowered
    to 640 for the test, and restored after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)
