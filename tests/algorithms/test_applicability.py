"""Applicability conditions (grid shapes, divisibility, p ≤ n^k limits)."""

import pytest

from repro.algorithms import ALGORITHMS, get_algorithm, list_algorithms
from repro.errors import NotApplicableError

SQUARE_GRID = ["simple", "cannon", "hje", "diagonal2d"]
CUBIC_GRID = ["berntsen", "dns", "3dd", "3d_all_trans", "3d_all"]


@pytest.mark.parametrize("key", SQUARE_GRID)
class TestSquareGridConditions:
    def test_rejects_non_square_grid_p(self, key):
        algo = get_algorithm(key)
        with pytest.raises(NotApplicableError):
            algo.check_applicable(16, 8)  # 8 is not 4^k

    def test_rejects_p_too_small(self, key):
        with pytest.raises(NotApplicableError):
            get_algorithm(key).check_applicable(16, 1)

    def test_rejects_indivisible_n(self, key):
        with pytest.raises(NotApplicableError):
            get_algorithm(key).check_applicable(10, 16)  # 10 % 4 != 0

    def test_accepts_valid(self, key):
        get_algorithm(key).check_applicable(16, 16)
        assert get_algorithm(key).applicable(16, 16)


@pytest.mark.parametrize("key", CUBIC_GRID)
class TestCubicGridConditions:
    def test_rejects_non_cubic_p(self, key):
        with pytest.raises(NotApplicableError):
            get_algorithm(key).check_applicable(16, 16)  # 16 is not 8^k

    def test_rejects_indivisible_n(self, key):
        with pytest.raises(NotApplicableError):
            get_algorithm(key).check_applicable(9, 8)

    def test_accepts_valid(self, key):
        get_algorithm(key).check_applicable(16, 8)


class TestStructuralLimits:
    def test_cannon_requires_p_le_n_squared(self):
        with pytest.raises(NotApplicableError):
            get_algorithm("cannon").check_applicable(4, 64)  # 64 > 16

    def test_berntsen_requires_p_le_n_1p5(self):
        # p = 512 > 64^1.5/... pick n=32: n^1.5 ≈ 181 < 512
        with pytest.raises(NotApplicableError):
            get_algorithm("berntsen").check_applicable(32, 512)

    def test_3d_all_requires_p_le_n_1p5(self):
        with pytest.raises(NotApplicableError):
            get_algorithm("3d_all").check_applicable(32, 512)

    def test_3dd_allows_p_up_to_n_cubed(self):
        # n=8, p=64: p > n^1.5 (22.6) but <= n^3 (512): only 3D algorithms
        get_algorithm("3dd").check_applicable(8, 64)
        get_algorithm("dns").check_applicable(8, 64)
        with pytest.raises(NotApplicableError):
            get_algorithm("3d_all").check_applicable(8, 64)

    def test_hje_needs_enough_columns(self):
        # n/sqrt(p) must be >= log sqrt(p): n=8, p=64 -> 1 < 3
        with pytest.raises(NotApplicableError):
            get_algorithm("hje").check_applicable(8, 64)
        get_algorithm("hje").check_applicable(64, 64)

    def test_3d_all_needs_q_squared_divisibility(self):
        # n=12 divisible by q=2 but not q^2=4? 12 % 4 == 0, use n=10
        with pytest.raises(NotApplicableError):
            get_algorithm("3d_all").check_applicable(10, 8)


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert sorted(ALGORITHMS) == [
            "3d_all",
            "3d_all_rect",
            "3d_all_trans",
            "3dd",
            "3dd_cannon",
            "berntsen",
            "cannon",
            "diagonal2d",
            "dns",
            "dns_cannon",
            "fox",
            "hje",
            "simple",
        ]

    def test_metadata_present(self):
        for algo in ALGORITHMS.values():
            assert algo.key
            assert algo.name
            assert algo.paper_section


def test_list_algorithms_is_the_sorted_registry():
    keys = list_algorithms()
    assert keys == sorted(ALGORITHMS) and "cannon" in keys
    assert [get_algorithm(k) for k in keys] == [ALGORITHMS[k] for k in keys]


def _square(n, k):
    """p = 4^k' (k' ≥ 1) and √p divides n."""
    return k >= 2 and k % 2 == 0 and n % (1 << k // 2) == 0


def _cubic(n, k, power):
    """p = 8^k' (k' ≥ 1) and (∛p)^power divides n."""
    return k >= 3 and k % 3 == 0 and n % (1 << k // 3 * power) == 0


def _hje(n, k):
    """The square grid with n/√p ≥ log √p."""
    return _square(n, k) and n >> k // 2 >= k // 2


def _rect(n, k):
    """q1 × q2 × q1 with the smallest q2 ≥ 2 (2 for odd log p, else 4),
    q1 ≥ 2, and q1·q2 dividing n."""
    log_q2 = 1 if k % 2 else 2
    return k - log_q2 >= 2 and n % (1 << (k - log_q2) // 2 + log_q2) == 0


def _supernode(n, k):
    """p = 8^a·4^b with the smallest b ≥ 1, a ≥ 1, and ∛s·√r = 2^(a+b)
    dividing n."""
    for b in range(1, k // 2 + 1):
        if k - 2 * b >= 3 and (k - 2 * b) % 3 == 0:
            return n % (1 << (k - 2 * b) // 3 + b) == 0
    return False


TABLE3_PREDICATES = {
    "simple": _square,
    "cannon": _square,
    "fox": _square,
    "diagonal2d": _square,
    "hje": _hje,
    "dns": lambda n, k: _cubic(n, k, 1),
    "3dd": lambda n, k: _cubic(n, k, 1),
    "berntsen": lambda n, k: _cubic(n, k, 2),
    "3d_all_trans": lambda n, k: _cubic(n, k, 2),
    "3d_all": lambda n, k: _cubic(n, k, 2),
    "3d_all_rect": _rect,
    "dns_cannon": _supernode,
    "3dd_cannon": _supernode,
}


@pytest.mark.parametrize("key", sorted(ALGORITHMS))
def test_applicability_is_grid_shape_and_divisibility(key):
    """Over every n ≤ 2¹⁰ and p = 2⁰…2²⁰ an algorithm runs exactly where
    its grid forms and its blocks divide n (Table 3's ``p ≤ n^k`` columns
    follow from the divisibility: ``n % d == 0`` gives ``n ≥ d``)."""
    algo, predicate = ALGORITHMS[key], TABLE3_PREDICATES[key]
    wrong = [
        (n, 1 << k)
        for k in range(21)
        for n in range(1, (1 << 10) + 1)
        if algo.applicable(n, 1 << k) != predicate(n, k)
    ]
    assert not wrong, wrong[:10]
