"""The dense integer solver that ``ref_base_conjugacy_solve`` runs, kept
in the tests as the reference for the sigma = 0 lift."""

import itertools
import random

from test_kernel_differential import solve_integer_system


def check(rows, rhs, sol):
    assert sol is not None
    for row, b in zip(rows, rhs):
        assert sum(c * z for c, z in zip(row, sol)) == b


def test_simple_cases():
    check([[2, 0], [0, 3]], [4, -9], solve_integer_system([[2, 0], [0, 3]], [4, -9]))
    assert solve_integer_system([[2]], [1]) is None  # divisibility obstruction
    assert solve_integer_system([[0]], [5]) is None
    check([[0]], [0], solve_integer_system([[0]], [0]))
    assert solve_integer_system([], []) == []
    assert solve_integer_system([[1, 1]], [7]) is not None


def test_inconsistent_rows():
    assert solve_integer_system([[1, 2], [2, 4]], [1, 3]) is None


def test_gcd_equation():
    # 6x + 10y = 8 solvable (gcd 2 | 8); = 9 not
    check([[6, 10]], [8], solve_integer_system([[6, 10]], [8]))
    assert solve_integer_system([[6, 10]], [9]) is None


def test_random_solvable_systems():
    rng = random.Random(42)
    for _ in range(300):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        z0 = [rng.randrange(-5, 6) for _ in range(n)]
        rhs = [sum(c * z for c, z in zip(row, z0)) for row in rows]
        check(rows, rhs, solve_integer_system(rows, rhs))


def test_against_brute_force():
    # one-sided completeness oracle: if a small solution exists, find one
    rng = random.Random(7)
    for _ in range(150):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(-4, 5) for _ in range(m)]
        brute = None
        for cand in itertools.product(range(-6, 7), repeat=n):
            if all(
                sum(c * z for c, z in zip(row, cand)) == b
                for row, b in zip(rows, rhs)
            ):
                brute = list(cand)
                break
        sol = solve_integer_system(rows, rhs)
        if brute is not None:
            check(rows, rhs, sol)
        elif sol is not None:
            check(rows, rhs, sol)  # solver found one outside the box; verify


def test_big_entries():
    rows = [[10**20, 3], [0, 7]]
    rhs = [10**20 * 5 + 9, 21]
    check(rows, rhs, solve_integer_system(rows, rhs))
