"""Shared oracles and generators.

The oracles here re-derive expected results by plain enumeration,
walking expression nodes directly (or vectorizing with numpy), so they
stay independent of the truth-table machinery they are used to check.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest

from onsat import boolalg
from onsat.boolalg import AND, CONST, NOT, OR, VAR, XOR, BoolFunc


# ---------------------------------------------------------------------------
# independent evaluation

def oracle_eval(f: BoolFunc, point: dict) -> int:
    """Evaluate by structural recursion; no shared code with truth_table."""
    k = f.kind
    if k == VAR:
        return point[f.var]
    if k == CONST:
        return f.value
    if k == NOT:
        return 1 - oracle_eval(f.left, point)
    a = oracle_eval(f.left, point)
    b = oracle_eval(f.right, point)
    if k == AND:
        return a & b
    if k == OR:
        return a | b
    if k == XOR:
        return a ^ b
    raise AssertionError(f"unknown node kind {k}")


def np_eval(f: BoolFunc, columns: dict, length: int) -> np.ndarray:
    """Vectorized oracle evaluation over precomputed variable columns."""
    k = f.kind
    if k == VAR:
        return columns[f.var]
    if k == CONST:
        return np.full(length, bool(f.value))
    if k == NOT:
        return ~np_eval(f.left, columns, length)
    a = np_eval(f.left, columns, length)
    b = np_eval(f.right, columns, length)
    if k == AND:
        return a & b
    if k == OR:
        return a | b
    return a ^ b


def var_columns(order: list) -> tuple[dict, int]:
    n = len(order)
    length = 1 << n
    idx = np.arange(length)
    cols = {
        v: ((idx >> (n - 1 - i)) & 1).astype(bool) for i, v in enumerate(order)
    }
    return cols, length


def all_points(order: list):
    for bits in itertools.product((0, 1), repeat=len(order)):
        yield dict(zip(order, bits))


# ---------------------------------------------------------------------------
# solution-set oracles

def oracle_system_solutions(system) -> set:
    """Every total root assignment satisfying all equations, as sorted tuples."""
    order = sorted(system.root_vars)
    cols, length = var_columns(order)
    ok = np.full(length, True)
    for lhs, rhs in system.equations:
        ok &= np_eval(lhs, cols, length) == np_eval(rhs, cols, length)
    out = set()
    n = len(order)
    for idx in np.nonzero(ok)[0]:
        out.add(tuple((v, int(idx) >> (n - 1 - i) & 1) for i, v in enumerate(order)))
    return out


def tree_solutions(system, cfg) -> list:
    """The solutions of the expression-tree search alone, in its order."""
    from onsat.solver import DECIDE, _TreeSearch, _outcome, _search

    cubes = _search(_TreeSearch(cfg), system, cfg.mode == DECIDE)
    return _outcome(cubes, system.root_vars).solutions


def oracle_cnf_solutions(clauses, num_vars: int) -> set:
    """Satisfying assignments of DIMACS-style clauses, as sorted tuples."""
    order = list(range(num_vars))
    cols, length = var_columns(order)
    ok = np.full(length, True)
    for clause in clauses:
        sat = np.full(length, False)
        for lit in clause:
            col = cols[abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        ok &= sat
    out = set()
    for idx in np.nonzero(ok)[0]:
        out.add(
            tuple(
                (v, int(idx) >> (num_vars - 1 - i) & 1)
                for i, v in enumerate(order)
            )
        )
    return out


@functools.lru_cache(maxsize=1 << 16)
def shannon_cubes(points: frozenset, n: int) -> list:
    """The cubes of a set of n-bit tuples by Shannon expansion, as lists
    of (position, value): split on the first bit, 0 before 1, except
    that a split whose halves are equal leaves that bit free.  The
    reference for ``boolalg._cubes`` and the CNF enumerate leaves.
    Do not edit a returned list: the answers are cached."""
    if not points:
        return []
    if len(points) == 1 << n:
        return [[]]
    halves = [frozenset(p[1:] for p in points if p[0] == b) for b in (0, 1)]
    if halves[0] == halves[1]:
        return [[(i + 1, b) for i, b in cube]
                for cube in shannon_cubes(halves[0], n - 1)]
    return [[(0, b)] + [(i + 1, v) for i, v in cube]
            for b in (0, 1) for cube in shannon_cubes(halves[b], n - 1)]


def expanded_solution_set(outcome, universe) -> set:
    """Flatten compressed solver output to total-assignment tuples.

    The cubes must be disjoint: no total assignment comes out twice, so
    the set holds the sum of 2^|dont_care| over the solutions."""
    universe = sorted(universe)
    out = set()
    for solution in outcome.solutions:
        for total in solution.expand():
            assert set(total) == set(universe)
            out.add(tuple((v, total[v]) for v in universe))
    assert len(out) == sum(1 << len(s.dont_care) for s in outcome.solutions), (
        "overlapping cubes")
    return out


# ---------------------------------------------------------------------------
# random generators

def random_func(rng: random.Random, ids, depth: int = 3) -> BoolFunc:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.08:
            return boolalg.const(rng.randint(0, 1))
        v = boolalg.var(rng.choice(ids))
        return v if rng.random() < 0.5 else ~v
    op = rng.choice(("and", "or", "xor", "not"))
    if op == "not":
        return ~random_func(rng, ids, depth - 1)
    a = random_func(rng, ids, depth - 1)
    b = random_func(rng, ids, depth - 1)
    return {"and": a & b, "or": a | b, "xor": a ^ b}[op]


def random_shared_funcs(rng: random.Random, ids, count: int, size: int = 10) -> list:
    """``count`` random expression DAGs over one shared node pool.

    Each new node combines two earlier nodes, so subtrees are shared
    within an expression and between the expressions.
    """
    pool = [boolalg.var(v) for v in ids]
    pool += [~f for f in pool]
    out = []
    for _ in range(count):
        for _ in range(size):
            op = rng.choice(("and", "or", "xor", "not"))
            a, b = rng.choice(pool), rng.choice(pool)
            pool.append({"and": a & b, "or": a | b, "xor": a ^ b, "not": ~a}[op])
        out.append(pool[-1])
    return out


def random_system(rng: random.Random, n_vars: int, n_eqs: int):
    from onsat.solver import BoolSystem

    ids = list(range(n_vars))
    equations = []
    for _ in range(n_eqs):
        lhs = random_func(rng, ids, rng.randint(1, 3))
        rhs = random_func(rng, ids, rng.randint(0, 2))
        equations.append((lhs, rhs))
    return BoolSystem.root(equations, ids)


def random_clauses(rng: random.Random, n_vars: int, n_clauses: int, width: int = 3):
    clauses = []
    for _ in range(n_clauses):
        k = rng.randint(1, min(width, n_vars))
        chosen = rng.sample(range(1, n_vars + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def tseitin_clauses(rng: random.Random, vertices: int) -> list:
    """A Tseitin formula on a random 3-regular graph with odd total charge.

    Each edge is a variable (1-based, in edge order); each vertex says
    that the XOR of its three edges is its charge, as the four clauses
    that forbid the other parity.  Every edge is counted at both its
    ends, so the charges' sum would be even on any assignment: the
    formula is UNSAT.  The graph is a pairing of three stubs per vertex,
    drawn again until it has no loop and no repeated edge.  ``vertices``
    is even and at least 4.
    """
    while True:
        stubs = [v for v in range(vertices) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)]
        if all(a != b for a, b in edges) and len(set(edges)) == len(edges):
            break
    charge = [rng.randint(0, 1) for _ in range(vertices)]
    charge[rng.randrange(vertices)] ^= 1 - sum(charge) % 2  # an odd total
    clauses = []
    for v in range(vertices):
        ids = [e + 1 for e, ends in enumerate(edges) if v in ends]
        for bits in itertools.product((0, 1), repeat=3):
            if sum(bits) % 2 != charge[v]:  # forbid this point
                clauses.append([-e if b else e for e, b in zip(ids, bits)])
    return clauses


def random_term_chain(rng: random.Random, ids, max_depth: int = 3):
    from onsat.onset import term_chain

    depth = rng.randint(1, min(max_depth, len(ids)))
    vs = rng.sample(list(ids), depth)
    return term_chain([(v, rng.random() < 0.5) for v in vs])


@pytest.fixture
def rng():
    return random.Random(20240817)
