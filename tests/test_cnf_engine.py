"""The trail engine against the clause-level specification.

``reference`` walks the generalised DPLL tree with the clause-copying
functions of ``onsat.cnf`` only: units to a fixpoint, then pure rounds
(decide), then brute force at or below n0, else the pure-literal chain
(enumerate) or the split chain, children depth-first and left to right.
A leaf's points come out as the cubes of their Shannon expansion,
computed here on point sets, with the variables in the most
constrained first: by their number of clauses, most first, lowest id
first among equals.  Decide mode is the same walk, stopped at the first
cube.
``solve_sat`` must return exactly its solution list, order included.
"""

import itertools
import random

import pytest

from onsat.cnf import (
    CnfSet,
    _Engine,
    _Trail,
    _brute_mask,
    assign_and_reduce,
    assign_pure_round,
    choose_split_cnf,
    decompose_cnf,
    find_pure_literals,
    leaf_blocks,
    propagate_units,
    pure_literal_chain,
    solve_sat,
    unit_literals,
)
from onsat.boolalg import _indices
from onsat.onset import term_chain
from onsat.solver import DECIDE, ENUMERATE, Conflict, Solution, SolverConfig
from conftest import (
    expanded_solution_set,
    oracle_cnf_solutions,
    random_clauses,
    shannon_cubes,
    tseitin_clauses,
)


def reference(c: CnfSet, cfg: SolverConfig) -> list:
    decide = cfg.mode == DECIDE
    out = []
    stack = [(c, {})]
    while stack:
        c, fixed = stack.pop()
        try:
            c, units = propagate_units(c)
        except Conflict:
            continue
        fixed = {**fixed, **units.as_dict()}
        if decide:
            while True:
                c, pures = assign_pure_round(c)
                if not pures:
                    break
                fixed.update(pures.as_dict())
        # most clauses first, then lowest id
        occ = sorted(c.occurring(), key=lambda v: (
            -sum(v + 1 in clause or -v - 1 in clause for clause in c.clauses), v))
        if len(occ) <= cfg.n0:
            n = len(occ)
            points = [tuple(idx >> (n - 1 - i) & 1 for i in range(n))
                      for idx in _indices(_brute_mask(c.clauses, occ, {}))]
            for cube in shannon_cubes(frozenset(points), n):
                assignment = {**fixed, **{occ[i]: b for i, b in cube}}
                out.append(Solution.make(
                    assignment, set(range(c.num_vars)) - assignment.keys()))
                if decide:
                    return out
            continue
        if find_pure_literals(c):
            chain = pure_literal_chain(c)
        else:
            chain = choose_split_cnf(c, cfg)
        children = [
            (child, {**fixed, **t.partial_assignment().as_dict()})
            for t, child in zip(chain.terms, decompose_cnf(c, chain))
            if child is not None
        ]
        stack.extend(reversed(children))
    return out


def configs():
    for mode, n0, depth in itertools.product(
            (DECIDE, ENUMERATE), range(1, 7), range(1, 5)):
        yield SolverConfig(n0=n0, split_depth=depth, mode=mode)


def random_cnfs(seed: int, count: int, width: int = 4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        clauses = random_clauses(rng, n, rng.randint(0, 4 * n), width=width)
        yield CnfSet.from_clauses(clauses, n)


SPECIAL = {
    "empty clause": CnfSet.from_clauses([[1, 2], [], [-1, 3]], 3),
    "only an empty clause": CnfSet([frozenset()], 2),
    "duplicate clauses": CnfSet.from_clauses(
        [[1, -2], [1, -2], [2, 3], [-1, -3], [2, 3], [-2, 4, 5], [-2, 4, 5]]),
    "contradictory units": CnfSet.from_clauses([[1, 2], [3], [-2, 4], [-3]]),
    "units contradicting after propagation": CnfSet.from_clauses(
        [[1], [-1, 2], [-1, -2, 3], [-3, -2]]),
    "extra variables are don't-cares": CnfSet.from_clauses(
        [[1, -2], [2, 3], [-1, -3], [-2, -3, 4]], num_vars=8),
    "no clauses": CnfSet.from_clauses([], num_vars=3),
    "every clause satisfied by root units": CnfSet.from_clauses(
        [[2], [-1, 2, 3], [-3], [2, -4], [3, -4, 2]], num_vars=5),
}


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_special_cases_match_reference(name):
    c = SPECIAL[name]
    for cfg in configs():
        assert solve_sat(c, cfg).solutions == reference(c, cfg), cfg


def test_extra_variables_come_out_as_dont_cares():
    c = SPECIAL["extra variables are don't-cares"]
    cfg = SolverConfig(n0=1, split_depth=1, mode=ENUMERATE)
    solutions = solve_sat(c, cfg).solutions
    assert solutions
    for s in solutions:
        assert {4, 5, 6, 7} <= set(s.dont_care)


@pytest.mark.parametrize("seed", range(4))
def test_random_cnfs_match_reference(seed):
    cases = list(random_cnfs(seed, 40))
    for cfg in configs():
        for c in cases:
            assert solve_sat(c, cfg).solutions == reference(c, cfg), (
                cfg, c.clauses)


@pytest.mark.parametrize("seed", range(2))
def test_wide_clauses_match_reference(seed):
    cases = list(random_cnfs(100 + seed, 25, width=8))
    assert max(len(clause) for c in cases for clause in c.clauses) == 8
    for cfg in configs():
        for c in cases:
            assert solve_sat(c, cfg).solutions == reference(c, cfg), (
                cfg, c.clauses)


def check_trail(t: _Trail, c: CnfSet) -> None:
    """The trail's view against the clause copy reduced by its literals."""
    point = {abs(l) - 1: int(l > 0) for l in t.trail}
    conflict = bool(t.free[0] & ~t.sat)
    try:
        reduced = assign_and_reduce(c, point)
    except Conflict:
        assert conflict
        return
    assert not conflict
    sat = bin(t.sat)[:1:-1].ljust(len(t.clauses), "0")  # bit ci at ci
    free = [{l for l in clause if not t.known >> abs(l) & 1}
            for clause, s in zip(t.clauses, sat) if s == "0"]
    assert free == [set(clause) for clause in reduced.clauses]
    assert (t.free[1] & ~t.sat).bit_count() == len(unit_literals(reduced))
    pures = [v + 1 if pol else -(v + 1) for v, pol in find_pure_literals(reduced)]
    assert t.scan() == (pures, sorted(v + 1 for v in reduced.occurring()))
    for l in [*range(1, c.num_vars + 1), *range(-c.num_vars, 0)]:
        count = 0 if t.known >> abs(l) & 1 else (t.occ[l] & ~t.sat).bit_count()
        assert count == sum(l in clause for clause in reduced.clauses), l


@pytest.mark.parametrize("seed", range(4))
def test_trail_matches_clause_copies(seed):
    """Random assigns, unit propagations and snapshots, and restores of
    a random earlier snapshot, each one possibly restored again later."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 10)
        c = CnfSet.from_clauses(random_clauses(
            rng, n, rng.randint(0, 3 * n), width=rng.randint(1, 8)), n)
        t = _Trail(c.clauses, n)
        check_trail(t, c)
        saved = [t.snapshot()]
        for _ in range(30):
            conflict = bool(t.free[0] & ~t.sat)
            unassigned = sorted(set(range(1, n + 1)) - {abs(l) for l in t.trail})
            step = rng.random()
            if conflict or not unassigned or step < 0.25:
                k = rng.randrange(len(saved))
                del saved[k + 1:]  # later states are not on this branch
                t.restore(saved[k])
                assert t.snapshot() == saved[k]
            elif step < 0.35:
                saved.append(t.snapshot())
            elif step < 0.5:
                before = {abs(l) - 1: int(l > 0) for l in t.trail}
                ok = t.propagate()
                try:
                    _, units = propagate_units(assign_and_reduce(c, before))
                except Conflict:
                    assert not ok
                else:
                    assert ok
                    assert {abs(l) - 1: int(l > 0) for l in t.trail} == {
                        **before, **units.as_dict()}
            elif step < 0.6 and t.trail:
                # a literal whose variable is set: true already, or false
                lit = rng.choice(t.trail) * rng.choice((1, -1))
                value = {abs(l): l > 0 for l in t.trail}[abs(lit)]
                state = t.snapshot()
                assert t.assign(lit) == (value == (lit > 0))
                assert t.snapshot() == state
            else:
                lit = rng.choice(unassigned) * rng.choice((1, -1))
                ok = t.assign(lit)
                assert ok == (not t.free[0] & ~t.sat)
            check_trail(t, c)


@pytest.mark.parametrize("lits", [
    [(0, True)],
    [(0, False)],
    [(3, True), (1, False), (7, True)],
    [(2, False), (0, False), (5, False), (4, True)],
])
def test_chain_order_is_term_chain_order(lits):
    """The literals child i of _children(lits) puts on the trail are
    term i."""
    signed = [v + 1 if p else -(v + 1) for v, p in lits]
    expected = [
        {v + 1 if p else -(v + 1) for v, p in t.literals.items()}
        for t in term_chain(lits).terms
    ]
    # each chain variable with both polarities next to two others, so
    # that no chain literal propagates anything
    c = CnfSet.from_clauses([[l, 9, 10] for v in range(1, 9) for l in (v, -v)])
    engine = _Engine(c, {}, SolverConfig())
    t = engine.trail
    entered = []
    for child in engine._children(signed):
        assert child is t
        entered.append(set(t.trail))
    assert entered == expected


def visit_trail(engine: _Engine) -> tuple:
    """(chain literals, cubes) of visiting the engine's trail: the
    argument of its _children call at a split, else None."""
    chains = []
    children = engine._children
    engine._children = lambda lits: chains.append(lits) or children(lits)
    got, cubes = engine.visit(engine.trail)
    assert (got is None) == (not chains)
    return (chains[0] if chains else None), cubes


def root_split_lits(c: CnfSet, cfg: SolverConfig) -> list:
    """The chain literals of the trail engine's root split."""
    lits, cubes = visit_trail(_Engine(c, {}, cfg))
    assert lits is not None and cubes == ()
    return lits


# Splitting at n0 = 1, split_depth = 2, the root chain of each is l1 = x0,
# l2 = x1 in both modes, and propagating the prefix x0 sets x1 true, sets
# it false, or conflicts.  Every later term of the chain is then made
# from that propagated prefix, in both modes (no literal is pure at the
# root).  In "conflicts" the binary clauses on x4 weigh x4 up in decide
# mode, so the three clauses on x1 and x5 keep x1 ahead of it.
_BASE = [[1, 2, 3], [1, 2, -3], [1, -2, 4], [1, 3, -4], [-3, 4, 2], [-4, 3, -1]]
PREFIX_TRAPS = {
    "sets a later chain literal true": (_BASE + [[-1, 2]], {1: 1}),
    "sets a later chain literal false": (_BASE + [[-1, -2]], {1: 0}),
    "conflicts": (_BASE + [[-1, 5], [-1, -5], [1, -5, 2],
                           [2, 4, 6], [2, -4, -6], [2, 3, -6]], None),
}


@pytest.mark.parametrize("name", sorted(PREFIX_TRAPS))
def test_propagated_chain_prefixes_match_reference(name):
    clauses, units = PREFIX_TRAPS[name]
    c = CnfSet.from_clauses(clauses)
    assert not unit_literals(c) and not find_pure_literals(c)
    for mode in (DECIDE, ENUMERATE):
        cfg = SolverConfig(n0=1, split_depth=2, mode=mode)
        chain = choose_split_cnf(c, cfg)
        assert [t.partial_assignment().as_dict() for t in chain.terms] == [
            {0: 0}, {0: 1, 1: 0}, {0: 1, 1: 1}], mode
        assert root_split_lits(c, cfg) == [1, 2], mode
    try:
        _, got = propagate_units(assign_and_reduce(c, {0: 1}))
    except Conflict:
        assert units is None
    else:
        assert units is not None and got.as_dict().items() >= units.items()
    for cfg in configs():
        assert solve_sat(c, cfg).solutions == reference(c, cfg), cfg


def test_brute_mask_shares_one_pattern_table():
    """One table across leaves of interleaved sizes, over scattered ids."""
    rng = random.Random(11)
    patterns: dict = {}
    for n in [3, 6, 3, 1, 6, 0, 4, 1, 6, 3]:
        occ = sorted(rng.sample(range(20), n))
        clauses = [[(v + 1) * rng.choice((1, -1))
                    for v in rng.sample(occ, rng.randint(1, n))]
                   for _ in range(rng.randint(0, 2 * n))] if n else []
        expected = 0
        for idx in range(1 << n):
            value = {v + 1: idx >> (n - 1 - i) & 1 for i, v in enumerate(occ)}
            if all(any(value[abs(l)] == (l > 0) for l in c) for c in clauses):
                expected |= 1 << idx
        assert _brute_mask(clauses, occ, patterns) == expected, (occ, clauses)


@pytest.mark.parametrize("seed", range(2))
def test_enumerate_cubes_satisfy_every_clause(seed):
    """Every clause has a literal that the cube fixes true: exactly the
    condition for every expansion of the cube to satisfy the clause."""
    seen = 0
    for c in random_cnfs(200 + seed, 30):
        for cfg in configs():
            if cfg.mode != ENUMERATE:
                continue
            for cube in leaf_blocks(c, cfg):
                seen += 1
                for clause in c.clauses:
                    assert any(cube.get(abs(l) - 1) == (l > 0) for l in clause)
    assert seen


def test_decide_witness_is_the_first_shannon_cube_of_its_leaf():
    """A one-leaf CNF's decide witness is its fixed values plus the
    first Shannon cube of the leaf's points, over the occurring
    variables most constrained first: the enumerate leaf's first cube."""
    # x1 is a unit; x3 = ~x2 and x4 = ~x3 leave two points over x2..x4,
    # and x5 is declared but free
    c = CnfSet.from_clauses([[1], [2, 3], [-2, -3], [3, 4], [-3, -4]], num_vars=5)
    rest, units = propagate_units(c)
    order = [2, 1, 3]  # x3 is in four clauses, x2 and x4 in two each
    assert sorted(rest.occurring()) == sorted(order)
    points = frozenset(
        p for p in itertools.product((0, 1), repeat=3)
        if all(any(p[order.index(abs(l) - 1)] == (l > 0) for l in clause)
               for clause in rest.clauses))
    assert points == {(0, 1, 1), (1, 0, 0)}
    first = shannon_cubes(points, 3)[0]
    expected = {**units.as_dict(), **{order[i]: b for i, b in first}}
    assert expected == {0: 1, 1: 1, 2: 0, 3: 1}
    out = solve_sat(c, SolverConfig(mode=DECIDE))
    assert [sol.as_dict() for sol in out.solutions] == [expected]
    assert out.solutions[0].dont_care == (4,)
    cubes = solve_sat(c, SolverConfig(mode=ENUMERATE)).solutions
    assert cubes[0] == out.solutions[0]


# Two binary clauses on the DIMACS variables 2 and 5 (2 = -5) next to
# ternary clauses on 1, 3 and 4.  Plain counts: 3 occurs 6 times, 1 and
# 4 5 times, 2 and 5 3 times.  Decide counts each occurrence in a binary
# clause three times: 2 and 5 score 7, 3 scores 6.
BINARY_WEIGHT = CnfSet.from_clauses([
    [1, 3, 4], [-1, 3, -4], [1, -3, -4], [-1, -3, 4], [1, 3, -4],
    [2, 5], [-2, -5], [2, -5, 3]])


@pytest.mark.parametrize("mode, lits", [(DECIDE, [2, -5]), (ENUMERATE, [3, 1])])
def test_binary_clauses_weigh_the_decide_chain_only(mode, lits):
    """Decide ranks by p + q + 2b, enumerate by p + q; both take the
    polarity of the larger count."""
    c = BINARY_WEIGHT
    assert not unit_literals(c) and not find_pure_literals(c)
    cfg = SolverConfig(n0=1, split_depth=2, mode=mode)
    chain = choose_split_cnf(c, cfg)
    assert chain.terms[-1].partial_assignment().as_dict() == {
        abs(l) - 1: int(l > 0) for l in lits}
    assert root_split_lits(c, cfg) == lits
    assert solve_sat(c, cfg).solutions == reference(c, cfg)


def test_decide_chain_below_the_root_weighs_reduced_binary_clauses():
    """Random 3-CNFs with one literal assigned, so that every binary
    clause comes from a shortened clause and some clauses are satisfied:
    the engine's decide chain is choose_split_cnf's chain on the reduced
    clause copy (after units and pure rounds), and on some of them the
    plain count would choose another chain."""
    rng = random.Random(5)
    seen = weighed = 0
    for _ in range(30):
        n = rng.randint(6, 12)
        c = CnfSet.from_clauses(
            [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3)]
             for _ in range(rng.randint(2 * n, 4 * n))], n)
        for lit in [*range(1, n + 1), *range(-n, 0)]:
            cfg = SolverConfig(n0=1, split_depth=rng.randint(1, 3))
            engine = _Engine(c, {}, cfg)
            engine.trail.assign(lit)
            lits, _ = visit_trail(engine)
            try:
                reduced, _ = propagate_units(
                    assign_and_reduce(c, {abs(lit) - 1: int(lit > 0)}))
            except Conflict:
                assert lits is None
                continue
            while True:
                reduced, pures = assign_pure_round(reduced)
                if not pures:
                    break
            if len(reduced.occurring()) <= cfg.n0:
                assert lits is None
                continue
            chain = choose_split_cnf(reduced, cfg)
            assert {abs(l) - 1: int(l > 0) for l in lits} == (
                chain.terms[-1].partial_assignment().as_dict())
            plain = choose_split_cnf(reduced, SolverConfig(
                n0=1, split_depth=cfg.split_depth, mode=ENUMERATE))
            seen += 1
            weighed += plain.terms != chain.terms
    assert seen > 100 and weighed > 10, (seen, weighed)


@pytest.mark.parametrize("vertices", [4, 6, 8, 10])
def test_tseitin_formulas_are_unsat(vertices):
    """Parity constraints on 3-regular graphs with odd total charge: no
    solution by the oracle, by the engine and by the reference walker."""
    rng = random.Random(vertices)
    for _ in range(2):
        clauses = tseitin_clauses(rng, vertices)
        c = CnfSet.from_clauses(clauses)
        assert c.num_vars == 3 * vertices // 2 and len(clauses) == 4 * vertices
        assert oracle_cnf_solutions(clauses, c.num_vars) == set()
        for mode, n0, depth in itertools.product(
                (DECIDE, ENUMERATE), (1, 4), (1, 3)):
            cfg = SolverConfig(n0=n0, split_depth=depth, mode=mode)
            assert solve_sat(c, cfg).solutions == [] == reference(c, cfg), cfg


# 1 is pure; 2 and 3 occur in both polarities
PURE_BELOW_N0 = CnfSet.from_clauses([[1, 2, 3], [1, -2, -3], [2, -3]])


@pytest.mark.parametrize("mode", [DECIDE, ENUMERATE])
def test_pure_literals_at_or_below_n0_make_a_leaf(mode):
    """Enumerate tests n0 before the pure-literal chain; decide assigns
    the pures first either way."""
    c = PURE_BELOW_N0
    assert find_pure_literals(c) == [(0, True)] and not unit_literals(c)
    for n0 in (2, 3):
        engine = _Engine(c, {}, SolverConfig(n0=n0, mode=mode))
        lits, cubes = visit_trail(engine)
        if mode == ENUMERATE and n0 == 2:
            assert lits == [1] and cubes == ()
            continue
        assert lits is None
        cubes = list(cubes)
        if mode == DECIDE:  # the pures 1, then 2: no variable occurs
            assert cubes == [{0: 1, 1: 1}]
        else:  # expanded in the order 2, 3 (three clauses each), 1 (two):
            # 2 = 0 forces 3 = 0, 1 = 1; 2 = 1 with 3 = 0 leaves 1
            # free, and with 3 = 1 forces 1 = 1
            assert cubes == [{1: 0, 2: 0, 0: 1}, {1: 1, 2: 0}, {1: 1, 2: 1, 0: 1}]


def test_enumerate_leaf_expands_the_most_constrained_variable_first():
    """x3 is in both clauses, x1 and x2 in one each.  x3 first: its
    true half is full and its false half is x1 x2, two cubes for five
    models.  In ascending order x1' x3, x1 x2' x3 and x1 x2 would be
    three."""
    c = CnfSet.from_clauses([[1, 3], [2, 3]])
    cfg = SolverConfig(mode=ENUMERATE)
    solutions = solve_sat(c, cfg).solutions
    assert [(s.as_dict(), s.dont_care) for s in solutions] == [
        ({0: 1, 1: 1, 2: 0}, ()), ({2: 1}, (0, 1))]
    assert sum(1 << len(s.dont_care) for s in solutions) == 5
    assert solutions == reference(c, cfg)
    # decide assigns the pures x1, then x2, and no variable is left
    decide = solve_sat(c, SolverConfig(mode=DECIDE)).solutions
    assert [(s.as_dict(), s.dont_care) for s in decide] == [({0: 1, 1: 1}, (2,))]


@pytest.mark.parametrize("seed", range(2))
def test_scattered_ids_match_reference(seed):
    """Ids with gaps, 3k - 1 for k, go through the trail's dense
    renumbering; the cubes, their order and the decide witness are the
    reference's on the ids themselves."""
    for c in random_cnfs(300 + seed, 25):
        spread = CnfSet.from_clauses(
            [[3 * l - 1 if l > 0 else 3 * l + 1 for l in clause]
             for clause in c.clauses], 3 * c.num_vars)
        ids = sorted({abs(l) for clause in spread.clauses for l in clause})
        engine = _Engine(spread, {}, SolverConfig())
        assert engine.trail.n == len(ids)
        assert engine.pairs[1:len(ids) + 1] == [(k - 1, 1) for k in ids]
        for cfg in configs():
            assert solve_sat(spread, cfg).solutions == reference(spread, cfg), (
                cfg, spread.clauses)


@pytest.mark.parametrize("width, positive", [(3, 0.5), (6, 1.0)])
def test_enumerate_model_counts_match_the_oracle(width, positive):
    """Seeded 3-CNFs, and monotone 6-ORs where every literal is pure:
    the cubes hold each model once."""
    rng = random.Random(width)
    for _ in range(12):
        n = rng.randint(6, 13)
        clauses = [[v if rng.random() < positive else -v
                    for v in rng.sample(range(1, n + 1), width)]
                   for _ in range(rng.randint(n, 3 * n))]
        c = CnfSet.from_clauses(clauses, n)
        oracle = oracle_cnf_solutions(clauses, n)
        for n0, depth in itertools.product((1, 4, 16), (1, 3)):
            cfg = SolverConfig(n0=n0, split_depth=depth, mode=ENUMERATE)
            outcome = solve_sat(c, cfg)
            assert sum(1 << len(s.dont_care) for s in outcome.solutions) == len(oracle)
            assert expanded_solution_set(outcome, range(n)) == oracle
