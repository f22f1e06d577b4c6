"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them inline).
All comparisons are exact; the stated time budgets are asserted.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from onsat import boolalg, cnf, expansion, gf2k, onset, solver
from onsat.boolalg import Assignment, const, semantically_equal, star, var
from onsat.cnf import (
    CnfSet,
    assign_and_reduce,
    assign_pure_round,
    choose_split_cnf,
    decompose_cnf,
    find_pure_literals,
    propagate_units,
    pure_literal_chain,
    solve_sat,
)
from onsat.expansion import (
    CANONICAL,
    RATIO,
    combine,
    compose,
    eliminant,
    expand,
    minterm_consistency,
    negate,
)
from onsat.gf2k import BOOLEAN_SOLVER, F8_MODULUS, FIELD_DIRECT, Curve, Field
from onsat.onset import minterm, term_chain, validate_on
from onsat.solver import DECIDE, ENUMERATE, Conflict, SolverConfig, bool_solve
from conftest import (
    all_points,
    expanded_solution_set,
    oracle_cnf_solutions,
    oracle_eval,
    oracle_system_solutions,
    random_clauses,
    random_func,
    random_system,
    random_term_chain,
)

from test_cnf import EXAMPLE_A, EXAMPLE_B, clause_sets


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def func_from_table(bits: int, ids) -> boolalg.BoolFunc:
    """Canonical minterm-sum expression with the given truth table."""
    terms = [minterm(i, ids).func() for i in range(1 << len(ids)) if (bits >> i) & 1]
    return boolalg.or_all(terms)


def test_criterion_1_cnf_example_one():
    with criterion(1, "worked CNF example one"):
        start = time.monotonic()

        assert find_pure_literals(EXAMPLE_A) == [(0, True), (2, False)]

        chain = pure_literal_chain(EXAMPLE_A)
        t_last = chain.terms[-1]
        assert t_last.literals == {0: True, 2: False}
        residual = assign_and_reduce(EXAMPLE_A, t_last.partial_assignment())
        assert clause_sets(residual) == [{-2, 4, -7, -8}, {-4, 8}]

        oracle = oracle_cnf_solutions(EXAMPLE_A.clauses, 8)
        family = {
            s for s in oracle if dict(s)[0] == 1 and dict(s)[1] == 0
            and dict(s)[2] == 0 and dict(s)[3] == 0
        }
        assert len(family) == 16  # the witness family with four free vars

        out = solve_sat(EXAMPLE_A, SolverConfig(n0=2, mode=DECIDE))
        assert out.sat
        witness = out.solutions[0]
        for total in witness.expand():
            assert tuple(sorted(total.items())) in oracle
        assert dict(witness.assignment) == {0: 1, 1: 0, 2: 0, 3: 0}

        assert solve_sat(EXAMPLE_A, SolverConfig()).sat
        assert time.monotonic() - start < 1.0


def test_criterion_2_cnf_example_two():
    with criterion(2, "worked CNF example two"):
        start = time.monotonic()

        assert find_pure_literals(EXAMPLE_B) == []
        chain = term_chain([(0, False), (1, False)])
        assert [t.literals for t in chain.terms] == [
            {0: True}, {0: False, 1: True}, {0: False, 1: False},
        ]

        c1, c2, c3 = decompose_cnf(EXAMPLE_B, chain)
        assert clause_sets(c1) == [
            {3, -4, 7}, {-3, 4, 8}, {2, -5, 6, -7}, {5, -6, -7},
        ]
        assert clause_sets(c2) == [{5, -8}, {-3, 4, 8}, {5, -6, -7}]
        assert clause_sets(c3) == [{-3, 4, 8}, {-5, 6, -7}, {5, -6, -7}]

        after_first, round_one = assign_pure_round(c1)
        assert round_one.as_dict() == {1: 1, 7: 1}
        assert clause_sets(after_first) == [{3, -4, 7}, {5, -6, -7}]
        empty, round_two = assign_pure_round(after_first)
        assert round_two.as_dict() == {2: 1, 4: 1}
        assert not empty.clauses
        assigned = {0} | set(round_one) | set(round_two)
        assert set(range(8)) - assigned == {3, 5, 6}  # x4, x6, x7 free

        assert solve_sat(EXAMPLE_B, SolverConfig(n0=2, mode=DECIDE)).sat
        assert time.monotonic() - start < 1.0


def test_criterion_3_elliptic_curve():
    with criterion(3, "elliptic curve point enumeration"):
        start = time.monotonic()
        field = Field(F8_MODULUS)
        theta = 0b010
        # coefficients matching the worked per-x quadratics; the x = 1
        # case has constant term 1 + theta + theta^2 and trace 1
        curve = Curve(a1=1, a2=0b011, a4=0b111, a6=theta)

        assert field.mul(theta, field.square(theta)) == theta ^ 1  # t^3 = t+1
        sqrt_theta = field.sqrt(theta)
        assert gf2k.curve_points_at_x(curve, field, 0) == {(0, sqrt_theta)}

        _, q, r = curve.quadratic_in_y(field, 1)
        s = field.div(field.mul(1, r), field.square(q))
        assert s == 0b111 and field.trace(s) == 1
        assert gf2k.curve_points_at_x(curve, field, 1) == set()

        assert len(gf2k.curve_points_at_x(curve, field, theta)) == 2
        assert len(gf2k.curve_points_at_x(curve, field, theta ^ 1)) == 2

        # 64-pair brute-force oracle, straight from the curve equation
        oracle = set()
        for x in field.elements():
            for y in field.elements():
                value = (
                    field.square(y)
                    ^ field.mul(curve.a1, field.mul(x, y))
                    ^ field.pow(x, 3)
                    ^ field.mul(curve.a2, field.square(x))
                    ^ field.mul(curve.a4, x)
                    ^ curve.a6
                )
                if value == 0:
                    oracle.add((x, y))
        assert len(oracle) == 13

        boolean = gf2k.enumerate_curve(curve, field, BOOLEAN_SOLVER)
        direct = gf2k.enumerate_curve(curve, field, FIELD_DIRECT)
        assert boolean == oracle
        assert direct == oracle
        assert time.monotonic() - start < 1.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "exhaustive oracle equivalence"):
        start = time.monotonic()
        cfg = SolverConfig(n0=4, split_depth=3, mode=ENUMERATE)

        rng = random.Random(40400)
        for _ in range(500):
            n = rng.randint(2, 12)
            system = random_system(rng, n, rng.randint(1, 8))
            got = expanded_solution_set(bool_solve(system, cfg), system.root_vars)
            assert got == oracle_system_solutions(system)

        rng = random.Random(40401)
        for _ in range(500):
            n = rng.randint(2, 12)
            clauses = random_clauses(rng, n, rng.randint(1, 3 * n))
            problem = CnfSet.from_clauses(clauses, n)
            got = expanded_solution_set(solve_sat(problem, cfg), range(n))
            assert got == oracle_cnf_solutions(problem.clauses, n)

        assert time.monotonic() - start < 120.0


def _onset_catalog():
    x, y, z, w = var(0), var(1), var(2), var(3)
    return [
        validate_on([const(1)]),
        validate_on([x, ~x]),
        validate_on([x, ~x & y, ~x & ~y]),
        validate_on([x, ~x & y, ~x & ~y & z, ~x & ~y & ~z]),
        term_chain([(0, True), (1, False), (2, True)]),
        term_chain([(3, False), (0, True)]),
        onset.from_minterm_partition(
            onset.MintermPartition([{0}, {1}, {2}, {3}], n=2), [0, 1]
        ),
        onset.from_minterm_partition(
            onset.MintermPartition([{0, 3}, {1, 2}], n=2), [0, 1]
        ),
        onset.product_onset(validate_on([x, ~x]), validate_on([y, ~y])),
        onset.chain_from_elements([x ^ y, z]),
    ]


def test_criterion_5_identity_suite():
    with criterion(5, "expansion identity suite"):
        start = time.monotonic()
        catalog = _onset_catalog()
        two_var_funcs = [func_from_table(bits, [0, 1]) for bits in range(16)]

        # reconstruction, range and coefficient arithmetic over every
        # catalog base and every two-variable function
        for base in catalog:
            over = sorted(base.vars | {0, 1})
            choices = [CANONICAL] + ([RATIO] if base.terms is not None else [])
            for f in two_var_funcs:
                for choice in choices:
                    e = expand(f, base, choice)
                    assert semantically_equal(e.reconstruct(), f, over=over)
                    for a, phi in zip(e.coefficients, base.members):
                        low, high = f & phi, f | ~phi
                        assert semantically_equal(low & a, low, over=over)
                        assert semantically_equal(a & high, a, over=over)
            for fa, fb in itertools.product(two_var_funcs[:8], repeat=2):
                ea, eb = expand(fa, base), expand(fb, base)
                assert semantically_equal(
                    combine(ea, eb, "and").reconstruct(), fa & fb, over=over)
                assert semantically_equal(
                    combine(ea, eb, "or").reconstruct(), fa | fb, over=over)
                assert semantically_equal(
                    combine(ea, eb, "xor").reconstruct(), fa ^ fb, over=over)
                assert semantically_equal(
                    negate(ea).reconstruct(), ~fa, over=over)
                composed = compose(var(9) & ~var(10), [ea, eb])
                assert semantically_equal(
                    composed.reconstruct(), fa & ~fb, over=over)

        # dual and star relations, exhaustively over all three-variable
        # functions
        ids3 = [0, 1, 2]
        for bits in range(256):
            f = func_from_table(bits, ids3)
            starred = {star(a) for a in boolalg.zero_set(f, over=ids3)}
            assert boolalg.support(boolalg.dual(f), over=ids3) == starred
            assert semantically_equal(boolalg.dual(boolalg.dual(f)), f, over=ids3)

        # eliminant-projection equality, exhaustively at three variables
        for bits in range(256):
            f = func_from_table(bits, ids3)
            if not f.vars:
                continue
            v = min(f.vars)
            rest = sorted(set(ids3) - {v})
            got = {
                tuple(sorted(a.items()))
                for a in boolalg.zero_set(eliminant(f, v), over=rest)
            }
            expected = {
                tuple(sorted((u, b) for u, b in p.items() if u != v))
                for p in all_points(ids3)
                if oracle_eval(f, p) == 0
            }
            assert got == expected

        # minterm-theorem iff: all functions at up to three variables
        # with every nonempty coordinate subset, then the full
        # four-variable sweep with a rotating subset
        for n in (1, 2, 3):
            ids = list(range(n))
            subsets = [
                list(s)
                for k in range(1, n + 1)
                for s in itertools.combinations(ids, k)
            ]
            for bits in range(1, 1 << (1 << n)):
                f = func_from_table(bits, ids)
                consistent = bits != (1 << (1 << n)) - 1
                for x1 in subsets:
                    assert minterm_consistency(f, x1) == consistent
        ids4 = [0, 1, 2, 3]
        subsets4 = [
            list(s)
            for k in range(1, 5)
            for s in itertools.combinations(ids4, k)
        ]
        for bits in range(1, 1 << 16):
            f = func_from_table(bits, ids4)
            x1 = subsets4[bits % len(subsets4)]
            assert minterm_consistency(f, x1) == (bits != 0xFFFF)

        # 1000 random cases at up to six variables exercise everything
        # at once
        rng = random.Random(50500)
        ids6 = list(range(6))
        for _ in range(1000):
            f = random_func(rng, ids6)
            g = random_func(rng, ids6)
            base = random_term_chain(rng, ids6)
            over = sorted(set(ids6) | base.vars)
            ef, eg = expand(f, base), expand(g, base)
            assert semantically_equal(ef.reconstruct(), f, over=over)
            for a, phi in zip(ef.coefficients, base.members):
                low, high = f & phi, f | ~phi
                assert semantically_equal(low & a, low, over=over)
                assert semantically_equal(a & high, a, over=over)
            assert semantically_equal(
                combine(ef, eg, "xor").reconstruct(), f ^ g, over=over)
            starred = {star(a) for a in boolalg.zero_set(f, over=ids6)}
            assert boolalg.support(boolalg.dual(f), over=ids6) == starred
            if f.vars:
                v = min(f.vars)
                elim = eliminant(f, v)
                rest = sorted(set(ids6) - {v})
                got = {
                    tuple(sorted(a.items()))
                    for a in boolalg.zero_set(elim, over=rest)
                }
                expected = {
                    tuple(sorted((u, b) for u, b in p.items() if u != v))
                    for p in all_points(ids6)
                    if oracle_eval(f, p) == 0
                }
                assert got == expected
                x1 = sorted(f.vars)[: rng.randint(1, len(f.vars))]
                truly = any(oracle_eval(f, p) == 0 for p in all_points(ids6))
                assert minterm_consistency(f, x1) == truly

        assert time.monotonic() - start < 60.0


def test_criterion_6_dpll_degeneration():
    with criterion(6, "degeneration to classic DPLL"):
        rng = random.Random(60600)
        cfg = SolverConfig(n0=1, split_depth=1, mode=DECIDE)
        checked = 0
        while checked < 100:
            n = rng.randint(3, 10)
            problem = CnfSet.from_clauses(
                random_clauses(rng, n, rng.randint(2, 2 * n)), n
            )
            try:
                reduced, _ = propagate_units(problem)
            except Conflict:
                continue
            while True:
                reduced, pures = assign_pure_round(reduced)
                if not pures:
                    break
            if not reduced.occurring():
                continue
            chain = choose_split_cnf(reduced, cfg)
            assert chain.order == 2
            (v, _), = chain.terms[1].literals.items()
            children = decompose_cnf(reduced, chain)
            classic = []
            for b in (0, 1):
                try:
                    classic.append(tuple(assign_and_reduce(reduced, {v: b}).clauses))
                except Conflict:
                    classic.append(None)
            got = {None if c is None else tuple(c.clauses) for c in children}
            assert got == set(classic)
            checked += 1
        print(f"(checked {checked} instances) ", end="")


def test_criterion_7_performance_substitute():
    with criterion(7, "performance substitute"):
        # no runtime figures are reproduced; instead: a mid-size random
        # 3-CNF decides quickly at default settings, and small random
        # CNFs decide as the exhaustive oracle says
        rng = random.Random(70700)
        for _ in range(3):
            clauses = random_clauses(rng, 50, 200, width=3)
            problem = CnfSet.from_clauses(clauses, 50)
            start = time.monotonic()
            out = solve_sat(problem, SolverConfig())
            elapsed = time.monotonic() - start
            assert out.status in ("SAT", "UNSAT")
            assert elapsed < 60.0

        rng = random.Random(70701)
        for _ in range(1000):
            n = rng.randint(2, 12)
            problem = CnfSet.from_clauses(
                random_clauses(rng, n, rng.randint(1, 3 * n)), n
            )
            out = solve_sat(problem, SolverConfig(n0=4, mode=DECIDE))
            assert out.sat == bool(oracle_cnf_solutions(problem.clauses, n))
