import random
import warnings

import pytest

from onsat.boolalg import ParseError
from onsat.cnf import (
    CnfSet,
    HeaderMismatch,
    NoPureLiterals,
    assign_and_reduce,
    assign_pure_round,
    choose_split_cnf,
    decompose_cnf,
    emit_dimacs,
    find_pure_literals,
    parse_dimacs,
    propagate_units,
    pure_literal_chain,
    solve_sat,
    to_system,
    unit_literals,
)
from onsat.solver import (
    DECIDE,
    ENUMERATE,
    SAT,
    UNSAT,
    Conflict,
    SolverConfig,
    bool_solve,
)
from conftest import (
    expanded_solution_set,
    oracle_cnf_solutions,
    random_clauses,
)

# the two worked 8-variable clause sets used across this suite
EXAMPLE_A = CnfSet.from_clauses(
    [
        [1, -3, 6],
        [2, -3, 5, 6, 7],
        [1, 2, -3, -5, -6, 8],
        [-2, 4, -7, -8],
        [-4, 8],
    ],
    num_vars=8,
)

EXAMPLE_B = CnfSet.from_clauses(
    [
        [1, -2, 5, -8],
        [-1, 3, -4, 7],
        [-3, 4, 8],
        [2, -5, 6, -7],
        [5, -6, -7],
    ],
    num_vars=8,
)


def clause_sets(c: CnfSet) -> list:
    return [set(cl) for cl in c.clauses]


def cfg(**kw):
    base = dict(n0=2, split_depth=2, mode=ENUMERATE)
    base.update(kw)
    return SolverConfig(**base)


class TestDimacs:
    def test_single_clause(self):
        c = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert clause_sets(c) == [{1, -2}]
        assert c.num_vars == 2

    def test_example_a_transcription(self):
        text = (
            "c worked example\n"
            "p cnf 8 5\n"
            "1 -3 6 0\n"
            "2 -3 5 6 7 0\n"
            "1 2 -3 -5 -6 8 0\n"
            "-2 4 -7 -8 0\n"
            "-4 8 0\n"
        )
        c = parse_dimacs(text)
        assert c == EXAMPLE_A
        assert clause_sets(c)[0] == {1, -3, 6}

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            n = rng.randint(1, 9)
            clauses = random_clauses(rng, n, rng.randint(0, 12))
            c = CnfSet.from_clauses(clauses, n)
            again = parse_dimacs(emit_dimacs(c))
            assert again == c

    def test_multiline_clause(self):
        c = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert clause_sets(c) == [{1, 2, 3}]

    def test_header_mismatch_warns(self):
        with pytest.warns(HeaderMismatch):
            c = parse_dimacs("p cnf 1 1\n1 2 0\n")
        assert c.num_vars == 2

    def test_header_mismatch_strict(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 1 1\n1 2 0\n", strict=True)
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 5\n1 2 0\n", strict=True)

    def test_malformed_input(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 -2\n")  # missing terminator
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 -1 0\n")  # both polarities
        # a negative count is a bad problem line, strict or not
        for strict in (False, True):
            with pytest.raises(ParseError, match="bad problem line 'p cnf -3 -1'"):
                parse_dimacs("p cnf -3 -1\n1 0\n", strict=strict)
            with pytest.raises(ParseError, match="bad problem line 'p cnf 2 -1'"):
                parse_dimacs("p cnf 2 -1\n1 0\n", strict=strict)

    @pytest.mark.parametrize("text, line, message", [
        ("p cnf 1_0 1\n1 0\n", 1, "bad problem line 'p cnf 1_0 1'"),
        ("p cnf 2 1_0\n1 0\n", 1, "bad problem line 'p cnf 2 1_0'"),
        ("p cnf \u0661 1\n1 0\n", 1, "bad problem line 'p cnf \u0661 1'"),
        ("p cnf 10 1\n1_0 -2 0\n", 2, "non-integer literal '1_0'"),
        ("p cnf 2 1\n1 -2\n-1_0\n0\n", 3, "non-integer literal '-1_0'"),
        ("p cnf 2 1\n1 -\u0662 0\n", 2, "non-integer literal '-\u0662'"),
        # a text that is otherwise clean: the digit is in a literal of
        # the usual one-clause line
        ("c caf\u00e9\np cnf 2 1\n\uff11 -2 0\n", 3, "non-integer literal '\uff11'"),
    ])
    def test_digit_separators_and_non_ascii_digits_are_refused(self, text, line, message):
        # int() reads each of these numbers
        with pytest.raises(ParseError) as err:
            parse_dimacs(text)
        assert str(err.value) == f"line {line}: {message}"

    def test_a_sign_and_non_ascii_comments_are_accepted(self):
        for text in ("p cnf 2 +1\n+1 -2 0\n", "c \u00e9t\u00e9\np cnf 2 1\n+1 -2 0\n",
                     "c \u00e9\np cnf +2 1\n+1\n-2 +0\n"):
            assert clause_sets(parse_dimacs(text)) == [{1, -2}], text

    def test_clauses_need_not_follow_lines(self):
        c = parse_dimacs("p cnf 3 4\n1 -2 0 2 3 0\n-3\n1\n2 0 -1 0\n")
        assert clause_sets(c) == [{1, -2}, {2, 3}, {-3, 1, 2}, {-1}]
        # any token whose value is 0 ends a clause
        c = parse_dimacs("p cnf 2 3\n1 00 -2 -0 0\n")
        assert clause_sets(c) == [{1}, {-2}, set()]

    @pytest.mark.parametrize("text, line, message", [
        ("p cnf 2 1\n1 x 0\n", 2, "non-integer literal 'x'"),
        ("p cnf 3 2\n1 2 0\n3 -2 2 0\n", 3,
         "variable 2 appears with both polarities in one clause"),
        ("p cnf 2 2\n1 -2 0\n-1\n\n2\n", 3, "last clause is not terminated by 0"),
        # a clause over several lines is named by the line it starts on
        ("c\np cnf 3 1\n1 2\n3\n-1 0\n", 3,
         "variable 1 appears with both polarities in one clause"),
        # on a line of several clauses, an earlier clause is checked
        # before a later bad token, and a later clause is never read
        ("p cnf 2 2\n1 0 -2 2 0 y 0\n", 2,
         "variable 2 appears with both polarities in one clause"),
        ("p cnf 2 2\n1 0 y -2 2 0\n", 2, "non-integer literal 'y'"),
        ("p cnf 2 2\n1 0 2\n1.5 0\n", 3, "non-integer literal '1.5'"),
    ])
    def test_parse_errors_keep_their_line_and_message(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_dimacs(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


class TestPureLiterals:
    def test_example_a_pures(self):
        assert find_pure_literals(EXAMPLE_A) == [(0, True), (2, False)]

    def test_example_b_has_none(self):
        assert find_pure_literals(EXAMPLE_B) == []

    def test_mixed_stays_out(self):
        c = CnfSet.from_clauses([[1, 2], [-1, 2]])
        assert find_pure_literals(c) == [(1, True)]

    def test_chain_from_example_a(self):
        chain = pure_literal_chain(EXAMPLE_A)
        lits = [t.literals for t in chain.terms]
        assert lits == [
            {0: False},
            {0: True, 2: True},
            {0: True, 2: False},
        ]

    def test_single_pure(self):
        c = CnfSet.from_clauses([[1, 2], [1, -2]])
        chain = pure_literal_chain(c)
        assert [t.literals for t in chain.terms] == [{0: False}, {0: True}]

    def test_no_pures_raises(self):
        with pytest.raises(NoPureLiterals):
            pure_literal_chain(EXAMPLE_B)


class TestAssignAndReduce:
    def test_example_a_residual(self):
        residual = assign_and_reduce(EXAMPLE_A, {0: 1, 2: 0})
        assert clause_sets(residual) == [{-2, 4, -7, -8}, {-4, 8}]

    def test_empty_clause_conflicts(self):
        c = CnfSet.from_clauses([[1]])
        with pytest.raises(Conflict):
            assign_and_reduce(c, {0: 0})

    def test_restriction_property(self, rng):
        # solutions of the reduced set that agree with the fixed values
        # are exactly the solutions of the original that agree with them
        for _ in range(40):
            n = 6
            c = CnfSet.from_clauses(random_clauses(rng, n, 8), n)
            fixed = {v: rng.randint(0, 1) for v in rng.sample(range(n), 2)}
            whole = oracle_cnf_solutions(c.clauses, n)
            restricted = {
                s for s in whole if all(dict(s)[v] == b for v, b in fixed.items())
            }
            try:
                reduced = assign_and_reduce(c, fixed)
            except Conflict:
                assert not restricted
                continue
            got = {
                s
                for s in oracle_cnf_solutions(reduced.clauses, n)
                if all(dict(s)[v] == b for v, b in fixed.items())
            }
            assert got == restricted


class TestUnits:
    def test_unit_fixpoint(self):
        c = CnfSet.from_clauses([[1], [-1, 2], [-2, 3]])
        reduced, made = propagate_units(c)
        assert made.as_dict() == {0: 1, 1: 1, 2: 1}
        assert not reduced.clauses

    def test_negative_unit_assigns_literal_true(self):
        c = CnfSet.from_clauses([[-1]])
        _, made = propagate_units(c)
        assert made.as_dict() == {0: 0}

    def test_contradictory_units(self):
        c = CnfSet.from_clauses([[1], [-1]])
        with pytest.raises(Conflict):
            propagate_units(c)

    def test_unit_literals_list(self):
        c = CnfSet.from_clauses([[1], [2, 3], [-4]])
        assert sorted(unit_literals(c)) == [-4, 1]


class TestPureRounds:
    def test_example_a_single_round(self):
        reduced, made = assign_pure_round(EXAMPLE_A)
        assert made.as_dict() == {0: 1, 2: 0}
        assert clause_sets(reduced) == [{-2, 4, -7, -8}, {-4, 8}]

    def test_round_skips_vanished_variables(self):
        # pures here: 2+, 3-, 4+, 5-; assigning x2=1 satisfies both
        # clauses, so the later pures never get assigned and stay free
        c = CnfSet.from_clauses([[2, -3, 4], [2, -5]])
        reduced, made = assign_pure_round(c)
        assert made.as_dict() == {1: 1}
        assert not reduced.clauses


class TestDecompose:
    def test_example_b_matrices(self):
        from onsat.onset import term_chain

        chain = term_chain([(0, False), (1, False)])
        members = [t.literals for t in chain.terms]
        assert members == [{0: True}, {0: False, 1: True}, {0: False, 1: False}]
        c1, c2, c3 = decompose_cnf(EXAMPLE_B, chain)
        assert clause_sets(c1) == [
            {3, -4, 7},
            {-3, 4, 8},
            {2, -5, 6, -7},
            {5, -6, -7},
        ]
        assert clause_sets(c2) == [
            {5, -8},
            {-3, 4, 8},
            {5, -6, -7},
        ]
        assert clause_sets(c3) == [
            {-3, 4, 8},
            {-5, 6, -7},
            {5, -6, -7},
        ]

    def test_example_b_branch_one_resolves_by_pures(self):
        from onsat.onset import term_chain

        chain = term_chain([(0, False), (1, False)])
        c1 = decompose_cnf(EXAMPLE_B, chain)[0]
        after_first, made1 = assign_pure_round(c1)
        assert made1.as_dict() == {1: 1, 7: 1}
        assert clause_sets(after_first) == [{3, -4, 7}, {5, -6, -7}]
        after_second, made2 = assign_pure_round(after_first)
        assert made2.as_dict() == {2: 1, 4: 1}
        assert not after_second.clauses
        # x4, x6, x7 (ids 3, 5, 6) stay free


class TestSolveSat:
    def test_example_a_decide(self):
        out = solve_sat(EXAMPLE_A, cfg(mode=DECIDE))
        assert out.sat
        witness = out.solutions[0]
        got = dict(witness.assignment)
        oracle = oracle_cnf_solutions(EXAMPLE_A.clauses, 8)
        for total in witness.expand():
            assert tuple(sorted(total.items())) in oracle
        # the paper-style witness family: x1=1, x2=0, x3=0, x4=0, rest free
        assert got == {0: 1, 1: 0, 2: 0, 3: 0}
        assert witness.dont_care == (4, 5, 6, 7)

    def test_example_b_is_sat(self):
        assert solve_sat(EXAMPLE_B, cfg(mode=DECIDE)).sat

    def test_trivially_unsat(self):
        c = CnfSet.from_clauses([[1], [-1]])
        assert solve_sat(c, cfg(mode=DECIDE)).status == UNSAT

    def test_enumerate_matches_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(2, 9)
            c = CnfSet.from_clauses(random_clauses(rng, n, rng.randint(1, 12)), n)
            out = solve_sat(c, cfg())
            assert expanded_solution_set(out, range(n)) == \
                oracle_cnf_solutions(c.clauses, n)

    def test_decide_agrees_on_status(self, rng):
        for _ in range(60):
            n = rng.randint(2, 9)
            c = CnfSet.from_clauses(random_clauses(rng, n, rng.randint(1, 14)), n)
            out = solve_sat(c, cfg(mode=DECIDE))
            assert out.sat == bool(oracle_cnf_solutions(c.clauses, n))

    def test_pure_assignment_preserves_sat_in_decide(self, rng):
        for _ in range(40):
            n = rng.randint(3, 8)
            c = CnfSet.from_clauses(random_clauses(rng, n, rng.randint(1, 8)), n)
            decide = solve_sat(c, cfg(mode=DECIDE))
            oracle = bool(oracle_cnf_solutions(c.clauses, n))
            assert decide.sat == oracle


class TestDpllDegeneration:
    def test_split_depth_one_is_classic_branching(self, rng):
        for _ in range(40):
            n = rng.randint(3, 8)
            c = CnfSet.from_clauses(random_clauses(rng, n, rng.randint(2, 10)), n)
            try:
                c, _ = propagate_units(c)
            except Conflict:
                continue
            while True:
                c, pures = assign_pure_round(c)
                if not pures:
                    break
            if not c.occurring():
                continue
            chain = choose_split_cnf(c, cfg(split_depth=1))
            assert chain.order == 2
            (v, pol), = chain.terms[1].literals.items()
            children = decompose_cnf(c, chain)
            classic = []
            for b in (0, 1):
                try:
                    classic.append(assign_and_reduce(c, {v: b}))
                except Conflict:
                    classic.append(None)
            got = {
                (None if ch is None else tuple(ch.clauses)) for ch in children
            }
            expected = {
                (None if cl is None else tuple(cl.clauses)) for cl in classic
            }
            assert got == expected


class TestSystemEncoding:
    def test_to_system_equivalence(self, rng):
        for _ in range(25):
            n = rng.randint(2, 7)
            c = CnfSet.from_clauses(random_clauses(rng, n, rng.randint(1, 8)), n)
            native = solve_sat(c, cfg())
            generic = bool_solve(to_system(c), cfg())
            assert native.status == generic.status
            assert expanded_solution_set(native, range(n)) == \
                expanded_solution_set(generic, range(n))

    def test_empty_clause_encodes_to_unsat(self):
        c = CnfSet(
            [frozenset()], 2
        )
        assert bool_solve(to_system(c), cfg()).status == UNSAT
        assert solve_sat(c, cfg()).status == UNSAT
