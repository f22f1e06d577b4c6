import itertools
import json
import random

import pytest

from onsat import anf, solver
from onsat.boolalg import Assignment, and_all, const, or_all, truth_table, var, xor_all
from onsat.cli import main
from onsat.solver import (
    DECIDE,
    ENUMERATE,
    SAT,
    UNSAT,
    BoolSystem,
    SolveOutcome,
    SolverConfig,
    _AnfSearch,
    _TreeSearch,
    bool_solve,
    parse_system,
    triv_solve,
)
from conftest import (
    expanded_solution_set,
    oracle_system_solutions,
    random_shared_funcs,
    random_system,
    tree_solutions,
)


def anf_value(e, point: int) -> int:
    """The polynomial at a point given as a mask of the bits set to 1."""
    return sum(1 for m in e if m & point == m) & 1


def anf_table(e, order) -> int:
    """Truth table of a polynomial, MSB-first over the bits of ``order``."""
    n = len(order)
    table = 0
    for idx in range(1 << n):
        point = sum(b for i, b in enumerate(order) if idx >> (n - 1 - i) & 1)
        table |= anf_value(e, point) << idx
    return table


def convert(f, ids, index=None):
    """The ANF of an expression, read back from its index mask."""
    if index is None:
        index = anf.Index()
    return decoded(index, anf.from_expr(f, {v: 1 << i for i, v in enumerate(ids)}, index, {}))


def decoded(index, e) -> frozenset:
    """The monomials of an index mask, read bit by bit from the index."""
    return frozenset(m for i, m in enumerate(index.monomials) if e >> i & 1)


def root_polynomials(equations) -> list:
    """The root polynomials of the ANF search of a system over the
    variables its equations mention, read back from its index."""
    search = _AnfSearch(BoolSystem.root(equations), SolverConfig())
    return [decoded(search.index, e) for e in search.root[0]]


class TestConversion:
    @pytest.mark.parametrize("ids", [[0, 1, 2, 3], [3, 7, 20, 41, 42]])
    def test_agrees_with_truth_table(self, ids):
        rng = random.Random(606)
        bits = [1 << i for i in range(len(ids))]
        for f in random_shared_funcs(rng, ids, 60, 8):
            e = convert(f, ids)
            want = truth_table(f, ids)
            assert anf_table(e, bits) == want
            full = (1 << (1 << len(ids))) - 1
            index = anf.Index()
            assert index.zero_table([index.mask(e)], bits, {}) == full ^ want

    def test_one_memo_for_shared_expressions(self):
        rng = random.Random(607)
        ids = [0, 1, 2, 3, 4]
        bit = {v: 1 << v for v in ids}
        funcs = random_shared_funcs(rng, ids, 30, 6)
        index, memo = anf.Index(), {}
        shared = [anf.from_expr(f, bit, index, memo) for f in funcs]
        assert [decoded(index, e) for e in shared] == [convert(f, ids) for f in funcs]

    def test_operators(self):
        x, y = var(0), var(1)
        assert convert(x & y, [0, 1]) == {0b11}
        assert convert(x | y, [0, 1]) == {0b01, 0b10, 0b11}
        assert convert(~(x ^ y), [0, 1]) == {0, 0b01, 0b10}
        assert convert((x ^ y) & (x ^ y), [0, 1]) == {0b01, 0b10}
        assert convert(x & ~x, [0]) == frozenset()

    def test_wide_or_is_over_budget(self):
        k = anf.BUDGET.bit_length() - 1
        fits = or_all([var(v) for v in range(k)])
        assert len(convert(fits, range(k))) == (1 << k) - 1
        with pytest.raises(anf.OverBudget):
            convert(or_all([var(v) for v in range(k + 1)]), range(k + 1))
        # a deep product of sums outgrows the budget by its product work
        sums = [var(2 * i) ^ var(2 * i + 1) for i in range(k + 1)]
        with pytest.raises(anf.OverBudget):
            convert(and_all(sums), range(2 * k + 2))

    def test_system_is_converted_when_no_larger_than_its_expressions(self):
        x, y, z, w = (var(i) for i in range(4))
        # x | y = 1: x + y + xy + 1, four monomials from four nodes
        (e,) = root_polynomials([(x | y, const(1))])
        assert e == {0, 0b01, 0b10, 0b11}
        # x | y | z = 1: eight monomials from six nodes
        with pytest.raises(anf.OverBudget):
            root_polynomials([(x | y | z, const(1))])
        # nodes shared between equations count once
        quad = (x & y) ^ (z & w) ^ x
        eqs = root_polynomials([(quad, const(1)), (x | y, quad)])
        assert eqs[1] == {0b01, 0b10, 0b11} ^ eqs[0] ^ {0}


class TestPolynomialOps:
    def test_index_numbers_each_monomial_once(self):
        rng = random.Random(615)
        index = anf.Index()
        polys = [frozenset(rng.randrange(64) for _ in range(rng.randint(0, 6)))
                 for _ in range(30)]
        masks = [index.mask(e) for e in polys]
        assert [decoded(index, e) for e in masks] == polys
        monomials = index.monomials
        assert len(set(monomials)) == len(monomials) == len(index.at)
        assert all(index.at[m] == i for i, m in enumerate(monomials))
        for b in range(6):
            want = sum(1 << i for i, m in enumerate(monomials) if m >> b & 1)
            assert index.has.get(1 << b, 0) == want
        assert index.nonlinear == sum(1 << i for i, m in enumerate(monomials)
                                      if bin(m).count("1") > 1)
        # a mask over known monomials indexes nothing new
        size = len(monomials)
        assert [index.mask(e) for e in polys] == masks
        assert len(index.monomials) == len(index.at) == size

    def test_cofactor_agrees_with_evaluation(self):
        rng = random.Random(608)
        ids = list(range(5))
        index = anf.Index()
        for f in random_shared_funcs(rng, ids, 40, 8):
            e = convert(f, ids, index)
            zeros, ones = rng.sample(range(5), 2)
            (got,) = index.cofactor([index.mask(e)], 1 << zeros, 0)
            (got,) = index.cofactor([got], 1 << ones, 1)
            got = decoded(index, got)
            assert all(not m & (1 << zeros | 1 << ones) for m in got)
            for point in range(32):
                if point >> zeros & 1 or not point >> ones & 1:
                    continue
                assert anf_value(got, point) == anf_value(e, point)

    def test_substitute_agrees_with_evaluation(self):
        rng = random.Random(609)
        ids = list(range(5))
        cbit = 1 << 5
        index = anf.Index()
        for f in random_shared_funcs(rng, ids, 40, 8):
            e = convert(f, ids, index)
            rest = rng.randrange(1, 64) & ~1   # pivot is bit 0
            got = decoded(index, index.substitute(index.mask(e), 1, rest, cbit))
            assert all(not m & 1 for m in got)
            for point in range(0, 32, 2):
                value = (rest & (point | cbit)).bit_count() & 1
                assert anf_value(got, point) == anf_value(e, point | value)

    def test_substitute_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(anf, "BUDGET", 4)
        index = anf.Index()
        cbit = 1 << 6
        # x0 x1 x2 under x0 := x3 + x4 + x5 + 1 is four monomials, and
        # x0 x1 x2 + x1 five; x1 x2 x3 + x1 under x3 := x2 + 1 is x1 again
        rest = 0b111000 | cbit
        e = index.mask({0b000111})
        assert len(decoded(index, index.substitute(e, 1, rest, cbit))) == 4
        with pytest.raises(anf.OverBudget):
            index.substitute(index.mask({0b000111, 0b000010}), 1, rest, cbit)
        e = index.mask({0b001110, 0b000010})
        assert decoded(index, index.substitute(e, 0b1000, 0b100 | cbit, cbit)) == {0b10}

    def test_substitute_budget_is_on_the_result_not_on_the_pairs(self, monkeypatch):
        # x0 x1 + x0 x1 x3 under x0 := x3 + 1 multiplies 2 images by 2
        # terms, 4 pairs over a budget of 3, but x1 x3 comes up twice and
        # cancels: x1 + x1 x3 is 2 monomials, within it
        monkeypatch.setattr(anf, "BUDGET", 3)
        index = anf.Index()
        cbit = 1 << 4
        e = index.mask({0b0011, 0b1011})
        got = index.substitute(e, 0b0001, 0b1000 | cbit, cbit)
        assert decoded(index, got) == {0b0010, 0b1010}

    def test_product_agrees_with_evaluation(self):
        rng = random.Random(619)
        index = anf.Index()
        for _ in range(200):
            pool = [rng.randrange(1 << 5) for _ in range(rng.randint(1, 8))]
            a, b = (index.mask(set(rng.sample(pool, rng.randint(0, len(pool)))))
                    for _ in range(2))
            got = decoded(index, index.product(a, b))
            assert index.product(b, a) == index.mask(got)
            for point in range(32):
                want = anf_value(decoded(index, a), point) & anf_value(decoded(index, b), point)
                assert anf_value(got, point) == want
        # (x0 + x1)(x0 + x1) = x0 + x1: the two x0 x1 pairs cancel
        e = index.mask({0b01, 0b10})
        assert index.product(e, e) == e

    def test_untouched_polynomial_is_returned_as_is(self):
        index = anf.Index()
        e = index.mask({0, 0b011, 0b100})
        index.mask({0b01000, 0b10000})  # both bits are in the index
        size = len(index.monomials)
        assert index.cofactor([e], 0b01000, 0) == index.cofactor([e], 0b10000, 1) == (e,)
        assert index.substitute(e, 0b01000, 0b00011 | 1 << 6, 1 << 6) is e
        assert len(index.monomials) == size

    def test_folds_that_cancel_agree_with_evaluation(self):
        cbit = 1 << 3
        index = anf.Index()
        # x0 x1 + x0 under x1 = 1 is x0 + x0 = 0; + x2 leaves x2
        for e, want in ((frozenset({0b011, 0b001}), frozenset()),
                        (frozenset({0b011, 0b001, 0b100}), frozenset({0b100}))):
            (got,) = index.cofactor([index.mask(e)], 0b010, 1)
            got = decoded(index, got)
            assert got == want
            for point in range(8):
                if point & 0b010:
                    assert anf_value(got, point) == anf_value(e, point)
        # x0 x2 + x1 x2 under x0 := x1 is x1 x2 + x1 x2 = 0; under
        # x0 := x1 + 1 it is x2
        for rest, want in ((0b010, frozenset()), (0b010 | cbit, frozenset({0b100}))):
            e = frozenset({0b101, 0b110})
            got = decoded(index, index.substitute(index.mask(e), 0b001, rest, cbit))
            assert got == want
            for point in range(0, 8, 2):
                value = (rest & (point | cbit)).bit_count() & 1
                assert anf_value(got, point) == anf_value(e, point | value)

    def test_affine_rows_and_occurring_bits(self):
        rng = random.Random(616)
        index = anf.Index()
        cbit = 1 << 6
        for _ in range(200):
            e = frozenset(rng.randrange(64) for _ in range(rng.randint(0, 5)))
            mask = index.mask(e)
            affine = all(bin(m).count("1") <= 1 for m in e)
            assert (not mask & index.nonlinear) == affine
            if affine:
                assert index.row(mask, cbit) == sum(m or cbit for m in e)
            eqs = [mask, index.mask({rng.randrange(64)})]
            want = 0
            for m in e | decoded(index, eqs[1]):
                want |= m
            assert index.occurring(eqs) == want
        assert index.occurring([]) == 0

    def test_frequencies_count_each_monomial_of_each_polynomial(self):
        """The bit-sliced count against one popcount per polynomial, up
        to 70 polynomials (seven counter levels)."""
        rng = random.Random(618)
        index = anf.Index()
        for _ in range(60):
            pool = [rng.randrange(1, 1 << 8) for _ in range(rng.randint(1, 12))]
            eqs = [index.mask(set(rng.sample(pool, rng.randint(0, len(pool)))))
                   for _ in range(rng.randint(0, 70))]
            want = {}
            for b, h in index.has.items():
                c = sum((e & h).bit_count() for e in eqs)
                if c:
                    want[b] = c
            assert index.frequencies(eqs) == want

    def test_zero_table_shares_one_pattern_table(self):
        """One table across leaves of interleaved sizes and unsorted orders."""
        rng = random.Random(611)
        patterns: dict = {}
        index = anf.Index()
        for n in [3, 6, 3, 1, 6, 4, 1, 3]:
            order = [1 << b for b in rng.sample(range(12), n)]
            eqs = [frozenset(sum(rng.sample(order, rng.randint(0, min(n, 3))))
                             for _ in range(rng.randint(1, 5)))
                   for _ in range(rng.randint(1, 3))]
            full = (1 << (1 << n)) - 1
            expected = full
            for e in eqs:
                expected &= full ^ anf_table(e, order)
            got = index.zero_table([index.mask(e) for e in eqs], order, patterns)
            assert got == expected, (order, eqs)
        assert sorted(patterns) == [1, 3, 4, 6]

    def test_zero_table_does_not_depend_on_the_order_of_the_polynomials(self):
        """It takes them cheapest first; every order gives the same mask."""
        rng = random.Random(613)
        index = anf.Index()
        for _ in range(40):
            n = rng.randint(1, 8)
            order = [1 << b for b in range(n)]
            eqs = [frozenset(rng.randrange(1 << n) for _ in range(rng.randint(0, 6)))
                   for _ in range(rng.randint(1, 5))]
            full = (1 << (1 << n)) - 1
            expected = full
            for e in eqs:
                expected &= full ^ anf_table(e, order)
            for perm in itertools.permutations(eqs):
                got = index.zero_table([index.mask(e) for e in perm], order, {})
                assert got == expected, (n, perm)


class TestGaussJordan:
    CBIT = 1 << 4

    def test_inconsistent_rows(self):
        c = self.CBIT
        # x0 + x1 = 0, x1 + x2 = 1, x0 + x2 = 0
        assert anf.gauss_jordan([0b0011, 0b0110 | c, 0b0101], c) is None
        assert anf.gauss_jordan([c], c) is None

    def test_reduced_rows_keep_the_solution_set(self):
        rng = random.Random(610)
        c = self.CBIT
        for _ in range(200):
            rows = [rng.randrange(1, 32) for _ in range(rng.randint(1, 5))]
            pivots = anf.gauss_jordan(rows, c)

            def solutions(rs):
                return {p for p in range(16)
                        if all(not (r & (p | c)).bit_count() & 1 for r in rs)}

            if pivots is None:
                assert solutions(rows) == set()
                continue
            for p, row in pivots:
                assert p == row & -row and p != c
                assert all(not other & p for q, other in pivots if q != p)
            assert solutions(rows) == solutions([row for _, row in pivots])


def cfg(**kw):
    base = dict(n0=2, split_depth=2, mode=ENUMERATE)
    base.update(kw)
    return SolverConfig(**base)


def reference_chain(eqs, depth: int) -> list:
    """Split bits from a count of every bit of every monomial."""
    counts: dict = {}
    for e in eqs:
        for m in e:
            for b in anf.bits_of(m):
                counts[b] = counts.get(b, 0) + 1
    return sorted(counts, key=lambda b: (-counts[b], b))[:depth]


def test_chain_counts_each_monomial_of_each_equation():
    """Same split bits as the reference, ties at the cut included."""
    rng = random.Random(612)
    ties = 0
    for _ in range(300):
        nbits = rng.randint(2, 7)
        pool = [rng.randrange(1, 1 << nbits) for _ in range(6)]
        eqs = [frozenset(rng.sample(pool, rng.randint(1, 4)))
               for _ in range(rng.randint(1, 3))]
        # a copy of each equation with bits a and b swapped ties them
        a, b = rng.sample(range(nbits), 2)

        def swap(m):
            hi, lo = m >> a & 1, m >> b & 1
            return m & ~(1 << a | 1 << b) | lo << a | hi << b

        eqs += [frozenset(map(swap, e)) for e in eqs]
        depth = rng.randint(1, 4)
        search = _AnfSearch(BoolSystem.root([(var(0), const(1))]), cfg(split_depth=depth))
        want = reference_chain(eqs, depth)
        assert search._chain([search.index.mask(e) for e in eqs]) == want, (eqs, depth)
        counts = {1 << i: sum(1 for e in eqs for m in e if m >> i & 1)
                  for i in range(nbits)}
        ranked = sorted(counts.values(), reverse=True)
        ties += depth < nbits and ranked[depth - 1] == ranked[depth] > 0
    assert ties > 50


def holds(system, total: dict) -> bool:
    point = Assignment(total)
    return all(l.eval(point) == r.eval(point) for l, r in system.equations)


class TestAnfSearch:
    def test_binding_over_free_variables_splits_the_cube(self):
        x, y, z = var(0), var(1), var(2)
        s = BoolSystem.root([(x ^ y ^ z, const(1))], [0, 1, 2, 3])
        out = bool_solve(s, cfg())
        # x = 1 + y + z: y and z get both values, w is a don't-care
        assert len(out.solutions) == 4
        assert all(sol.dont_care == (3,) for sol in out.solutions)
        assert expanded_solution_set(out, s.root_vars) == oracle_system_solutions(s)

    def test_elimination_reaches_a_nonlinear_equation(self):
        x, y, z, w = (var(i) for i in range(4))
        # x = y + 1 turns x & z + y & z + z & w = 1 into z + z & w = 1
        s = BoolSystem.root([(x ^ y, const(1)), ((x & z) ^ (y & z) ^ (z & w), const(1))])
        out = bool_solve(s, cfg(n0=1, split_depth=1))
        assert expanded_solution_set(out, s.root_vars) == oracle_system_solutions(s)

    def test_inconsistent_affine_system_is_unsat(self):
        x, y, z = var(0), var(1), var(2)
        s = BoolSystem.root([(x ^ y, const(0)), (y ^ z, const(1)), (x, z)])
        assert bool_solve(s, cfg()).status == UNSAT
        assert bool_solve(s, cfg(mode=DECIDE)).status == UNSAT

    def test_root_trail_and_literal_bindings_are_lifted(self):
        x, y, z, w = (var(i) for i in range(4))
        s = BoolSystem.root([(x, ~y), (z, const(1)), ((y & w) ^ x, const(0))])
        reduced, _ = triv_solve(s)
        assert reduced.bindings and reduced.trail.as_dict() == {2: 1}
        out = bool_solve(reduced, cfg())
        assert expanded_solution_set(out, s.root_vars) == oracle_system_solutions(s)

    def test_trail_fixes_a_bindings_kept_variable(self):
        x, y, z, w = (var(i) for i in range(4))
        s = BoolSystem.root([(x, y), (y, const(1)), (z ^ w, const(0))])
        reduced, _ = triv_solve(s)
        assert reduced.bindings == ((0, 1, True),)
        assert reduced.trail.as_dict() == {1: 1}
        oracle = oracle_system_solutions(s)
        for mode in (DECIDE, ENUMERATE):
            for found in (bool_solve(reduced, cfg(mode=mode)).solutions,
                          tree_solutions(reduced, cfg(mode=mode))):
                got = {
                    tuple(sorted(total.items()))
                    for sol in found for total in sol.expand()
                }
                assert got == oracle if mode == ENUMERATE else got <= oracle

    def test_reduced_roots_with_units_and_bindings(self):
        from onsat.solver import Conflict

        rng = random.Random(612)
        checked = 0
        for _ in range(60):
            base = random_system(rng, 6, rng.randint(1, 3))
            a, b, c = rng.sample(range(6), 3)
            eqs = base.equations + (
                (var(a), var(b) if rng.random() < 0.5 else ~var(b)),
                (var(rng.choice((b, c))), const(rng.randint(0, 1))),
            )
            s = BoolSystem.root(eqs, range(6))
            oracle = oracle_system_solutions(s)
            try:
                reduced, _ = triv_solve(s)
            except Conflict:
                assert not oracle
                continue
            for mode in (DECIDE, ENUMERATE):
                out = bool_solve(reduced, cfg(mode=mode))
                got = expanded_solution_set(out, s.root_vars)
                assert got == oracle if mode == ENUMERATE else got <= oracle
                assert out.status == (SAT if oracle else UNSAT)
            checked += 1
        assert checked > 30

    def test_node_at_or_below_n0_is_a_table_leaf_without_elimination(self, monkeypatch):
        x, y, z, w = (var(i) for i in range(4))
        # x + y + z = 0 is affine; w = x y.  Four points: x, y free
        s = BoolSystem.root([(x ^ y ^ z, const(0)), ((x & y) ^ w, const(0))])
        calls = {"gauss_jordan": 0, "substitute": 0}
        for owner, name in ((anf, "gauss_jordan"), (anf.Index, "substitute")):
            def counting(*args, _f=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(owner, name, counting)
        oracle = oracle_system_solutions(s)
        out = bool_solve(s, cfg(n0=4))
        assert calls == {"gauss_jordan": 0, "substitute": 0}
        # one leaf table over x, y, z, w: its points in table-index order
        assert [sol.assignment for sol in out.solutions] == sorted(oracle)
        assert len(oracle) == 4
        # below the bit count the same system still eliminates
        out = bool_solve(s, cfg(n0=2))
        assert calls["gauss_jordan"] > 0 and calls["substitute"] > 0
        assert expanded_solution_set(out, s.root_vars) == oracle

    def test_elimination_over_budget_splits_the_node(self, monkeypatch):
        monkeypatch.setattr(anf, "BUDGET", 16)
        visited = []
        visit = _TreeSearch.visit

        def recording(self, node):
            visited.append(node.trail.as_dict())
            return visit(self, node)

        monkeypatch.setattr(_TreeSearch, "visit", recording)
        overflows = count_overflows(monkeypatch)
        s = late_overflow_system()
        # c = 1 overflows at the root node itself, in decide mode too; a
        # root with a trail (here z = 1 from triv_solve) is searched as is
        forced = BoolSystem.root(s.equations + ((var(C), const(1)),))
        with_trail = BoolSystem.root(s.equations + ((var(16), const(1)),))
        reduced, _ = triv_solve(with_trail)
        assert reduced.trail.as_dict() == {16: 1}
        # x_i = a_i + b_i with no c: the root node overflows
        xs = [var(i) for i in range(5)]
        eqs = [(and_all(xs), const(1))]
        eqs += [(xs[i], var(5 + 2 * i) ^ var(6 + 2 * i)) for i in range(5)]
        plain = BoolSystem.root(eqs)
        cases = ((s, s), (forced, forced), (reduced, with_trail), (plain, plain))
        for root, system in cases:
            _AnfSearch(root, cfg())
            oracle = oracle_system_solutions(system)
            for mode in (DECIDE, ENUMERATE):
                overflows.clear()
                out = bool_solve(root, cfg(n0=2, split_depth=1, mode=mode))
                got = expanded_solution_set(out, system.root_vars)
                if mode == ENUMERATE:
                    assert got == oracle and overflows
                    # disjoint cubes: each point is printed once
                    assert sum(x.expanded_count() for x in out.solutions) == len(got)
                else:
                    assert len(out.solutions) == 1
                    assert all(holds(system, total) for total in out.solutions[0].expand())
                    assert overflows or root is s or root is reduced
        # no tree search under a root that converts
        assert not visited
        # an overflow at the root's conversion: there the trees start
        s = BoolSystem.root([(or_all(xs), const(1))] + eqs[1:])
        with pytest.raises(anf.OverBudget):
            _AnfSearch(s, cfg())
        oracle = oracle_system_solutions(s)
        for mode in (DECIDE, ENUMERATE):
            out = bool_solve(s, cfg(mode=mode))
            got = expanded_solution_set(out, s.root_vars)
            assert got == oracle if mode == ENUMERATE else got <= oracle
            assert len(out.solutions) == 1 or mode == ENUMERATE
        assert visited[0] == {}

    def test_cli_prints_each_cube_once_across_the_fallback(self, monkeypatch, tmp_path,
                                                           capsys):
        monkeypatch.setattr(anf, "BUDGET", 16)
        names = [f"x{i}" for i in range(5)]
        names += [f"{ab}{i}" for i in range(5) for ab in "ab"] + ["c"]
        text = f"vars: {', '.join(names)}\nc & x0 & x1 & x2 & x3 & x4 = c\n" + "".join(
            f"x{i} = (c & a{i}) ^ (c & b{i})\n" for i in range(5))
        path = tmp_path / "late.sys"
        path.write_text(text)
        system, table = parse_system(text)
        assert table.names == names
        visited, roots = [], []
        visit = _TreeSearch.visit
        monkeypatch.setattr(_TreeSearch, "visit",
                            lambda self, node: visited.append(node) or visit(self, node))

        def parse(text):
            roots.append(parse_system(text)[0])
            return roots[-1], table

        monkeypatch.setattr(solver, "parse_system", parse)
        overflows = count_overflows(monkeypatch)
        code = main(["enumerate", str(path), "--n0", "2", "--split-depth", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 10 and overflows and not visited
        # the root's expressions were never built: the slot is unset (read
        # through its descriptor, as getattr would build them)
        with pytest.raises(AttributeError):
            BoolSystem.equations.__get__(roots[0], BoolSystem)
        assert len(set(lines)) == len(lines)
        points = []
        for line in lines:
            record = json.loads(line)
            fixed = {table.id_of(k): b for k, b in record["assignment"].items()}
            free = [table.id_of(k) for k in record["dont_care"]]
            for bits in itertools.product((0, 1), repeat=len(free)):
                total = {**fixed, **dict(zip(free, bits))}
                points.append(tuple(sorted(total.items())))
        assert len(points) == len(set(points))
        assert set(points) == oracle_system_solutions(system)


#: The split variable of :func:`late_overflow_system`.
C = 15


def late_overflow_system():
    """Solved on the ANF under c = 0; over a budget of 16 under c = 1.

    c is in the most monomials, so the root splits on it.  Under c = 1,
    x_i = a_i + b_i substituted into x0 x1 x2 x3 x4 gives 2^5 monomials.
    """
    xs = [var(i) for i in range(5)]
    c = var(C)
    eqs = [(c & and_all(xs), c)]
    eqs += [(xs[i], (c & var(5 + 2 * i)) ^ (c & var(6 + 2 * i))) for i in range(5)]
    return BoolSystem.root(eqs)


def late_overflow_systems():
    """Random systems that a budget of 16 converts, and whose elimination
    outgrows it at some node: the product of five x_i, each x_i being
    c a_i + c b_i, a_i + b_i + c or c a_i + b_i, plus a random equation
    over a few of the variables and, in some, c = 1 or c = 0."""
    rng = random.Random(614)
    out = [late_overflow_system()]
    for _ in range(8):
        xs = [var(i) for i in range(5)]
        c = var(C)
        product = and_all(xs)
        eqs = [(c & product, c) if rng.random() < 0.5 else (product, c)]
        for i, x in enumerate(xs):
            a, b = var(5 + 2 * i), var(6 + 2 * i)
            eqs.append((x, rng.choice([(c & a) ^ (c & b), a ^ b ^ c, (c & a) ^ b])))
        if rng.random() < 0.5:
            eqs += random_system(rng, 16, 1).equations
        if rng.random() < 0.4:
            eqs.append((c, const(rng.randint(0, 1))))
        out.append(BoolSystem.root(eqs, range(16)))
    return out


def count_overflows(monkeypatch) -> list:
    """Patch the ANF search's elimination to record each OverBudget."""
    overflows: list = []
    eliminate = _AnfSearch._eliminate

    def counting(self, eqs, bindings):
        try:
            return eliminate(self, eqs, bindings)
        except anf.OverBudget:
            overflows.append(eqs)
            raise

    monkeypatch.setattr(_AnfSearch, "_eliminate", counting)
    return overflows


def differential_systems():
    """Random systems, the first 40 within the budget, the rest over it."""
    rng = random.Random(611)
    within = [random_system(rng, rng.randint(3, 7), rng.randint(1, 5)) for _ in range(40)]
    over = []
    for _ in range(12):
        n = anf.BUDGET.bit_length() + rng.randint(0, 1)
        base = random_system(rng, n, rng.randint(1, 4))
        # an OR of positive literals: 2^n - 1 monomials (negated ones would
        # shrink it, as ~a | ~b is 1 + ab)
        wide = or_all([var(v) for v in range(n)])
        over.append(BoolSystem.root(base.equations + ((wide, const(1)),), range(n)))
    return within, over


class TestDifferential:
    @pytest.mark.parametrize("mode", [DECIDE, ENUMERATE])
    def test_solution_sets_equal_the_oracle(self, mode, monkeypatch):
        within, over = differential_systems()
        for s in within:
            _AnfSearch(s, cfg())
        for s in over:
            with pytest.raises(anf.OverBudget):
                _AnfSearch(s, cfg())
        for s in within + over:
            self.check(s, mode)
        # late overflows: the root converts, and elimination outgrows the
        # budget further down, where the node splits instead
        monkeypatch.setattr(anf, "BUDGET", 16)
        overflows = count_overflows(monkeypatch)
        for s in late_overflow_systems():
            _AnfSearch(s, cfg())
            self.check(s, mode)
        assert overflows

    def check(self, s, mode):
        oracle = oracle_system_solutions(s)
        for n0, depth in itertools.product((1, 2, 4), (1, 3)):
            out = bool_solve(s, cfg(n0=n0, split_depth=depth, mode=mode))
            assert out.status == (SAT if oracle else UNSAT)
            got = expanded_solution_set(out, s.root_vars)
            if mode == ENUMERATE:
                assert got == oracle
                assert sum(x.expanded_count() for x in out.solutions) == len(got)
                continue
            assert len(out.solutions) == (1 if oracle else 0)
            for sol in out.solutions:
                for total in sol.expand():
                    assert holds(s, total)


def polynomial_system(rng, n: int, degree: int):
    """Random equations over n variables, each a sum of monomials of
    degree at most ``degree`` equal to a constant or to a variable; about
    a third of them affine rows."""
    eqs = []
    for _ in range(rng.randint(2, n + 2)):
        top = 1 if rng.random() < 0.35 else degree
        monomials = {tuple(sorted(rng.sample(range(n), rng.randint(1, top))))
                     for _ in range(rng.randint(1, 5))}
        lhs = xor_all([and_all([var(v) for v in m]) for m in sorted(monomials)])
        rhs = var(rng.randrange(n)) if rng.random() < 0.2 else const(rng.randint(0, 1))
        eqs.append((lhs, rhs))
    return BoolSystem.root(eqs, range(n))


class TestIndexSweep:
    """The search on index masks against the oracle and the trees: degrees
    1 to 4 with affine rows, and elimination over anf.BUDGET, at n0 1-6
    and split depth 1-4 in both modes."""

    CONFIGS = list(itertools.product(range(1, 7), range(1, 5), (DECIDE, ENUMERATE)))

    def check(self, s):
        oracle = oracle_system_solutions(s)
        for n0, depth, mode in self.CONFIGS:
            c = cfg(n0=n0, split_depth=depth, mode=mode)
            out = bool_solve(s, c)
            assert out.status == (SAT if oracle else UNSAT), (s, n0, depth, mode)
            got = expanded_solution_set(out, s.root_vars)
            trees = tree_solutions(s, c)
            trees = expanded_solution_set(SolveOutcome(None, trees), s.root_vars)
            if mode == ENUMERATE:
                assert got == oracle == trees, (s, n0, depth)
            else:
                assert len(out.solutions) == (1 if oracle else 0)
                assert got <= oracle and trees <= oracle and bool(trees) == bool(oracle)
        return oracle

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_random_polynomial_systems(self, degree):
        rng = random.Random(617 + degree)
        sat = 0
        for _ in range(12):
            s = polynomial_system(rng, rng.randint(5, 9), degree)
            _AnfSearch(s, cfg())  # converted: the search runs on masks
            sat += bool(self.check(s))
        assert 0 < sat < 12, sat

    def test_elimination_over_the_budget(self, monkeypatch):
        monkeypatch.setattr(anf, "BUDGET", 16)
        overflows = count_overflows(monkeypatch)
        for s in late_overflow_systems()[:4]:
            _AnfSearch(s, cfg())
            self.check(s)
        assert overflows
