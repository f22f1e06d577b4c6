import copy
import functools
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsat import anf, boolalg
from onsat.boolalg import (
    Assignment,
    ConflictingAssignment,
    DuplicateVariable,
    ParseError,
    Term,
    TooManyVariables,
    UndeclaredVariable,
    VarTable,
    and_,
    as_term,
    cofactor,
    const,
    dual,
    literal_of,
    parse_expr,
    point_function,
    semantically_equal,
    star,
    substitute,
    support,
    to_text,
    truth_table,
    var,
    var_occurrences,
    zero_set,
)
from conftest import (
    all_points,
    oracle_eval,
    random_func,
    random_shared_funcs,
    shannon_cubes,
)


x, y, z = var(0), var(1), var(2)


def bits(a: Assignment, order) -> tuple:
    return tuple(a[v] for v in order)


class TestEval:
    def test_xor_self_cancels(self):
        f = x ^ x
        assert f.eval(Assignment({0: 0})) == 0
        assert f.eval(Assignment({0: 1})) == 0

    def test_literal_product(self):
        f = x & ~y
        assert f.eval(Assignment({0: 1, 1: 0})) == 1
        assert f.eval(Assignment({0: 1, 1: 1})) == 0

    def test_point_function_vanishes_at_its_point(self):
        for point in all_points([0, 1, 2]):
            a = Assignment(point)
            assert point_function(a).eval(a) == 0

    def test_pointwise_operator_laws(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(50):
            f = random_func(rng, ids)
            g = random_func(rng, ids)
            for point in all_points(ids):
                a = Assignment(point)
                assert (f | g).eval(a) == f.eval(a) | g.eval(a)
                assert (f & g).eval(a) == f.eval(a) & g.eval(a)
                assert (~f).eval(a) == 1 - f.eval(a)
                assert (f ^ g).eval(a) == f.eval(a) ^ g.eval(a)

    def test_missing_variable_is_an_error(self):
        with pytest.raises(UndeclaredVariable):
            (x & y).eval(Assignment({0: 1}))

    def test_agrees_with_independent_oracle(self, rng):
        ids = [0, 1, 2, 3, 4]
        for _ in range(100):
            f = random_func(rng, ids)
            for point in all_points(sorted(f.vars)):
                assert f.eval(Assignment(point)) == oracle_eval(f, point)


class TestZeroSet:
    def test_constant_zero_over_declared_universe(self):
        assert len(zero_set(const(0), over=[0, 1])) == 4

    def test_point_function_zero_set_is_the_point(self):
        for n in (1, 2, 6):
            for point in all_points(list(range(n))):
                a = Assignment(point)
                assert zero_set(point_function(a)) == {a}

    def test_one_point_table_matches_the_oracle(self):
        # one zero among 2^16 points: the walk over the table's set bits
        # must find the same point as a plain scan of every point
        order = list(range(16))
        a = boolalg.index_to_assignment(0xB5E3, order)
        f = point_function(a)
        expected = {Assignment(p) for p in all_points(order) if oracle_eval(f, p) == 0}
        assert zero_set(f, over=order) == expected == {a}

    def test_matches_brute_force_filter(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(50):
            f = random_func(rng, ids)
            expected = {
                Assignment(p) for p in all_points(ids) if oracle_eval(f, p) == 0
            }
            assert zero_set(f, over=ids) == expected

    def test_partitions_with_support(self, rng):
        ids = list(range(6))
        for _ in range(20):
            f = random_func(rng, ids)
            zs = zero_set(f, over=ids)
            su = support(f, over=ids)
            assert not (zs & su)
            assert len(zs) + len(su) == 1 << len(ids)

    @pytest.mark.parametrize("width", [1, 8, 1024, 1025, 4096, 1 << 16])
    def test_indices_are_the_set_bits_lowest_first(self, width):
        # the bit loop below 1,025 bits or 33 points, the string walk
        # above: each against a scan of every index
        def scan(t):
            return [i for i in range(width) if t >> i & 1]

        rng = random.Random(width)
        tables = [(1 << width) - 1, sum(1 << i for i in range(0, width, 2)),
                  1 << (width - 1)]
        for k in (1, 3, 32, 33, 200):
            if k <= width:
                tables.append(sum(1 << i for i in rng.sample(range(width), k)))
        for t in tables:
            assert list(boolalg._indices(t)) == scan(t)
        assert list(boolalg._indices(0)) == []

    def test_cap_is_enforced(self):
        # 2^25 points exceed the fixed cap of 2^24, and each call raises
        # before it builds a table (one 2^25-point table is 4 MB)
        index = anf.Index()
        calls = (
            lambda: truth_table(x, range(25)),
            lambda: zero_set(x, over=range(25)),
            lambda: index.zero_table([index.mask({1})], [1 << i for i in range(25)], {}),
        )
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(TooManyVariables, match=re.escape(
                        "2^25 evaluations exceed the cap of 16777216")):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_deep_library_expression_needs_no_recursion(self):
        # 10,000 levels, alternating (f | x) & y and f ^ x, over 7
        # variables; the expected table follows the same steps on ints
        n = 7
        pattern = [sum(1 << i for i in range(1 << n) if i >> (n - 1 - v) & 1)
                   for v in range(n)]
        f, want = var(0), pattern[0]
        levels = []
        opens, tails = 0, []  # the printed text is "(" * opens + "x0" + tails
        for i in range(10_000):
            a = i % n
            if i % 2:
                f, want = boolalg.xor(f, var(a)), want ^ pattern[a]
                opens += 1
                tails.append(f" ^ x{a})")
            else:
                b = (a + 3) % n
                f = and_(boolalg.or_(f, var(a)), var(b))
                want = (want | pattern[a]) & pattern[b]
                opens += 2
                tails.append(f" | x{a}) & x{b})")
            levels.append((f, want))
        memo, patterns = {}, {}
        assert truth_table(f, range(n), memo, patterns) == want
        assert patterns == dict(enumerate(pattern))
        # every level is in the shared memo, and a later call reads it
        assert all(memo[id(g)] == w for g, w in levels)
        middle, middle_want = levels[5_000]
        assert truth_table(middle, range(n), memo, patterns) == middle_want
        assert truth_table(middle, range(n)) == middle_want
        # it evaluates and prints too
        for idx in random.Random(5).sample(range(1 << n), 8):
            point = {v: idx >> (n - 1 - v) & 1 for v in range(n)}
            assert f.eval(point) == want >> idx & 1
            assert f.eval(Assignment(point)) == want >> idx & 1
        assert to_text(f) == "(" * opens + "x0" + "".join(tails)
        assert repr(middle) == f"BoolFunc({to_text(middle)})"
        # it pickles on every protocol and deep-copies, caches left behind
        copies = [pickle.loads(pickle.dumps(f, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in [*copies, copy.deepcopy(f)]:
            assert back is not f and back._hash is None and back._vars is None
            assert back == f and hash(back) == hash(f)
            assert truth_table(back, range(n)) == want

    def test_cap_admits_24_variables(self):
        half = 1 << 23
        assert truth_table(x, range(24)) == ((1 << half) - 1) << half


class TestCubes:
    """``_cubes`` against the points of its table and the set-based
    Shannon expansion of conftest."""

    ORDER = [9, 2, 14, 0, 5, 11, 3, 8, 13, 1, 7, 12]  # scattered ids
    FIXED = {20: 1, 21: 0}

    @staticmethod
    @functools.cache
    def tables(n: int) -> tuple:
        """The table of each literal over ORDER[:n], and each index's bits."""
        full = (1 << (1 << n)) - 1
        literals = {}  # (variable, value): the table of its points
        for v, pattern in zip(TestCubes.ORDER, boolalg._var_patterns({}, n)):
            literals[v, 0], literals[v, 1] = full ^ pattern, pattern
        bits = [tuple(idx >> (n - 1 - i) & 1 for i in range(n))
                for idx in range(1 << n)]
        return literals, bits

    def check(self, table: int, n: int) -> None:
        order = self.ORDER[:n]
        full = (1 << (1 << n)) - 1
        literals, bits = self.tables(n)
        cubes = list(boolalg._cubes(table, order, self.FIXED))
        # the sorted point indices split the same way
        assert list(boolalg._cubes(tuple(boolalg._indices(table)), order, self.FIXED)) == cubes
        covered = lowest = 0
        for cube in cubes:
            points = full
            for v, b in cube.items():
                points &= literals.get((v, b), full)
            # disjoint, lowest index first
            assert not points & covered and points & -points > lowest
            covered |= points
            lowest = points & -points
        assert covered == table
        # the fixed values kept, split in order, equal halves merged
        points = frozenset(map(bits.__getitem__, boolalg._indices(table)))
        assert cubes == [{**self.FIXED, **{order[i]: b for i, b in cube}}
                         for cube in shannon_cubes(points, n)]

    @pytest.mark.parametrize("n", range(5))
    def test_every_table_up_to_four_variables(self, n):
        for table in range(1 << (1 << n)):
            self.check(table, n)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_seeded_tables_up_to_twelve_variables(self, n):
        rng = random.Random(n)
        ids = list(range(n))
        tables = [0, (1 << (1 << n)) - 1]
        tables += [rng.getrandbits(1 << n) for _ in range(3)]
        # sparse and dense tables, and functions with don't-cares
        tables += [sum(1 << i for i in rng.sample(range(1 << n), 5)) for _ in range(3)]
        tables += [((1 << (1 << n)) - 1) ^ t for t in tables[-3:]]
        tables += [truth_table(random_func(rng, ids, 3), ids) for _ in range(12)]
        for table in tables:
            self.check(table, n)

    def test_merges_a_full_table_and_equal_halves(self):
        order = [4, 7, 2]
        for table, points in [(0xFF, tuple(range(8))), (0b10101010, (1, 3, 5, 7)),
                              (0b11001111, (0, 1, 2, 3, 6, 7))]:
            assert list(boolalg._cubes(points, order, {})) == list(
                boolalg._cubes(table, order, {}))
        assert list(boolalg._cubes(0xFF, order, {1: 0})) == [{1: 0}]
        # the odd indices, 2 = 1: the halves on 4 and on 7 are equal
        assert list(boolalg._cubes(0b10101010, order, {})) == [{2: 1}]
        # 4 = 0 with 7 and 2 free, then 4 = 1, 7 = 1 with 2 free
        assert list(boolalg._cubes(0b11001111, order, {})) == [
            {4: 0}, {4: 1, 7: 1}]
        assert list(boolalg._cubes((), order, {1: 0})) == []

    @pytest.mark.parametrize("n", range(20, 25))
    def test_sparse_point_tuples_up_to_24_variables(self, n):
        """Seeded sets of at most 64 points over 20 to 24 variables, as
        the sorted indices that a scattered ANF leaf hands in: the same
        cubes as the mask and as conftest's expansion, with no point,
        one, 64, a full trailing sub-cube and equal halves among them."""
        rng = random.Random(3300 + n)
        order = rng.sample([v for v in range(40) if v not in self.FIXED], n)
        base = rng.randrange(1 << (n - 6)) << 6
        twin = 1 << rng.randrange(n)  # each point both ways on that bit
        pairs = rng.sample(range(1 << n), 8)
        sets = [
            [], [rng.randrange(1 << n)], rng.sample(range(1 << n), 64),
            list(range(base, base + 64)),
            [p | twin for p in pairs] + [p & ~twin for p in pairs],
        ]
        for _ in range(4):  # unions of a few sub-cubes of 1 to 8 points
            points = set()
            for _ in range(rng.randint(1, 8)):
                free = rng.sample(range(n), rng.randint(0, 3))
                at = rng.randrange(1 << n)
                for k in range(1 << len(free)):
                    points.add(at ^ sum(1 << f for j, f in enumerate(free) if k >> j & 1))
            sets.append(points)
        for points in sets:
            points = tuple(sorted(set(points)))
            cubes = list(boolalg._cubes(points, order, self.FIXED))
            mask = sum(1 << i for i in points)
            assert cubes == list(boolalg._cubes(mask, order, self.FIXED))
            bits = frozenset(tuple(i >> (n - 1 - k) & 1 for k in range(n)) for i in points)
            assert cubes == [{**self.FIXED, **{order[i]: b for i, b in cube}}
                             for cube in shannon_cubes(bits, n)]
        # the 64-point block is one cube: the full half ends it 6 bits
        # early; and the bit that every point has both ways is free
        assert list(boolalg._cubes(tuple(range(base, base + 64)), order, {})) == [
            boolalg._point(base >> 6, order[:n - 6])]
        twins = tuple(sorted({p | twin for p in pairs} | {p & ~twin for p in pairs}))
        twin_var = order[n - twin.bit_length()]
        assert all(twin_var not in cube for cube in boolalg._cubes(twins, order, {}))

    def test_parity_cubes_come_one_at_a_time(self):
        # the 16-variable parity table is 2^15 one-point cubes, and the
        # first ten are taken without the others being built
        order = list(range(16))
        table = 0
        for pattern in boolalg._var_patterns({}, 16):
            table ^= pattern
        odd = [i for i in range(64) if bin(i).count("1") % 2][:10]
        tracemalloc.start()
        try:
            first = list(itertools.islice(boolalg._cubes(table, order, {}), 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [boolalg._point(i, order) for i in odd]
        assert peak < 1 << 20


class TestAlgebraRelations:
    def test_tautology_and_contradiction(self):
        assert zero_set(x | ~x, over=[0]) == set()
        assert len(zero_set(x & ~x, over=[0])) == 2

    def test_zero_set_relations(self, rng):
        ids = [0, 1, 2, 3, 4, 5]
        for _ in range(40):
            f = random_func(rng, ids)
            g = random_func(rng, ids)
            vf = zero_set(f, over=ids)
            vg = zero_set(g, over=ids)
            assert zero_set(f | g, over=ids) == vf & vg
            assert zero_set(f & g, over=ids) == vf | vg
            assert zero_set(~f, over=ids) == support(f, over=ids)

    def test_order_relation(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(40):
            f = random_func(rng, ids)
            g = random_func(rng, ids)
            f_le_g = all(
                oracle_eval(f, p) <= oracle_eval(g, p) for p in all_points(ids)
            )
            assert f_le_g == (
                zero_set(g, over=ids) <= zero_set(f, over=ids)
            )


class TestDualStar:
    def test_star_examples(self):
        assert star(Assignment({0: 0, 1: 0})) == Assignment({0: 1, 1: 1})
        assert star(Assignment({0: 1, 1: 0, 2: 1})) == Assignment({0: 0, 1: 1, 2: 0})

    def test_star_involution(self):
        for point in all_points([0, 1, 2]):
            a = Assignment(point)
            assert star(star(a)) == a

    def test_dual_of_variable(self):
        assert semantically_equal(dual(x), x)

    def test_dual_of_product_is_sum(self):
        assert semantically_equal(dual(x & y), x | y)

    def test_dual_support_is_starred_zero_set(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(40):
            f = random_func(rng, ids)
            starred = {star(a) for a in zero_set(f, over=ids)}
            assert support(dual(f), over=ids) == starred

    def test_dual_involution(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(40):
            f = random_func(rng, ids)
            assert semantically_equal(dual(dual(f)), f, over=ids)


class TestCofactor:
    def test_empty_cofactor_is_identity(self):
        f = (x & ~y) | z
        assert semantically_equal(cofactor(f, {}), f)

    def test_absorption_example(self):
        f = (x & ~y) | z
        assert cofactor(f, {0: 1, 1: 0}) == const(1)

    def test_conflicting_partial_assignment(self):
        with pytest.raises(ConflictingAssignment):
            Assignment.from_pairs([(0, 1), (0, 0)])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cofactor_agrees_with_restricted_eval(self, seed):
        rng = random.Random(seed)
        ids = list(range(5))
        f = random_func(rng, ids)
        fixed = dict(zip(rng.sample(ids, 2), (rng.randint(0, 1), rng.randint(0, 1))))
        g = cofactor(f, fixed)
        assert g.vars <= set(ids) - set(fixed)
        rest = sorted(set(ids) - set(fixed))
        for point in all_points(rest):
            whole = dict(point)
            whole.update(fixed)
            assert oracle_eval(g, point) == oracle_eval(f, whole)

    def test_cofactor_composes(self, rng):
        ids = list(range(5))
        for _ in range(30):
            f = random_func(rng, ids)
            p1 = {0: rng.randint(0, 1)}
            p2 = {3: rng.randint(0, 1)}
            both = dict(p1)
            both.update(p2)
            lhs = cofactor(f, both)
            rhs = cofactor(cofactor(f, p1), p2)
            assert semantically_equal(lhs, rhs, over=ids)

    def test_ratio_of_term(self, rng):
        ids = list(range(4))
        t = Term({0: True, 2: False})
        for _ in range(20):
            f = random_func(rng, ids)
            g = cofactor(f, t)
            assert g.vars <= {1, 3}
            for point in all_points([1, 3]):
                whole = dict(point)
                whole.update({0: 1, 2: 0})
                assert oracle_eval(g, point) == oracle_eval(f, whole)


class TestTermsAndLiterals:
    def test_empty_term_is_one(self):
        assert Term().func() == const(1)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(DuplicateVariable):
            Term.from_literals([(1, True), (1, False)])

    def test_partial_assignment_polarity(self):
        q = Term({0: True, 3: False}).partial_assignment()
        assert q.as_dict() == {0: 1, 3: 0}

    def test_term_is_the_assignment_that_makes_it_one(self):
        t = Term({0: True, 3: False})
        a = Assignment({0: 1, 3: 0})
        assert isinstance(t, Assignment)
        assert t == a and a == t and hash(t) == hash(a)
        assert len({t, a}) == 1
        assert t != Assignment({0: 1, 3: 1})
        assert type(t.partial_assignment()) is Assignment
        assert repr(t) == "Term(x0x3')" and repr(Term()) == "Term(1)"
        assert t.literals == {0: True, 3: False}
        assert all(type(p) is bool for p in t.literals.values())

    def test_as_term_roundtrip(self):
        t = Term({0: True, 1: False, 4: True})
        assert as_term(t.func()) == t
        twice = var(0) & var(0)  # two distinct nodes, so no fold
        assert twice.kind == "and"
        assert as_term(twice) == Term({0: True})
        assert as_term(x & ~x) is None
        assert as_term(x | y) is None
        assert as_term(x & (y | z)) is None

    def test_literal_of(self):
        assert literal_of(x) == (0, True)
        assert literal_of(~y) == (1, False)
        assert literal_of(x & y) is None


class TestSubstitution:
    def test_substitute_expression(self):
        f = x ^ y
        g = substitute(f, {1: x & z})
        assert semantically_equal(g, x ^ (x & z))

    def test_truth_table_matches_eval(self, rng):
        ids = [0, 1, 2]
        for _ in range(30):
            f = random_func(rng, ids)
            table = truth_table(f, ids)
            for i, point in enumerate(all_points(ids)):
                assert (table >> i) & 1 == oracle_eval(f, point)


class TestOccurrences:
    def test_counts_match_the_text(self, rng):
        table = VarTable()
        ids = [table.intern(f"v{i}") for i in range(5)]
        for _ in range(60):
            for f in random_shared_funcs(rng, ids, 3, rng.randint(1, 12)):
                names = re.findall(r"[A-Za-z_]\w*", to_text(f, table))
                expected = {table.id_of(n): c for n, c in Counter(names).items()}
                assert var_occurrences(f) == expected

    def test_result_is_a_copy(self):
        f = (x & y) ^ ~(x | z)
        counts = var_occurrences(f)
        counts[0] = 99
        counts[7] = 1
        assert var_occurrences(f) == {0: 2, 1: 1, 2: 1}
        assert var_occurrences(~f) == {0: 2, 1: 1, 2: 1}

    def test_deep_chain_needs_no_recursion(self):
        # 2100 leaves x0, x1, x2, x0, ... under 2099 left-leaning ANDs;
        # each check gets a fresh chain, so no cache is filled in advance
        def chain():
            f = var(0)
            for i in range(1, 2100):
                f = and_(f, var(i % 3))
            return f

        assert var_occurrences(chain()) == {0: 700, 1: 700, 2: 700}
        assert chain().vars == {0, 1, 2}
        expected = hash((boolalg.VAR, 0))
        for i in range(1, 2100):
            expected = hash((boolalg.AND, expected, hash((boolalg.VAR, i % 3))))
        assert hash(chain()) == expected
        from onsat.solver import BoolSystem

        assert BoolSystem.root([(chain(), const(1))]).vars == {0, 1, 2}

    def test_deep_chains_compare_without_recursion(self):
        # two separately built 2,099-deep chains; the second pair differs
        # only in its deepest leaf
        def chain(first):
            f = var(first)
            for i in range(1, 2100):
                f = and_(f, var(i % 3))
            return f

        assert chain(0) == chain(0)
        assert chain(0) is not chain(0)
        assert not chain(0) == chain(5)
        assert chain(0) != chain(5)

    def test_shared_dags_compare_pair_by_pair(self):
        # each level uses the one below twice: 2^40 paths, 40 node pairs
        def dag(last):
            f = var(0)
            for i in range(1, 40):
                f = (f ^ var(i)) & (var(i) ^ f)
            return f & var(last)

        assert dag(1) == dag(1)
        assert dag(1) != dag(2)


def reachable(f) -> list:
    """Every node of f's DAG once, shared nodes included once."""
    seen, stack, out = set(), [f], []
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        out.append(g)
        if g.kind not in (boolalg.VAR, boolalg.CONST):
            stack.append(g.left)
            if g.kind != boolalg.NOT:
                stack.append(g.right)
    return out


def rebuilt(f, memo: dict):
    """An unshared copy of f made of new nodes, none of them cached."""
    got = memo.get(id(f))
    if got is None:
        k = f.kind
        left = right = None
        if k not in (boolalg.VAR, boolalg.CONST):
            left = rebuilt(f.left, {})
            if k != boolalg.NOT:
                right = rebuilt(f.right, {})
        got = memo[id(f)] = boolalg.BoolFunc(k, f.var, f.value, left, right)
    return got


def reference_hash(f) -> int:
    k = f.kind
    if k == boolalg.VAR:
        return hash((k, f.var))
    if k == boolalg.CONST:
        return hash((k, f.value))
    if k == boolalg.NOT:
        return hash((k, reference_hash(f.left)))
    return hash((k, reference_hash(f.left), reference_hash(f.right)))


def reference_vars(f) -> frozenset:
    if f.kind == boolalg.VAR:
        return frozenset((f.var,))
    if f.kind == boolalg.CONST:
        return frozenset()
    if f.kind == boolalg.NOT:
        return reference_vars(f.left)
    return reference_vars(f.left) | reference_vars(f.right)


class TestCaches:
    """A node's variable set and hash are filled together, on the node
    and on every node under it, by reading either one."""

    def test_reading_vars_fills_every_hash(self, rng):
        ids = list(range(6))
        for _ in range(40):
            f = random_shared_funcs(rng, ids, 1, rng.randint(2, 16))[0]
            nodes = reachable(f)
            assert all(g._vars is None and g._hash is None
                       for g in nodes if g.kind != boolalg.CONST)
            assert f.vars == reference_vars(f)
            for g in nodes:
                assert g._hash is not None
                assert g._hash == reference_hash(g) == hash(rebuilt(g, {}))

    def test_hashing_fills_every_variable_set(self, rng):
        ids = list(range(6))
        for _ in range(40):
            f = random_shared_funcs(rng, ids, 1, rng.randint(2, 16))[0]
            nodes = reachable(f)
            # some nodes below f already filled, through either fact
            for g in rng.sample(nodes, len(nodes) // 3):
                hash(g) if rng.random() < 0.5 else g.vars
            assert hash(f) == reference_hash(f)
            for g in nodes:
                assert g._vars == reference_vars(g)
                assert g._hash == reference_hash(g)


class TestParser:
    def test_precedence(self):
        t = VarTable()
        f = parse_expr("a | b & c ^ d", t)
        a, b, c, d = (var(t.id_of(n)) for n in "abcd")
        assert semantically_equal(f, a | ((b & c) ^ d))

    def test_postfix_and_tilde_negation(self):
        t = VarTable()
        f = parse_expr("~a & b'", t)
        g = parse_expr("a' & ~b", t)
        assert semantically_equal(f, g)

    def test_double_postfix(self):
        t = VarTable()
        assert semantically_equal(parse_expr("a''", t), parse_expr("a", t))

    def test_constants_and_parens(self):
        t = VarTable()
        assert parse_expr("(1 & 0) | 1", t) == const(1)

    def test_parse_errors(self):
        t = VarTable()
        for bad in ("", "a &", "(a", "a @ b", "a b"):
            with pytest.raises(ParseError):
                parse_expr(bad, t)

    @pytest.mark.parametrize("text, message", [
        ("", "empty expression"),
        ("a &", "unexpected end of expression"),
        ("~", "unexpected end of expression"),
        ("x ^ (", "unexpected end of expression"),
        ("(a", "missing closing parenthesis"),
        ("a @ b", "unexpected token '@'"),
        ("a b", "unexpected token 'b'"),
        ("a)", "unexpected token ')'"),
        ("9x", "unexpected token '9'"),
        # a name starts with an ASCII letter or _, then any word characters
        ("\u00f1u", "unexpected token '\u00f1'"),
        ("\u03a9x", "unexpected token '\u03a9'"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_expr(text, VarTable(), 4)
        assert str(err.value) == f"line 4: {message}"

    def test_names_may_continue_with_any_word_character(self):
        t = VarTable()
        parse_expr("a\u00f1 & _x9' | Z", t)
        assert t.names == ["a\u00f1", "_x9", "Z"]

    def test_vartable_is_dense_and_stable(self):
        t = VarTable()
        parse_expr("beta | alpha", t)
        assert t.id_of("beta") == 0
        assert t.id_of("alpha") == 1
        assert t.name_of(0) == "beta"
        with pytest.raises(UndeclaredVariable):
            t.id_of("gamma")


class TestAssignments:
    def test_assignment_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Assignment({0: 2})

    def test_merge_requires_disjoint(self):
        p = Assignment({0: 1})
        q = Assignment({0: 1})
        with pytest.raises(ConflictingAssignment):
            p.merge(q)
        merged = p.merge(Assignment({1: 0}))
        assert merged.as_dict() == {0: 1, 1: 0}

    def test_merge_is_associative(self):
        p1 = Assignment({0: 1})
        p2 = Assignment({1: 0})
        p3 = Assignment({2: 1})
        assert p1.merge(p2).merge(p3) == p1.merge(p2.merge(p3))


# Pickle an expression under one hash seed and load it under another.
_PICKLE_CHILD = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from onsat.boolalg import var
if sys.argv[2] == "dump":
    f = var(0) & var(1)
    hash(f), f.vars  # fill the caches
    sys.stdout.write(pickle.dumps(f).hex())
else:
    f = pickle.loads(bytes.fromhex(sys.stdin.read()))
    g = var(0) & var(1)
    print(repr((f == g, f in {g}, hash(f) == hash(g))))
"""


class TestPickle:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_on_every_protocol(self, protocol):
        shared = x & ~y
        f = (shared | z) ^ (shared & const(1)) ^ ~(z ^ x)
        hash(f), f.vars, var_occurrences(f)  # fill the caches
        back = pickle.loads(pickle.dumps(f, protocol))
        assert back == f and hash(back) == hash(f) and back.vars == f.vars
        assert var_occurrences(back) == var_occurrences(f)
        assert to_text(back) == to_text(f)
        # a shared subtree stays one node, and a constant is the constant
        assert back.left.left.left is back.left.right
        assert pickle.loads(pickle.dumps(const(1), protocol)) is const(1)
        assert pickle.loads(pickle.dumps(const(0) | x & y, protocol)) == x & y
        for a in (Assignment({0: 1, 3: 0}), Term({1: True, 2: False}), Term()):
            hash(a)  # fill the cache
            back = pickle.loads(pickle.dumps(a, protocol))
            assert type(back) is type(a) and back == a and hash(back) == hash(a)
            assert back.as_dict() == a.as_dict()

    def test_a_loaded_expression_hashes_as_one_built_where_it_is_loaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(boolalg.__file__)))

        def child(seed: str, mode: str, stdin: str = "") -> str:
            env = {**os.environ, "PYTHONHASHSEED": seed}
            return subprocess.run(
                [sys.executable, "-c", _PICKLE_CHILD, src, mode], input=stdin,
                env=env, capture_output=True, text=True, timeout=60, check=True).stdout

        dumped = child("1", "dump")
        assert child("2", "load", dumped).strip() == "(True, True, True)"
