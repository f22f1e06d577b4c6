import itertools
import json
import random
import tracemalloc

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


def leaf_table(eqs, order) -> int:
    """The points where every polynomial is 0, from :func:`anf_table`."""
    full = (1 << (1 << len(order))) - 1
    mask = full
    for e in eqs:
        mask &= full ^ anf_table(e, order)
    return mask


def table_points(table) -> tuple:
    """The points of a :meth:`anf.Index.zero_table` result in either
    form, as an int mask, and how many they are.  A scattered leaf's
    tuple must hold its indices sorted and distinct."""
    if type(table) is tuple:
        assert list(table) == sorted(set(table)), table
        return sum(1 << i for i in table), len(table)
    return table, table.bit_count()


def candidate_bits(e) -> list:
    """The bits p that occur in a polynomial, a set of monomials, only
    as the monomial {p}."""
    return [m for m in e if m and not m & (m - 1) and not any(x & m for x in e if x != m)]


def mentioned_bits(e) -> int:
    """The union of a polynomial's monomials."""
    out = 0
    for m in e:
        out |= m
    return out


def reference_greedy_pick(eqs) -> list:
    """The bits the greedy rule defines, in pick order, on sets of monomials.

    Fewest monomials first (a stable sort), a polynomial defines its
    lowest bit p that occurs in it only as {p} and that no polynomial
    picked before it mentions; then every bit it mentions is used.
    """
    used, bits = 0, []
    for e in sorted(eqs, key=len):
        free = [p for p in candidate_bits(e) if not p & used]
        if free:
            bits.append(min(free))
            used |= mentioned_bits(e)
    return bits


def reference_defined_count(eqs) -> int:
    """How many bits the greedy rule (:func:`reference_greedy_pick`) defines."""
    return len(reference_greedy_pick(eqs))


def reference_least_damage_pick(eqs) -> list:
    """The bits the least-damage rule defines, in pick order, on sets of
    monomials.

    The definable bits start as every polynomial's candidates (see
    :func:`candidate_bits`).  Each step takes the polynomial that
    mentions the fewest definable bits among those with a definable
    candidate, ties going to its lowest such candidate and then to the
    earlier position; it defines that candidate, and every bit it
    mentions leaves the definable set.
    """
    cands = [sum(candidate_bits(e)) for e in eqs]
    mentions = [mentioned_bits(e) for e in eqs]
    definable = 0
    for c in cands:
        definable |= c
    bits = []
    while True:
        steps = []
        for k, c in enumerate(cands):
            c &= definable
            if c:
                steps.append(((mentions[k] & definable).bit_count(), c & -c, k))
        if not steps:
            return bits
        _, p, k = min(steps)
        bits.append(p)
        definable &= ~mentions[k]


def reference_least_damage_count(eqs) -> int:
    """How many bits the least-damage rule
    (:func:`reference_least_damage_pick`) defines."""
    return len(reference_least_damage_pick(eqs))


def most_defined_count(eqs) -> int:
    """The most bits that any pick defines, by exhaustive search on sets
    of monomials: distinct polynomials in some order, each defining a
    bit p that occurs in it only as {p} and that no polynomial before it
    mentions."""
    def most(rest, used):
        out = 0
        for k, e in enumerate(rest):
            if any(not p & used for p in candidate_bits(e)):
                out = max(out, 1 + most(rest[:k] + rest[k + 1:], used | mentioned_bits(e)))
        return out

    return most(tuple(eqs), 0)


def check_definitions(index, masks, defs, others):
    """A pick is valid: no g mentions its own p (so p occurs in its
    polynomial g ^ {p} only as {p}) or a bit defined after it, and the
    picked polynomials and ``others`` are ``masks``, the others fewest
    monomials first."""
    later = sum(p for p, _ in defs)
    for p, g in defs:
        later ^= p
        assert not index.occurring((g,)) & (p | later), (p, g)
    picked = [g ^ index.mask((p,)) for p, g in defs]
    assert sorted(picked + others) == sorted(masks)
    assert [e.bit_count() for e in others] == sorted(e.bit_count() for e in others)


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
            assert table_points(index.zero_table([index.mask(e)], bits, {}))[0] == full ^ want

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
        """One table across leaves of interleaved sizes and unsorted
        orders, holding exactly the sizes of the passes that ran."""
        rng = random.Random(611)
        patterns: dict = {}
        sizes = set()
        index = anf.Index()
        for n in [3, 6, 3, 1, 6, 4, 1, 3]:
            order = [1 << b for b in rng.sample(range(12), n)]
            eqs = [frozenset(sum(rng.sample(order, rng.randint(0, min(n, 3))))
                             for _ in range(rng.randint(1, 5)))
                   for _ in range(rng.randint(1, 3))]
            expected = leaf_table(eqs, order)
            got = index.zero_table([index.mask(e) for e in eqs], order, patterns)
            assert table_points(got)[0] == expected, (order, eqs)
            # the reduced pass over the n - k undefined bits, and the
            # full pass only for a leaf with no defined bit: at most 6
            # bits, no reduced table holds more than anf.SCATTER points
            k = reference_defined_count(eqs)
            sizes.add(n - k)
        assert sorted(patterns) == sorted(sizes) == [0, 1, 2, 3, 4, 6]

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
                assert table_points(got)[0] == expected, (n, perm)


def defining_leaf(rng, n: int) -> tuple:
    """A leaf's order and polynomials (sets of monomials) over n of 14
    variable bits, rich in polynomials x_p ^ g that define a bit.

    A g is quadratic and cubic products over the other bits, often over
    the bits defined before it, with linear terms that often avoid its
    products; the rest are affine rows and random quadratics and cubics,
    whose linear terms may hit their products.
    """
    order = [1 << b for b in rng.sample(range(14), n)]
    eqs, defined = [], []
    for _ in range(rng.randint(1, n + 4)):
        r = rng.random()
        poly = {0} if rng.random() < 0.5 else set()
        if n and r < 0.55:
            p = rng.choice(order)
            rest = [b for b in order if b != p]
            earlier = [b for b in defined if b != p]
            for _ in range(rng.randint(0, 4)):
                if not rest:
                    break
                degree = min(rng.choice((1, 2, 2, 3)), len(rest))
                factors = rng.sample(rest, degree)
                if earlier and rng.random() < 0.5:
                    factors[0] = rng.choice(earlier)
                poly ^= {sum(set(factors))}
            poly ^= {p}
            defined.append(p)
        elif n and r < 0.75:
            poly ^= set(rng.sample(order, rng.randint(1, n)))
        elif n:
            for _ in range(rng.randint(1, 5)):
                poly ^= {sum(rng.sample(order, min(rng.choice((1, 2, 3)), n)))}
        eqs.append(frozenset(poly))
    return order, eqs


def quadratic(rng, order) -> frozenset:
    """A random quadratic polynomial over the bits of ``order``: each
    bit's monomial {p} with probability 1/2, one to three products of
    two bits, and the constant 1 with probability 1/2."""
    poly = {b for b in order if rng.random() < 0.5}
    for _ in range(rng.randint(1, 3)):
        poly ^= {sum(rng.sample(order, 2))}
    if rng.random() < 0.5:
        poly ^= {0}
    return frozenset(poly)


def mq_node(rng) -> list:
    """A node of the system-mq shape, as sets of monomials: 33 equations
    over 21 bits, each of 8 distinct products of two bits, 2 bits and
    the constant 1 half the time, cofactored by 0 to 6 random bits."""
    bits = [1 << b for b in range(21)]
    eqs = []
    for _ in range(33):
        poly = set()
        while len(poly) < 8:
            poly.add(sum(rng.sample(bits, 2)))
        poly |= set(rng.sample(bits, 2))
        if rng.random() < 0.5:
            poly.add(0)
        eqs.append(poly)
    for b in rng.sample(bits, rng.randint(0, 6)):
        value = rng.getrandbits(1)
        for k, e in enumerate(eqs):
            out = set()
            for m in e:
                if m & b:
                    if not value:
                        continue
                    m ^= b
                out ^= {m}
            eqs[k] = out
    return [frozenset(e) for e in eqs]


class TestDefinedBits:
    """zero_table's reduced pass over the bits that no equation defines."""

    def test_zero_table_agrees_with_the_tables(self):
        """A seeded sweep against :func:`anf_table` on leaves of 0 to 10
        bits with chains of defining polynomials, SAT and UNSAT.  Every
        pick is valid (:func:`check_definitions`) and defines no fewer
        bits than the greedy rule of :func:`reference_defined_count`,
        on many leaves more, and on at most 6 polynomials no more than
        an exhaustive search (:func:`most_defined_count`)."""
        rng = random.Random(2901)
        seen = {"defined": 0, "chain": 0, "sat": 0, "unsat": 0, "more": 0}
        for n in range(11):
            index = anf.Index()
            patterns: dict = {}
            for _ in range(60 if n < 8 else 20):
                order, eqs = defining_leaf(rng, n)
                masks = [index.mask(e) for e in eqs]
                want = leaf_table(eqs, order)
                got = index.zero_table(masks, order, patterns)
                assert table_points(got)[0] == want, (order, eqs)
                defs, others = index._definitions(sorted(masks, key=int.bit_count))
                check_definitions(index, masks, defs, others)
                greedy = reference_defined_count(eqs)
                assert len(defs) >= greedy, eqs
                seen["more"] += len(defs) > greedy
                if len(eqs) <= 6:
                    assert len(defs) <= most_defined_count(eqs), eqs
                if defs:
                    seen["defined"] += 1
                    seen["sat" if want else "unsat"] += 1
                    before = 0
                    for p, g in defs:
                        if index.occurring((g,)) & before:
                            seen["chain"] += 1
                            break
                        before |= p
        assert min(seen.values()) >= 40, seen

    def test_scattered_mask_agrees_with_the_tables(self):
        """A seeded sweep on leaves of 0 to 12 bits with chains of
        definitions: the reduced table's points, scattered into the full
        table, give :func:`leaf_table` bit for bit, whether the reduced
        table holds no point, one, 2 to anf.SCATTER or more.  Its sorted
        indices (:func:`table_points`) are exactly the table's points."""
        rng = random.Random(3101)
        seen = {"none": 0, "one": 0, "few": 0, "many": 0, "chain": 0}
        for n in range(13):
            index = anf.Index()
            patterns: dict = {}
            for _ in range(40 if n < 9 else 12):
                order, eqs = defining_leaf(rng, n)
                masks = [index.mask(e) for e in eqs]
                defs, others = index._definitions(masks)
                if not defs:
                    continue
                want = leaf_table(eqs, order)
                defined = sum(p for p, _ in defs)
                free = [b for b in order if not b & defined]
                mask, pattern = index._tabulate(free, defs, others, patterns)
                scattered = anf._scatter(mask, free, pattern, order)
                assert type(scattered) is tuple
                assert table_points(scattered)[0] == want, (order, eqs)
                got = index.zero_table(masks, order, patterns)
                assert table_points(got)[0] == want, (order, eqs)
                points = mask.bit_count()
                assert points == want.bit_count() == len(scattered)
                seen["none" if not points else "one" if points == 1
                     else "few" if points <= anf.SCATTER else "many"] += 1
                if any(index.occurring((g,)) & sum(p for p, _ in defs[:i])
                       for i, (_, g) in enumerate(defs)):
                    seen["chain"] += 1
        assert min(seen.values()) >= 10, seen

    def test_the_walk_that_defines_more_is_taken(self):
        """From x1 ^ x10 and 1 ^ x1 the least-damage walk defines x1 by
        the second, which blocks no other candidate, and then x10 by the
        first; fewest monomials first, x1 ^ x10 would define x1 alone.
        From b ^ c, a ^ b c and a ^ d (a to d the bits 1 to 8) the
        greedy walk defines b, a and d, where the least-damage one would
        take a ^ d first (damage 2, candidate a) and strand a ^ b c."""
        index = anf.Index()
        x1, x10 = 1 << 1, 1 << 10
        masks = [index.mask(e) for e in ({x1, x10}, {0, x1})]
        assert index._definitions(masks) == (
            [(x1, index.mask({0})), (x10, index.mask({x1}))], [])
        a, b, c, d = 1, 2, 4, 8
        masks = [index.mask(e) for e in ({b, c}, {a, b | c}, {a, d})]
        assert index._definitions(masks) == (
            [(b, index.mask({c})), (a, index.mask({b | c})), (d, index.mask({a}))], [])
        assert index._definitions(masks, 3) == index._definitions(masks)
        assert index._definitions(masks, 4) is None

    def test_giving_up_early_never_changes_the_pick(self):
        """For every need from 0 to the width, the pick is None exactly
        when the full walk defines fewer bits, and else the full walk's
        pick, on seeded quadratic nodes of the gf2k-curve shape (4
        polynomials over 5 to 7 bits) and on defining leaves; a repeated
        call picks the same."""
        rng = random.Random(3201)
        seen = {"none": 0, "picked": 0}
        for k in range(240):
            index = anf.Index()
            if k % 2:
                order, eqs = defining_leaf(rng, rng.randint(5, 9))
            else:
                order = [1 << b for b in range(rng.randint(5, 7))]
                eqs = [quadratic(rng, order) for _ in range(4)]
            masks = [index.mask(e) for e in eqs]
            full = index._definitions(masks)
            assert index._definitions(masks) == full
            defined = len(full[0])
            for need in range(len(order) + 1):
                got = index._definitions(masks, need)
                if defined < need:
                    assert got is None, (eqs, need)
                else:
                    assert got == full, (eqs, need)
                if 0 < need <= len(eqs):
                    seen["none" if got is None else "picked"] += 1
        assert min(seen.values()) >= 100, seen

    def test_the_pick_is_the_longer_walk(self):
        """On seeded nodes of the system-mq shape (:func:`mq_node`) and
        of the gf2k-curve shape (4 quadratics over 5 to 7 bits), the pick
        is the greedy one (:func:`reference_greedy_pick`) unless the
        least-damage one (:func:`reference_least_damage_pick`) defines
        more, so it defines the larger of their counts; each outcome
        occurs."""
        rng = random.Random(3401)
        seen = {"greedy": 0, "least damage": 0, "tie": 0}
        # the greedy walk wins on fewer than 1% of either shape
        for k in range(4800):
            index = anf.Index()
            if k % 8 == 7:
                eqs = mq_node(rng)
            else:
                order = [1 << b for b in range(rng.randint(5, 7))]
                eqs = [quadratic(rng, order) for _ in range(4)]
            masks = [index.mask(e) for e in eqs]
            defs, others = index._definitions(masks)
            check_definitions(index, masks, defs, others)
            greedy, least = reference_defined_count(eqs), reference_least_damage_count(eqs)
            assert len(defs) == max(greedy, least), eqs
            walk = reference_greedy_pick if greedy >= least else reference_least_damage_pick
            assert [p for p, _ in defs] == walk(eqs), eqs
            seen["greedy" if greedy > least else "least damage" if least > greedy else "tie"] += 1
        assert min(seen.values()) >= 10, seen

    def test_full_pass_runs_once_per_leaf_with_a_point(self, monkeypatch):
        """On planted quadratic systems, no full pass runs above n0, a
        leaf whose reduced table holds at most anf.SCATTER points never
        runs it, and a leaf with more points runs it once.  The fourth
        system (13 bits, n0 5) holds the empty leaves: on the first
        three the pick defines enough bits to make their nodes wide
        leaves instead."""
        rng = random.Random(2902)
        leaves = record_leaves(monkeypatch)
        kinds: dict = {}
        for n, neq, n0 in [(12, 10, 6), (12, 10, 3), (14, 3, 10), (13, 8, 5)]:
            planted = [rng.getrandbits(1) for _ in range(n)]
            system = planted_system(rng, n, neq, planted)
            del leaves[:]
            out = bool_solve(system, cfg(n0=n0, split_depth=2, mode=ENUMERATE))
            points = expanded_solution_set(out, system.root_vars)
            assert tuple(enumerate(planted)) in points
            assert points == oracle_system_solutions(system)
            for kind, count in leaf_kinds(leaves, n0).items():
                kinds[kind] = kinds.get(kind, 0) + count
        assert min(kinds.get(k, 0) for k in
                   ("plain", "empty", "scattered", "full", "wide", "split")) >= 2, kinds


def record_leaves(monkeypatch) -> list:
    """Patch zero_table and _tabulate to record, per zero_table call,
    its bit count, its ``full`` flag, its result, and its passes as
    (bits, whether bits are defined, points)."""
    leaves: list = []
    tabulate, zero_table = anf.Index._tabulate, anf.Index.zero_table

    def record_pass(self, order, defs, eqs, patterns):
        mask, pattern = tabulate(self, order, defs, eqs, patterns)
        leaves[-1]["passes"].append((len(order), bool(defs), mask.bit_count()))
        return mask, pattern

    def record_leaf(self, eqs, order, patterns, pick=None, full=True):
        leaves.append({"size": len(order), "full": full, "passes": []})
        leaves[-1]["table"] = table = zero_table(self, eqs, order, patterns, pick, full)
        return table

    monkeypatch.setattr(anf.Index, "_tabulate", record_pass)
    monkeypatch.setattr(anf.Index, "zero_table", record_leaf)
    return leaves


def leaf_kinds(leaves: list, n0: int) -> dict:
    """Check the passes of recorded leaves and count them by kind.

    A node above n0 runs the reduced pass alone: it is a ``wide`` leaf
    when that pass has at most anf.SCATTER points, and else it
    ``split``s.  A leaf at or below n0 runs the full pass alone when
    no bit is defined (``plain``), the reduced pass alone when it has
    no point (``empty``) or at most anf.SCATTER (``scattered``), and
    the full pass once after it when it has more (``full``).  Only a
    wide, scattered or empty leaf gives its points as a tuple.
    """
    kinds: dict = {}
    for leaf in leaves:
        size, passes, table = leaf["size"], leaf["passes"], leaf["table"]
        first = passes[0]
        assert leaf["full"] == (size <= n0)
        if size > n0:
            assert first[1] and first[0] <= n0 and passes == [first]
            kind = "wide" if first[2] <= anf.SCATTER else "split"
            assert (table is None) == (kind == "split")
            if table is not None:
                assert table_points(table)[1] == first[2] and type(table) is tuple
        elif not first[1]:
            assert type(table) is int
            assert passes == [(size, False, table_points(table)[1])]
            kind = "plain"
        elif first[2] > anf.SCATTER:
            assert passes == [first, (size, False, first[2])]
            assert type(table) is int and table.bit_count() == first[2]
            kind = "full"
        else:
            assert type(table) is tuple
            assert passes == [first] and table_points(table)[1] == first[2]
            kind = "scattered" if first[2] else "empty"
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def planted_system(rng, n: int, neq: int, planted: list, defining: int = 0):
    """A system over x0..x(n-1) (x_i is id i) that holds at ``planted``:
    ``neq`` equations of 4 random products and 2 variables, after
    ``defining`` equations x_p ^ g whose g (products over the other
    variables, often over a bit defined before) sets x_p."""
    lines = ["vars: " + ", ".join(f"x{i}" for i in range(n))]
    order = rng.sample(range(n), defining)
    for j, p in enumerate(order):
        defined = order[:j]
        others = [v for v in range(n) if v not in order[j:]]
        pairs = [rng.sample(others, 2) for _ in range(rng.randint(1, 3))]
        if defined and rng.random() < 0.6:
            pairs[0][0] = rng.choice(defined)
        planted[p] = sum(planted[a] & planted[b] for a, b in pairs) & 1
        lines.append(f"x{p} ^ " + " ^ ".join(f"x{a} & x{b}" for a, b in pairs) + " = 0")
    for _ in range(neq):
        pairs = [sorted(rng.sample(range(n), 2)) for _ in range(4)]
        singles = rng.sample(range(n), 2)
        rhs = (sum(planted[a] & planted[b] for a, b in pairs)
               + sum(planted[a] for a in singles)) & 1
        terms = [f"x{a} & x{b}" for a, b in pairs] + [f"x{a}" for a in singles]
        lines.append(" ^ ".join(terms) + f" = {rhs}")
    system, _ = parse_system("\n".join(lines) + "\n")
    return system


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


class TestWideLeaves:
    """Nodes above n0 whose definitions leave at most n0 bits undefined:
    planted quadratic systems with chains of definitions at n0 1-6 and
    split depth 1-3, in both modes, against the oracle."""

    CONFIGS = list(itertools.product(range(1, 7), range(1, 4), (DECIDE, ENUMERATE)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_systems_with_defining_chains(self, seed, monkeypatch):
        rng = random.Random(3110 + seed)
        leaves = record_leaves(monkeypatch)
        kinds: dict = {}
        for _ in range(4):
            n = rng.randint(6, 10)
            planted = [rng.getrandbits(1) for _ in range(n)]
            s = planted_system(rng, n, rng.randint(1, 4), planted, rng.randint(2, n - 3))
            oracle = oracle_system_solutions(s)
            assert tuple(enumerate(planted)) in oracle
            for n0, depth, mode in self.CONFIGS:
                del leaves[:]
                out = bool_solve(s, cfg(n0=n0, split_depth=depth, mode=mode))
                got = expanded_solution_set(out, s.root_vars)
                if mode == ENUMERATE:
                    assert got == oracle, (s, n0, depth)
                else:
                    assert len(out.solutions) == 1 and got <= oracle, (s, n0, depth)
                for kind, count in leaf_kinds(leaves, n0).items():
                    kinds[kind] = kinds.get(kind, 0) + count
        assert kinds.get("wide", 0) >= 1, kinds

    def test_a_root_that_the_pick_makes_one_leaf(self, monkeypatch):
        """a ^ b e = 0, d ^ b e = 1, c ^ a d = 0, a ^ d e = 0: the
        least-damage walk defines a, d and c (the first two polynomials
        mention one candidate each), so at n0 2 the 5-bit root is one
        wide leaf with b and e undefined; fewest monomials first, a ^ b e
        and c ^ a d would define a and c and block d.  Its 2 points, a =
        c = e = 0 and d = 1 with b both ways, are those that splits give
        at n0 1."""
        s, _ = parse_system("a ^ b & e = 0\nd ^ b & e = 1\nc ^ a & d = 0\na ^ d & e = 0\n")
        visits = []
        visit = _AnfSearch.visit

        def counting(self, node):
            visits.append(node)
            return visit(self, node)

        monkeypatch.setattr(_AnfSearch, "visit", counting)
        oracle = oracle_system_solutions(s)
        assert len(oracle) == 2
        for n0 in (2, 1):
            del visits[:]
            out = bool_solve(s, cfg(n0=n0, split_depth=3))
            assert expanded_solution_set(out, s.root_vars) == oracle, n0
            assert (len(visits) == 1) == (n0 == 2), (n0, len(visits))

    def test_a_wide_node_with_many_points_splits(self, monkeypatch):
        """A 14-bit root with 6 bits defined over 8 free ones and one
        cutting equation has about 128 reduced points at n0 8: it
        splits, and its children give the oracle's points."""
        s = wide_system(random.Random(3120), 8, 6)
        oracle = oracle_system_solutions(s)
        leaves = record_leaves(monkeypatch)
        for mode in (DECIDE, ENUMERATE):
            del leaves[:]
            out = bool_solve(s, cfg(n0=8, split_depth=2, mode=mode))
            got = expanded_solution_set(out, s.root_vars)
            if mode == ENUMERATE:
                assert got == oracle
            else:
                assert len(out.solutions) == 1 and got <= oracle
            kinds = leaf_kinds(leaves, 8)
            root = leaves[0]
            assert root["size"] == 14 and root["table"] is None, root
            assert root["passes"][0][2] > anf.SCATTER, root
            assert kinds.get("split", 0) >= 1, kinds

    def test_many_points_over_24_bits_stay_small(self, monkeypatch):
        """16 free bits, 8 defined by quadratics and one cutting
        equation: the 24-bit root's reduced table holds about 2^15
        points, so it splits instead of building 2^24-point tables (2 MB
        per monomial), and decide mode at the default config stays
        within a few MB."""
        s = wide_system(random.Random(3121), 16, 8)
        leaves = record_leaves(monkeypatch)
        tracemalloc.start()
        try:
            out = bool_solve(s, SolverConfig(mode=DECIDE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == SAT and len(out.solutions) == 1
        for point in expanded_solution_set(out, s.root_vars):
            assert holds(s, dict(point))
        root = leaves[0]
        assert root["size"] == 24 and root["passes"] == [(16, True, root["passes"][0][2])]
        assert root["passes"][0][2] > 1 << 14 and root["table"] is None, root["passes"]
        assert peak < 4 << 20, peak

    def test_a_few_point_leaf_over_24_bits_builds_no_full_table(self, monkeypatch):
        """d_i ^ a_(i mod 4) a_(i+1 mod 4) ^ a_(i+2 mod 4) = 0 for i < 20
        and a0 a1 = 0: the 24-bit root is one wide leaf over a0..a3 with
        12 points.  Its table is their 12 indices, so both modes stay
        far below the 2 MB of one 2^24-point table."""
        a = [f"a{j}" for j in range(4)]
        lines = [f"d{i} ^ {a[i % 4]} & {a[(i + 1) % 4]} ^ {a[(i + 2) % 4]} = 0"
                 for i in range(20)]
        s, table = parse_system("\n".join(lines + ["a0 & a1 = 0"]) + "\n")
        want = set()
        for x in itertools.product((0, 1), repeat=4):
            if not x[0] & x[1]:
                d = [x[i % 4] & x[(i + 1) % 4] ^ x[(i + 2) % 4] for i in range(20)]
                total = {table.id_of(f"a{j}"): x[j] for j in range(4)}
                total.update({table.id_of(f"d{i}"): d[i] for i in range(20)})
                want.add(tuple(sorted(total.items())))
        assert len(want) == 12
        leaves = record_leaves(monkeypatch)
        for mode in (DECIDE, ENUMERATE):
            del leaves[:]
            tracemalloc.start()
            try:
                out = bool_solve(s, SolverConfig(mode=mode))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            got = expanded_solution_set(out, s.root_vars)
            if mode == ENUMERATE:
                assert got == want
            else:
                assert len(out.solutions) == 1 and got <= want
            assert peak < 256 << 10, (mode, peak)
            # one wide leaf: 4 bits undefined, 12 reduced points
            assert [(leaf["size"], leaf["passes"]) for leaf in leaves] == [
                (24, [(4, True, 12)])]
            assert type(leaves[0]["table"]) is tuple


def wide_system(rng, free: int, defined: int):
    """``free`` bits f_i and ``defined`` bits d_i: each d_i is set by 4
    random products of free bits, and one equation of 10 such products
    cuts the points about in half."""
    fs = [f"f{i}" for i in range(free)]

    def products(k):
        return " ^ ".join(f"{a} & {b}" for a, b in (rng.sample(fs, 2) for _ in range(k)))

    lines = ["vars: " + ", ".join(fs + [f"d{i}" for i in range(defined)])]
    lines += [f"d{i} ^ {products(4)} = 0" for i in range(defined)]
    lines.append(products(10) + " = 1")
    system, _ = parse_system("\n".join(lines) + "\n")
    return system
