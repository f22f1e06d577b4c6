import pytest

from onsat.boolalg import (
    Assignment,
    const,
    index_to_assignment,
    or_all,
    semantically_equal,
    star,
    support,
    var,
    zero_set,
)
from onsat.expansion import (
    CANONICAL,
    RATIO,
    ArityMismatch,
    BaseMismatch,
    RatioUnavailable,
    VariableAbsent,
    combine,
    compose,
    conjugate,
    conjugate_expansion,
    consistency_via_support,
    eliminant,
    expand,
    minterm_consistency,
    necessary_condition,
    negate,
    sufficient_condition,
)
from onsat.onset import term_chain, validate_on
from conftest import all_points, oracle_eval, random_func, random_term_chain

x, y, z = var(0), var(1), var(2)


def assert_range_invariant(e, over):
    for a, phi in zip(e.coefficients, e.base.members):
        low = e.func & phi
        high = e.func | ~phi
        # low <= a and a <= high, as Boolean order
        assert semantically_equal(low & a, low, over=over)
        assert semantically_equal(a & high, a, over=over)


class TestExpand:
    def test_shannon_cofactors(self, rng):
        base = validate_on([x, ~x])
        for _ in range(20):
            f = random_func(rng, [0, 1, 2])
            e = expand(f, base, RATIO)
            over = f.vars | {0}
            from onsat.boolalg import cofactor

            assert semantically_equal(e.coefficients[0], cofactor(f, {0: 1}), over=over)
            assert semantically_equal(e.coefficients[1], cofactor(f, {0: 0}), over=over)

    def test_canonical_of_one_reconstructs_normality(self):
        base = term_chain([(0, True), (1, True)])
        e = expand(const(1), base, CANONICAL)
        for a, phi in zip(e.coefficients, base.members):
            assert semantically_equal(a, phi)
        assert semantically_equal(e.reconstruct(), const(1), over=[0, 1])

    def test_reconstruction_both_choices(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(30):
            f = random_func(rng, ids)
            base = random_term_chain(rng, ids)
            over = set(ids) | base.vars
            for choice in (CANONICAL, RATIO):
                e = expand(f, base, choice)
                assert semantically_equal(e.reconstruct(), f, over=over)
                assert_range_invariant(e, over)

    def test_ratio_needs_terms(self):
        base = validate_on([x ^ y, ~(x ^ y)])
        assert base.terms is None
        with pytest.raises(RatioUnavailable):
            expand(x & y, base, RATIO)

    def test_default_choice_follows_base(self):
        assert expand(x, term_chain([(1, True)])).choice == RATIO
        assert expand(x, validate_on([x ^ y, ~(x ^ y)])).choice == CANONICAL


class TestCombine:
    def test_negate_reconstructs_complement(self, rng):
        base = term_chain([(0, True), (1, True)])
        for _ in range(10):
            f = random_func(rng, [0, 1, 2])
            e = negate(expand(f, base))
            assert semantically_equal(e.reconstruct(), ~f, over=[0, 1, 2])

    def test_xor_with_self_cancels(self):
        base = term_chain([(0, True)])
        e = expand(x ^ y, base)
        zero = combine(e, e, "xor")
        assert semantically_equal(zero.reconstruct(), const(0), over=[0, 1])

    def test_all_ops_reconstruct(self, rng):
        base = validate_on([x, ~x & y, ~x & ~y])
        for _ in range(20):
            f = random_func(rng, [0, 1, 2])
            g = random_func(rng, [0, 1, 2])
            ef, eg = expand(f, base), expand(g, base)
            assert semantically_equal(
                combine(ef, eg, "and").reconstruct(), f & g, over=[0, 1, 2]
            )
            assert semantically_equal(
                combine(ef, eg, "or").reconstruct(), f | g, over=[0, 1, 2]
            )
            assert semantically_equal(
                combine(ef, eg, "xor").reconstruct(), f ^ g, over=[0, 1, 2]
            )

    def test_base_mismatch(self):
        e1 = expand(x, term_chain([(0, True)]))
        e2 = expand(x, term_chain([(1, True)]))
        with pytest.raises(BaseMismatch):
            combine(e1, e2, "and")


class TestCompose:
    def test_projection_returns_inner(self, rng):
        base = term_chain([(0, True), (2, True)])
        g = random_func(rng, [0, 1, 2])
        eg = expand(g, base)
        composed = compose(var(5), [eg])
        assert composed.coefficients == eg.coefficients
        assert semantically_equal(composed.func, g, over=[0, 1, 2])

    def test_xor_matches_coefficientwise(self, rng):
        base = validate_on([x, ~x & y, ~x & ~y])
        f = random_func(rng, [0, 1, 2])
        g = random_func(rng, [0, 1, 2])
        ef, eg = expand(f, base), expand(g, base)
        lhs = compose(var(7) ^ var(8), [ef, eg])
        rhs = combine(ef, eg, "xor")
        for a, b in zip(lhs.coefficients, rhs.coefficients):
            assert semantically_equal(a, b, over=[0, 1, 2])

    def test_random_composition_equals_substitution(self, rng):
        base = validate_on([x, ~x & y, ~x & ~y])
        for _ in range(20):
            outer = random_func(rng, [10, 11], depth=2)
            inners = {
                v: expand(random_func(rng, [0, 1, 2]), base)
                for v in sorted(outer.vars)
            }
            if not inners:
                continue
            composed = compose(outer, [inners[v] for v in sorted(inners)])
            from onsat.boolalg import substitute

            direct = substitute(outer, {v: e.func for v, e in inners.items()})
            assert semantically_equal(composed.reconstruct(), direct, over=[0, 1, 2])

    def test_arity_mismatch(self):
        base = term_chain([(0, True)])
        with pytest.raises(ArityMismatch):
            compose(var(4) & var(5), [expand(x, base)])


class TestOneWayConditions:
    def test_necessary_is_one_way(self):
        # all-ones function: every canonical coefficient can vanish, yet
        # f = 0 has no solution
        base = validate_on([x, ~x])
        e = expand(const(1), base, CANONICAL)
        assert necessary_condition(e) == [0, 1]
        assert consistency_via_support(e) is None

    def test_necessary_indices_for_projection(self):
        base = validate_on([x, ~x])
        e = expand(x, base, RATIO)
        assert necessary_condition(e) == [1]

    def test_necessity_holds_on_consistent_cases(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(30):
            f = random_func(rng, ids)
            base = random_term_chain(rng, ids)
            e = expand(f, base)
            if zero_set(f, over=ids):
                assert necessary_condition(e)

    def test_sufficiency_witness_satisfies(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(30):
            f = random_func(rng, ids)
            base = random_term_chain(rng, ids)
            e = expand(f, base)
            w = sufficient_condition(e)
            if w is not None:
                assert f.eval(w) == 0

    def test_sufficiency_takes_the_lowest_common_zero(self):
        # the coefficients of f over the chain x0, ~x0 are f itself: the
        # common zeros are the zeros of f over x1..x12, whose index puts
        # x1 most significant; x0 is pinned to 0
        order = list(range(1, 13))
        base = term_chain([(0, True)])
        ones = or_all([~var(v) for v in order])  # zero only at 2^12 - 1
        # zero where x1..x10 are 1 and x11, x12 are not both 1
        few = or_all([~var(v) for v in order[:-2]]) | (var(11) & var(12))
        for f, index in ((ones, (1 << 12) - 1), (few, (1 << 12) - 4)):
            e = expand(f, base, RATIO)
            lowest = min(
                i for i, p in enumerate(all_points(order))
                if not any(oracle_eval(a, p) for a in e.coefficients))
            assert lowest == index
            assert sufficient_condition(e) == Assignment(
                {0: 0, **index_to_assignment(index, order).as_dict()})

    def test_sufficiency_is_one_way(self):
        base = validate_on([x, ~x])
        e = expand(x, base, RATIO)
        # coefficients are 1 and 0: no common zero, yet x = 0 is consistent
        assert sufficient_condition(e) is None
        assert zero_set(x)

    def test_one_value_corollary_by_duality(self, rng):
        # f = 1 is consistent exactly when some complemented coefficient
        # can vanish; check necessity through the negated expansion
        ids = [0, 1, 2]
        for _ in range(30):
            f = random_func(rng, ids)
            base = random_term_chain(rng, ids)
            e = negate(expand(f, base))
            if support(f, over=ids):
                assert necessary_condition(e)


class TestMintermConsistency:
    def test_parity_is_consistent(self):
        assert minterm_consistency(x ^ y, [0]) is True

    def test_constant_one_is_inconsistent(self):
        f = (x | ~x) & (y | ~y)
        assert minterm_consistency(f, [0]) is False

    def test_variable_must_occur(self):
        with pytest.raises(VariableAbsent):
            minterm_consistency(x, [3])

    def test_matches_oracle_random(self, rng):
        ids = [0, 1, 2, 3, 4]
        for _ in range(40):
            f = random_func(rng, ids)
            if len(f.vars) < 2:
                continue
            vs = sorted(f.vars)
            x1 = vs[:2]
            expected = any(
                oracle_eval(f, p) == 0 for p in all_points(vs)
            )
            assert minterm_consistency(f, x1) == expected


class TestConsistencyViaSupport:
    def test_example_with_shannon_base(self):
        base = validate_on([x, ~x])
        e = expand(~x & y, base)
        got = consistency_via_support(e)
        assert got is not None
        k, q = got
        assert e.base.members[k].eval(q) == 1
        assert e.func.eval(q) == 0

    def test_inconsistent_returns_none(self):
        base = validate_on([x, ~x])
        assert consistency_via_support(expand(const(1), base, CANONICAL)) is None

    def test_exact_equivalence_with_oracle(self, rng):
        ids = [0, 1, 2, 3, 4]
        for _ in range(1000):
            f = random_func(rng, ids)
            base = random_term_chain(rng, ids)
            e = expand(f, base)
            got = consistency_via_support(e)
            over = sorted(set(ids) | base.vars | f.vars)
            truly = any(oracle_eval(f, p) == 0 for p in all_points(over))
            assert (got is not None) == truly
            if got is not None:
                k, q = got
                assert e.base.members[k].eval(q) == 1
                assert f.eval(q) == 0


class TestEliminant:
    def test_parity_eliminates_to_zero(self):
        assert semantically_equal(eliminant(x ^ y, 0), const(0), over=[1])

    def test_bare_variable(self):
        assert eliminant(x, 0) == const(0)

    def test_absent_variable(self):
        with pytest.raises(VariableAbsent):
            eliminant(x, 1)

    def test_projection_property(self, rng):
        ids = [0, 1, 2, 3, 4]
        for _ in range(30):
            f = random_func(rng, ids)
            if not f.vars:
                continue
            v = min(f.vars)
            rest = sorted(set(ids) - {v})
            elim = eliminant(f, v)
            got = {tuple(sorted(a.items())) for a in zero_set(elim, over=rest)}
            projected = set()
            for p in all_points(ids):
                if oracle_eval(f, p) == 0:
                    projected.add(tuple(sorted((u, b) for u, b in p.items() if u != v)))
            assert got == projected

    def test_system_lemma(self, rng):
        # f(x, Y) = 0 and g(Y) = 0 solvable together exactly when
        # eliminant(f) | g has a zero
        ids = [0, 1, 2, 3]
        for _ in range(30):
            f = random_func(rng, ids)
            g = random_func(rng, [1, 2, 3])
            if 0 not in f.vars:
                continue
            elim = eliminant(f, 0)
            lhs = bool(zero_set(elim | g, over=[1, 2, 3]))
            rhs = any(
                oracle_eval(f, p) == 0 and oracle_eval(g, p) == 0
                for p in all_points(ids)
            )
            assert lhs == rhs


class TestConjugate:
    def test_conjugate_of_variable(self):
        assert semantically_equal(conjugate(x), ~x)

    def test_zero_set_moves_to_star(self, rng):
        ids = [0, 1, 2, 3]
        for _ in range(30):
            f = random_func(rng, ids)
            starred = {star(a) for a in zero_set(f, over=ids)}
            assert zero_set(conjugate(f), over=ids) == starred

    def test_member_supports_conjugate(self):
        base = term_chain([(0, True), (1, True)])
        conj = conjugate_expansion(expand(x & y, base))
        for phi, phi_star in zip(base.members, conj.base.members):
            starred = {star(a) for a in support(phi, over=[0, 1])}
            assert support(phi_star, over=[0, 1]) == starred

    def test_conjugate_expansion_reconstructs(self, rng):
        ids = [0, 1, 2]
        for _ in range(20):
            f = random_func(rng, ids)
            base = random_term_chain(rng, ids)
            conj = conjugate_expansion(expand(f, base))
            assert semantically_equal(
                conj.reconstruct(), conjugate(f), over=ids
            )
