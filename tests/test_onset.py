import tracemalloc

import pytest

from onsat.boolalg import (
    Assignment,
    DuplicateVariable,
    Term,
    const,
    index_to_assignment,
    or_all,
    point_function,
    var,
)
from onsat.onset import (
    MintermPartition,
    NotNormal,
    NotOrthogonal,
    NotReduced,
    OnSet,
    chain_from_elements,
    coarsen,
    from_minterm_partition,
    minterm,
    parse_onset_spec,
    product_onset,
    support_stream,
    term_chain,
    validate_on,
)
from onsat.boolalg import VarTable, semantically_equal
from conftest import random_func

x, y, z = var(0), var(1), var(2)


class TestValidate:
    def test_single_variable_split(self):
        s = validate_on([x, ~x])
        assert s.order == 2

    def test_order_three_example(self):
        s = validate_on([x, ~x & y, ~x & ~y])
        assert s.order == 3

    def test_two_positive_variables_fail(self):
        with pytest.raises(NotOrthogonal):
            validate_on([x, y])

    def test_normality_violation(self):
        with pytest.raises(NotNormal):
            validate_on([x & y, ~x & y])

    def test_zero_member_detected(self):
        with pytest.raises(NotReduced) as err:
            validate_on([x, ~x, y & ~y])
        assert err.value.indices == (2,)

    def test_constant_one_alone_is_valid(self):
        assert validate_on([const(1)]).order == 1


class TestChainFromElements:
    def test_single_element(self):
        s = chain_from_elements([x])
        assert [m for m in s.members] == [~x, x]

    def test_two_elements(self):
        s = chain_from_elements([x, y])
        assert semantically_equal(s.members[0], ~x)
        assert semantically_equal(s.members[1], x & ~y)
        assert semantically_equal(s.members[2], x & y)
        validate_on(list(s.members))

    def test_repeated_element_degenerates(self):
        with pytest.raises(NotReduced):
            chain_from_elements([x, x])

    def test_arbitrary_generators_are_on(self, rng):
        ids = list(range(5))
        for _ in range(25):
            gens = [random_func(rng, ids) for _ in range(rng.randint(1, 3))]
            try:
                s = chain_from_elements(gens)
            except NotReduced:
                continue
            validate_on(list(s.members))


class TestMintermPartition:
    def test_singleton_blocks_over_one_variable(self):
        p = MintermPartition([{0}, {1}], n=1)
        s = from_minterm_partition(p, [0])
        assert semantically_equal(s.members[0], ~x)
        assert semantically_equal(s.members[1], x)

    def test_msb_convention(self):
        # first variable carries the top bit of the minterm index
        p = MintermPartition([{0, 1, 2, 3}, {4, 5, 6, 7}], n=3)
        s = from_minterm_partition(p, [0, 1, 2])
        assert semantically_equal(s.members[0], ~x)
        assert semantically_equal(s.members[1], x)

    def test_full_cover_single_block(self):
        p = MintermPartition([set(range(8))], n=3)
        s = from_minterm_partition(p, [0, 1, 2])
        assert s.order == 1
        assert semantically_equal(s.members[0], const(1))

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            MintermPartition([{0}, set()], n=1)
        with pytest.raises(ValueError):
            MintermPartition([{0}, {0, 1}], n=1)
        with pytest.raises(ValueError):
            MintermPartition([{0}], n=1)

    @pytest.mark.parametrize("blocks, message", [
        ([[0, 1]], "partition does not cover all minterms"),
        ([[0, 1 << 40]], "minterm index out of range"),
        ([[0, "1"]], "minterm index out of range"),
    ])
    def test_a_wide_partition_is_checked_without_listing_its_minterms(self, blocks, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                MintermPartition(blocks, n=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_minterm_helper(self):
        t = minterm(5, [0, 1, 2])  # 101 -> x and not y and z
        assert t == Term({0: True, 1: False, 2: True})

    def test_minterm_rejects_a_repeated_variable(self):
        # index 2 over [x0, x0] would set x0 to 1 and to 0
        for index in range(4):
            with pytest.raises(DuplicateVariable):
                minterm(index, [0, 0])
        with pytest.raises(DuplicateVariable):
            minterm(0, [3, 1, 3])


class TestTermChain:
    def test_single_variable(self):
        s = term_chain([(0, True)])
        assert s.terms == (Term({0: False}), Term({0: True}))

    def test_negative_polarity_example(self):
        s = term_chain([(0, True), (2, False)])
        assert s.terms == (
            Term({0: False}),
            Term({0: True, 2: True}),
            Term({0: True, 2: False}),
        )

    def test_order_four_chain_is_on(self):
        s = term_chain([(0, True), (1, True), (2, True)])
        assert s.order == 4
        validate_on(list(s.members))

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateVariable):
            term_chain([(0, True), (0, False)])

    def test_partial_assignments_pairwise_contradictory(self, rng):
        ids = list(range(6))
        for _ in range(20):
            depth = rng.randint(1, 4)
            vs = rng.sample(ids, depth)
            s = term_chain([(v, rng.random() < 0.5) for v in vs])
            assert s.order == depth + 1
            partials = [t.partial_assignment().as_dict() for t in s.terms]
            for i in range(len(partials)):
                for j in range(i + 1, len(partials)):
                    shared = partials[i].keys() & partials[j].keys()
                    assert any(partials[i][v] != partials[j][v] for v in shared)


class TestCoarsen:
    def test_group_all(self):
        s = term_chain([(0, True), (1, True)])
        merged = coarsen(s, [range(s.order)])
        assert merged.order == 1
        assert semantically_equal(merged.members[0], const(1))

    def test_identity_grouping(self):
        s = term_chain([(0, True), (1, True)])
        same = coarsen(s, [[i] for i in range(s.order)])
        assert same.members == s.members

    def test_merge_tail(self):
        s = validate_on([x, ~x & y, ~x & ~y])
        merged = coarsen(s, [[0], [1, 2]])
        assert semantically_equal(merged.members[0], x)
        assert semantically_equal(merged.members[1], ~x)

    def test_non_partition_rejected(self):
        s = term_chain([(0, True)])
        with pytest.raises(ValueError):
            coarsen(s, [[0]])
        with pytest.raises(ValueError):
            coarsen(s, [[0, 1], [1]])


class TestProduct:
    def test_minterm_factorization(self):
        s = product_onset(term_chain([(0, True)]), term_chain([(1, True)]))
        assert s.order == 4
        validate_on(list(s.members))

    def test_overlapping_variables_degenerate(self):
        c = term_chain([(0, True)])
        with pytest.raises(NotReduced):
            product_onset(c, c)

    def test_order_six(self):
        s1 = term_chain([(0, True)])
        s2 = validate_on([y, ~y & z, ~y & ~z])
        s = product_onset(s1, s2)
        assert s.order == 6
        validate_on(list(s.members))


class TestSupportStream:
    def test_term_support(self):
        t = Term({0: True, 1: False})
        sup = support_stream(t, over=[0, 1, 2])
        assert sup.partial.as_dict() == {0: 1, 1: 0}
        assert sup.free == (2,)
        points = {tuple(sorted(a.items())) for a in sup.assignments()}
        assert points == {
            ((0, 1), (1, 0), (2, 0)),
            ((0, 1), (1, 0), (2, 1)),
        }

    def test_function_support(self):
        phi = ~x & y
        got = {a for a in support_stream(phi, over=[0, 1, 2])}
        assert got == {
            Assignment({0: 0, 1: 1, 2: 0}),
            Assignment({0: 0, 1: 1, 2: 1}),
        }

    def test_constant_one_support_is_everything(self):
        got = list(support_stream(const(1), over=[0, 1]))
        assert len(got) == 4

    def test_function_support_in_ascending_index_order(self):
        # first variable most significant: index 0x0001 sets only x15
        order = list(range(16))
        indices = [0xFFFF, 0x0001, 0x8000, 0x7F00]
        points = [index_to_assignment(i, order) for i in indices]
        one = list(support_stream(~point_function(points[0]), over=order))
        assert one == [points[0]] == [Assignment({v: 1 for v in order})]
        several = or_all([~point_function(a) for a in points])
        got = list(support_stream(several, over=order))
        assert got == [index_to_assignment(i, order) for i in sorted(indices)]
        assert got[0] == Assignment({**{v: 0 for v in order}, 15: 1})

    def test_function_support_respects_cap(self):
        from onsat.boolalg import TooManyVariables

        with pytest.raises(TooManyVariables):
            support_stream(x | y, over=range(30))
        # term members carry no cap: the partial assignment is explicit
        sup = support_stream(Term({0: True}), over=range(30))
        assert len(sup.free) == 29


class TestInvariants:
    def test_constructed_sets_validate(self, rng):
        ids = list(range(5))
        for _ in range(20):
            depth = rng.randint(1, 3)
            vs = rng.sample(ids, depth)
            chain = term_chain([(v, rng.random() < 0.5) for v in vs])
            validate_on(list(chain.members))
            groups = [[0], list(range(1, chain.order))] if chain.order > 1 else [[0]]
            validate_on(list(coarsen(chain, groups).members))

    def test_supports_partition_the_cube(self, rng):
        ids = list(range(6))
        for _ in range(10):
            s = term_chain(
                [(v, rng.random() < 0.5) for v in rng.sample(ids, rng.randint(1, 4))]
            )
            seen = set()
            for member in s.members:
                pts = set(support_stream(member, over=ids))
                assert not (pts & seen)
                seen |= pts
            assert len(seen) == 1 << len(ids)


class TestSpecParsing:
    def test_chain_spec(self):
        t = VarTable()
        s = parse_onset_spec("chain: x1, ~x3, x5", t)
        assert s.order == 4
        assert s.terms is not None

    def test_funcs_spec(self):
        t = VarTable()
        s = parse_onset_spec("funcs: a, a' & b, a' & b'", t)
        assert s.order == 3

    def test_bare_spec_defaults_to_funcs(self):
        t = VarTable()
        s = parse_onset_spec("a, a'", t)
        assert s.order == 2

    def test_chain_names_follow_the_expression_grammar(self):
        # x² is one name to the tokenizer; ñu and a·b are not names
        t = VarTable()
        assert parse_onset_spec("chain: x², ~a", t).order == 3
        assert t.names == ["x²", "a"]
        for piece in ("ñu", "a·b", "~ñu"):
            with pytest.raises(ValueError, match="bad chain literal"):
                parse_onset_spec(f"chain: a, {piece}", VarTable())

    def test_bad_specs(self):
        t = VarTable()
        with pytest.raises(ValueError):
            parse_onset_spec("chain:", t)
        with pytest.raises(NotOrthogonal):
            parse_onset_spec("a, b", t)
