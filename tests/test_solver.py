import itertools
import random

import pytest

from onsat.boolalg import (
    AND,
    Assignment,
    CONST,
    NOT,
    OR,
    VAR,
    XOR,
    ParseError,
    and_,
    cofactor,
    const,
    not_,
    or_,
    or_all,
    substitute,
    truth_table,
    var,
    var_occurrences,
    xor,
)
from onsat.gf2k import Curve, Field, lower_to_boolean
from onsat.onset import term_chain
from onsat.solver import (
    DECIDE,
    ENUMERATE,
    SAT,
    UNSAT,
    BoolSystem,
    Conflict,
    Solution,
    SolverConfig,
    _local_solutions,
    _search,
    bool_solve,
    brute_force,
    choose_split,
    decompose,
    parse_system,
    triv_solve,
)
from conftest import (
    all_points,
    expanded_solution_set,
    oracle_eval,
    oracle_system_solutions,
    random_func,
    random_shared_funcs,
    random_system,
    random_term_chain,
    shannon_cubes,
    tree_solutions,
)

x, y, z, w = var(0), var(1), var(2), var(3)


def cfg(**kw):
    base = dict(n0=2, split_depth=2, mode=ENUMERATE)
    base.update(kw)
    return SolverConfig(**base)


class TestTrivSolve:
    def test_unit_chain(self):
        s = BoolSystem.root([(x, const(1)), (x ^ y, const(0))], [0, 1])
        reduced, made = triv_solve(s)
        assert not reduced.equations
        assert made.as_dict() == {0: 1, 1: 1}

    def test_direct_conflict(self):
        s = BoolSystem.root([(x, const(1)), (x, const(0))], [0])
        with pytest.raises(Conflict):
            triv_solve(s)

    def test_constant_equations(self):
        ok = BoolSystem.root([(const(1), const(1))], [0])
        reduced, _ = triv_solve(ok)
        assert not reduced.equations
        bad = BoolSystem.root([(const(1), const(0))], [])
        with pytest.raises(Conflict):
            triv_solve(bad)

    def test_negative_unit(self):
        s = BoolSystem.root([(~y, const(0))], [1])
        _, made = triv_solve(s)
        assert made.as_dict() == {1: 1}

    def test_forced_sum_and_product(self):
        s = BoolSystem.root([(x | y | z, const(0))], [0, 1, 2])
        _, made = triv_solve(s)
        assert made.as_dict() == {0: 0, 1: 0, 2: 0}
        s2 = BoolSystem.root([(const(1), x & ~y)], [0, 1])
        _, made2 = triv_solve(s2)
        assert made2.as_dict() == {0: 1, 1: 0}

    def test_contradictory_sum(self):
        s = BoolSystem.root([(x | ~x, const(0))], [0])
        with pytest.raises(Conflict):
            triv_solve(s)

    def test_tautological_literal_equation_drops(self):
        s = BoolSystem.root([(x, x)], [0])
        reduced, made = triv_solve(s)
        assert not reduced.equations
        assert not made.as_dict()
        assert reduced.vars == {0}

    def test_self_complement_conflicts(self):
        s = BoolSystem.root([(x, ~x)], [0])
        with pytest.raises(Conflict):
            triv_solve(s)

    def test_scan_goes_on_after_a_drop_and_starts_over_after_a_rewrite(self):
        # x = ~y binds x and rewrites the first equation to ~y & u = z,
        # which is kept; 1 = 1 is dropped; u = z binds u; y | w = 0
        # fixes y and w, which leaves z = z, dropped on the next scan
        u = var(4)
        s = BoolSystem.root(
            [(x & u, z), (x, ~y), (const(1), const(1)), (u, z), (y | w, const(0))],
            range(5),
        )
        reduced, made = triv_solve(s)
        assert reduced.equations == ()
        assert reduced.vars == {2}
        assert reduced.bindings == ((0, 1, False), (4, 2, True))
        assert made.as_dict() == {1: 0, 3: 0}

    def test_binding_with_free_kept_variable_splits_the_cube(self):
        # x = y' with nothing else: y is unconstrained, but x = y' rules
        # out half the square, so the cube must split into two solutions.
        # At n0 = 1 the two variables are above n0, so the binding is
        # made and lifted rather than brute-forced as a leaf table
        s = BoolSystem.root([(x, ~y)], [0, 1])
        out = bool_solve(s, cfg(n0=1))
        got = expanded_solution_set(out, [0, 1])
        assert got == {((0, 1), (1, 0)), ((0, 0), (1, 1))}
        # the split variable takes 0 first, on both backends
        for found in (out.solutions, tree_solutions(s, cfg(n0=1))):
            assert [sol.assignment for sol in found] == [((0, 1), (1, 0)), ((0, 0), (1, 1))]

    def test_chained_bindings_reassemble(self):
        # x = y', y = z: both eliminated, z decides everything
        s = BoolSystem.root([(x, ~y), (y, z), (z | ~z, const(1))], [0, 1, 2])
        out = bool_solve(s, cfg())
        got = expanded_solution_set(out, [0, 1, 2])
        assert got == oracle_system_solutions(s)
        assert got == {((0, 1), (1, 0), (2, 0)), ((0, 0), (1, 1), (2, 1))}

    def test_literal_equality_shrinks_and_reassembles(self, rng):
        for _ in range(30):
            f = random_func(rng, [0, 1, 2, 3])
            s = BoolSystem.root([(x, ~y), (f, const(0))], [0, 1, 2, 3])
            reduced, _ = triv_solve(s)
            assert 0 not in reduced.vars
            assert reduced.bindings == ((0, 1, False),)
            out = bool_solve(s, cfg())
            assert expanded_solution_set(out, s.root_vars) == \
                oracle_system_solutions(s)


class TestChooseSplit:
    def test_most_frequent_first(self):
        # a appears 3 times, b twice, c once
        a, b, c = var(0), var(1), var(2)
        s = BoolSystem.root([(a & b, a | (a & c)), (b, const(0))], [0, 1, 2])
        chain = choose_split(s, cfg(split_depth=2))
        assert chain.terms[0].literals == {0: False}
        assert chain.terms[1].literals == {0: True, 1: False}
        assert chain.terms[2].literals == {0: True, 1: True}

    def test_single_variable_split_is_dpll(self):
        s = BoolSystem.root([(x ^ y, const(1))], [0, 1])
        chain = choose_split(s, cfg(split_depth=1))
        assert len(chain.terms) == 2
        assert chain.terms[0].literals in ({0: False}, {1: False})

    def test_tie_breaks_to_lowest_id(self):
        s = BoolSystem.root([(y & w, x & z)], [0, 1, 2, 3])
        chain = choose_split(s, cfg(split_depth=1))
        assert chain.terms[1].literals == {0: True}


class TestDecompose:
    def test_shannon_split(self, rng):
        f = random_func(rng, [0, 1, 2])
        s = BoolSystem.root([(f, const(0))], [0, 1, 2])
        subs = decompose(s, term_chain([(0, True)]))
        assert len(subs) == 2
        assert subs[0].trail.as_dict() == {0: 0}
        assert subs[1].trail.as_dict() == {0: 1}
        assert all(0 not in sub.vars for sub in subs)

    def test_partition_and_cover(self, rng):
        for _ in range(25):
            s = random_system(rng, 6, rng.randint(1, 4))
            chain = random_term_chain(rng, sorted(s.vars))
            subs = decompose(s, chain)
            parent = oracle_system_solutions(s)
            seen = set()
            for sub in subs:
                part = expanded_solution_set(bool_solve(sub, cfg()), s.root_vars)
                assert not (part & seen)
                seen |= part
            assert seen == parent


    def test_tree_search_makes_only_the_children_it_visits(self, monkeypatch):
        """a | b | ... | p = 1 and a ^ b ^ c = d & e, on the expression
        trees (the OR is over anf.BUDGET): each child is cofactored when
        the walk reaches it, so decide makes a few of the children that
        enumerate makes, and every child made is visited."""
        from onsat import anf, solver
        from onsat.solver import _AnfSearch, _TreeSearch

        vs = [var(i) for i in range(16)]
        s = BoolSystem.root([(or_all(vs), const(1)),
                             (vs[0] ^ vs[1] ^ vs[2], vs[3] & vs[4])])
        with pytest.raises(anf.OverBudget):
            _AnfSearch(s, cfg())
        made, visited = [], []
        subsystems, visit = solver._subsystems, _TreeSearch.visit

        def making(system, terms):
            for child in subsystems(system, terms):
                made.append(child)
                yield child

        monkeypatch.setattr(solver, "_subsystems", making)
        monkeypatch.setattr(_TreeSearch, "visit",
                            lambda self, node: visited.append(node) or visit(self, node))
        oracle = oracle_system_solutions(s)
        counts = {}
        for mode in (DECIDE, ENUMERATE):
            made.clear()
            visited.clear()
            out = bool_solve(s, cfg(n0=2, split_depth=3, mode=mode))
            got = expanded_solution_set(out, s.root_vars)
            assert got == oracle if mode == ENUMERATE else got <= oracle and got
            # the root is the one node visited and not made
            assert visited[0] is s and made == visited[1:]
            counts[mode] = len(made)
        assert counts[DECIDE] < counts[ENUMERATE] // 2, counts


class TestBruteForce:
    def test_vacuous_system(self):
        s = BoolSystem.root([], [0])
        out = brute_force(s)
        assert out.status == SAT
        assert sum(sol.expanded_count() for sol in out.solutions) == 2

    def test_parity(self):
        s = BoolSystem.root([(x ^ y, const(1))], [0, 1])
        out = brute_force(s)
        got = expanded_solution_set(out, [0, 1])
        assert got == {((0, 0), (1, 1)), ((0, 1), (1, 0))}

    def test_agrees_with_recursive_solver(self, rng):
        for _ in range(20):
            s = random_system(rng, 5, 3)
            direct = expanded_solution_set(brute_force(s), s.root_vars)
            recursive = expanded_solution_set(
                bool_solve(s, cfg(n0=1, split_depth=1)), s.root_vars
            )
            assert direct == recursive


class TestBoolSolve:
    def test_trivially_false_root(self):
        s = BoolSystem.root([(const(1), const(0))], [0, 1])
        assert bool_solve(s, cfg()).status == UNSAT

    def test_enumerate_matches_oracle(self, rng):
        for _ in range(60):
            s = random_system(rng, rng.randint(2, 8), rng.randint(1, 5))
            out = bool_solve(s, cfg())
            assert expanded_solution_set(out, s.root_vars) == \
                oracle_system_solutions(s)

    def test_solutions_are_duplicate_free(self, rng):
        for _ in range(20):
            s = random_system(rng, 6, 3)
            out = bool_solve(s, cfg())
            seen = []
            for sol in out.solutions:
                for total in sol.expand():
                    seen.append(tuple(sorted(total.items())))
            assert len(seen) == len(set(seen))

    def test_decide_witness_is_sound(self, rng):
        for _ in range(40):
            s = random_system(rng, 7, 4)
            out = bool_solve(s, cfg(mode=DECIDE))
            oracle = oracle_system_solutions(s)
            assert out.sat == bool(oracle)
            if out.sat:
                assert len(out.solutions) == 1
                got = expanded_solution_set(out, s.root_vars)
                assert got <= oracle

    def test_decide_lifts_one_point_of_a_tree_leaf(self, monkeypatch):
        from onsat import anf, solver as mod

        # a positive OR over the ANF budget: one tree leaf of 2^k - 1 points
        k = anf.BUDGET.bit_length() + 1
        s = BoolSystem.root([(or_all([var(v) for v in range(k)]), const(1))])
        lifted = []
        lift = mod._Lifter.lift

        def counting(self, *args):
            lifted.append(args)
            return lift(self, *args)

        monkeypatch.setattr(mod._Lifter, "lift", counting)
        out = bool_solve(s, cfg(n0=k, mode=DECIDE))
        assert len(out.solutions) == 1 and len(lifted) == 1
        assert expanded_solution_set(out, s.root_vars) <= oracle_system_solutions(s)

    def test_free_variables_reported_symbolically(self):
        s = BoolSystem.root([(x, const(1))], [0, 1, 2])
        out = bool_solve(s, cfg())
        assert len(out.solutions) == 1
        sol = out.solutions[0]
        assert sol.as_dict() == {0: 1}
        assert sol.dont_care == (1, 2)

    def test_leaf_cubes_are_the_shannon_cubes_of_its_points(self):
        # one leaf, no trail, no binding: the solutions, in order, are the
        # Shannon cubes of the leaf's points, first variable split first,
        # and e and the variables a cube leaves free are its don't-cares
        system, _ = parse_system("vars: e\na & b | c & ~d = 1\n")
        order = sorted(system.occurring())
        (lhs, rhs), = system.equations
        points = frozenset(tuple(p[v] for v in order) for p in all_points(order)
                           if oracle_eval(lhs, p) == oracle_eval(rhs, p))
        expected = []
        for cube in shannon_cubes(points, len(order)):
            fixed = {order[i]: b for i, b in cube}
            expected.append(Solution.make(fixed, {0, *order} - fixed.keys()))
        assert len(expected) < len(points)
        for solutions in (bool_solve(system, cfg(n0=16)).solutions,
                          tree_solutions(system, cfg(n0=16))):
            assert solutions == expected

    @staticmethod
    def lifted_systems(rng, backend: str):
        """Seeded system texts over a..g.  ``anf``: sums of products,
        half of the lines affine, so nodes above n0 eliminate.  ``tree``:
        ORs of three or four names, whose ANF outgrows the expressions,
        next to literal equalities, which become bindings."""
        names = "abcdefg"
        for _ in range(25):
            lines = []
            for _ in range(rng.randint(2, 5)):
                if backend == "tree":
                    lines.append(" | ".join(rng.sample(names, rng.randint(3, 4)))
                                 + " = 1")
                    a, b = rng.sample(names, 2)
                    lines.append(f"{a} = {'~' if rng.random() < 0.5 else ''}{b}")
                else:
                    width = 1 if rng.random() < 0.5 else 2
                    terms = [" & ".join(rng.sample(names, rng.randint(1, width)))
                             for _ in range(rng.randint(2, 4))]
                    lines.append(" ^ ".join(terms) + f" = {rng.randint(0, 1)}")
            yield "vars: " + ", ".join(names) + "\n" + "\n".join(lines) + "\n"

    @pytest.mark.parametrize("backend", ["anf", "tree"])
    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_lifted_leaf_cubes_hold_each_point_once(self, monkeypatch, backend, n0):
        """Leaf cubes lifted through bindings: the ANF search's
        eliminations, the tree search's literal equalities.  Expanded,
        the cubes are the oracle's points, each once, and decide's
        witness is enumerate's first cube."""
        from onsat import anf, solver as mod

        bound = []
        lift = mod._Lifter.lift

        def recording(self, known, ones, bindings):
            bound.append(len(bindings))
            return lift(self, known, ones, bindings)

        monkeypatch.setattr(mod._Lifter, "lift", recording)
        rng = random.Random(4000 + n0)
        sat = 0
        for text in self.lifted_systems(rng, backend):
            system, _ = parse_system(text)
            try:
                mod._AnfSearch(system, cfg())
                assert backend == "anf", text
            except anf.OverBudget:
                assert backend == "tree", text
            out = bool_solve(system, cfg(n0=n0, mode=ENUMERATE))
            oracle = oracle_system_solutions(system)
            assert expanded_solution_set(out, system.root_vars) == oracle, text
            witness = bool_solve(system, cfg(n0=n0, mode=DECIDE)).solutions
            assert witness == out.solutions[:1], text
            sat += out.sat
        assert sat and max(bound) > 0

    def test_lifted_cube_keys_are_the_fixed_ids_in_id_order(self):
        """Random lifts over sparse ids: each cube, its keys' order
        included, is the one a scan of every id gives."""
        from onsat import solver as mod

        def scan_lift(lifter, known, ones, bindings):
            cbit = lifter.cbit
            stack = [(len(bindings), known | cbit, ones | cbit)]
            while stack:
                i, known, ones = stack.pop()
                while i:
                    p, rest = bindings[i - 1]
                    free = rest & ~known
                    if free:
                        low = free & -free
                        stack.append((i, known | low, ones | low))
                        known |= low
                        continue
                    i -= 1
                    known |= p
                    if (rest & ones).bit_count() & 1:
                        ones |= p
                yield {v: ones >> j & 1 for j, v in enumerate(lifter.ids) if known >> j & 1}

        rng = random.Random(2903)
        lifted = 0
        for _ in range(300):
            n = rng.randint(1, 40)
            ids = rng.sample(range(1 << 30), n)
            lifter = mod._Lifter(BoolSystem([], ids, Assignment(), (), ids))
            bits = [1 << j for j in range(n)]
            known = sum(b for b in bits if rng.random() < rng.random())
            ones = known & rng.getrandbits(n)
            pivots = rng.sample(bits, rng.randint(0, min(n, 5)))
            bindings = tuple(
                (p, sum(rng.sample(bits, rng.randint(0, min(n, 3)))) & ~p
                 | (lifter.cbit if rng.random() < 0.5 else 0))
                for p in pivots)
            got = [list(c.items()) for c in lifter.lift(known, ones, bindings)]
            want = [list(c.items()) for c in scan_lift(lifter, known, ones, bindings)]
            assert got == want, (ids, known, ones, bindings)
            lifted += len(got)
        assert lifted > 1000

    def test_expand_puts_the_first_dont_care_most_significant(self):
        sol = Solution.make({0: 1}, [5, 2])
        assert [tuple(t.items()) for t in sol.expand()] == [
            ((0, 1), (2, 0), (5, 0)),
            ((0, 1), (2, 0), (5, 1)),
            ((0, 1), (2, 1), (5, 0)),
            ((0, 1), (2, 1), (5, 1)),
        ]

    def test_no_single_equation_merge_exists(self):
        # the engine must never fold a system into one xor-sum equation
        from onsat import solver as mod

        banned = ("single", "merge_equations", "fold_system")
        exported = [n for n in dir(mod) if not n.startswith("_")]
        for name in exported + [m for m in dir(BoolSystem) if not m.startswith("_")]:
            assert not any(b in name.lower() for b in banned)


class _BinaryTree:
    """A synthetic search backend: the complete binary tree of a depth,
    each node named by its path of 0s and 1s, each leaf one cube that
    names it.  A split in ``empty`` has every child conflicted, so its
    iterator yields nothing.  It records the children it makes and
    counts its child iterators that are open (made and not run out)."""

    def __init__(self, depth: int, empty=()):
        self.depth = depth
        self.empty = set(empty)
        self.made: list = []
        self.open = self.most_open = 0

    def visit(self, node: str) -> tuple:
        if len(node) == self.depth:
            return None, [{"leaf": node}]
        self.open += 1
        self.most_open = max(self.most_open, self.open)
        return self._children(node), ()

    def _children(self, node: str):
        if node not in self.empty:
            for bit in "01":
                self.made.append(node + bit)
                yield node + bit
        self.open -= 1


class TestSearchDriver:
    @pytest.mark.parametrize("depth", [0, 1, 4, 9])
    def test_open_iterators_are_bounded_by_the_depth(self, depth):
        """The root's iterator plus one per split on the path: d + 1 at
        most, for 2^d leaves."""
        backend = _BinaryTree(depth)
        walk = _search(backend, "", decide=False)
        cubes, held = [], []
        for cube in walk:
            cubes.append(cube)
            held.append(len(walk.gi_frame.f_locals["stack"]))
        assert cubes == [{"leaf": "".join(p)}
                         for p in itertools.product("01", repeat=depth)]
        assert max(held) == depth + 1 and backend.most_open == depth
        assert backend.open == 0

    def test_decide_makes_no_sibling_after_the_first_cube(self):
        backend = _BinaryTree(5)
        assert list(_search(backend, "", decide=True)) == [{"leaf": "00000"}]
        assert backend.made == ["0", "00", "000", "0000", "00000"]

    @pytest.mark.parametrize("decide", [False, True])
    def test_a_split_with_no_child_is_popped(self, decide):
        """Every child of 0 and of 11 conflicts: the walk pops each and
        goes on to the next sibling, 1 after 0, so only the leaves of
        10 come out.  Decide stops at the first with the root, 1 and 10
        still open."""
        backend = _BinaryTree(3, empty={"0", "11"})
        got = list(_search(backend, "", decide))
        if decide:
            assert got == [{"leaf": "100"}] and backend.open == 3
            assert backend.made == ["0", "1", "10", "100"]
        else:
            assert got == [{"leaf": "100"}, {"leaf": "101"}] and backend.open == 0
            assert backend.made == ["0", "1", "10", "100", "101", "11"]


class TestSystemFormat:
    def test_parse_with_header_and_comments(self):
        text = """
        # system with a spare variable
        vars: a, b, spare
        a = 1
        a ^ b = 0   # forces b
        """
        system, table = parse_system(text)
        assert len(system.equations) == 2
        assert table.names == ["a", "b", "spare"]
        out = bool_solve(system, cfg())
        assert out.solutions[0].dont_care == (2,)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_system("a | b\n")
        with pytest.raises(ParseError):
            parse_system("a = \n")
        with pytest.raises(ParseError):
            parse_system("vars: 0bad\n")

    def test_root_rejects_an_undeclared_variable(self):
        with pytest.raises(ValueError, match="undeclared variable x2"):
            BoolSystem.root([(x ^ z, const(1))], [0, 1])
        assert BoolSystem.root([(x ^ z, const(1))], [0, 2, 5]).vars == {0, 2, 5}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n0=0)
        with pytest.raises(ValueError):
            SolverConfig(split_depth=0)
        with pytest.raises(ValueError):
            SolverConfig(mode="guess")


# ---------------------------------------------------------------------------
# same tree, same solutions: the solver against a rebuild-everything reference
#
# The reference cofactors with a fresh memo per call and rebuilds every
# node it visits, and counts occurrences by walking the DAG once per
# call, as the solver did before cofactors kept untouched subtrees and
# nodes cached their counts.  The solver must give structurally equal
# children, the same split choices and the same Solution list, in order.


def reference_substitute(f, mapping):
    repl = {v: const(g) if isinstance(g, int) else g for v, g in mapping.items()}
    memo = {}

    def go(g):
        if id(g) in memo:
            return memo[id(g)]
        if g.kind == VAR:
            r = repl.get(g.var, g)
        elif g.kind == CONST:
            r = g
        elif g.kind == NOT:
            r = not_(go(g.left))
        else:
            op = {AND: and_, OR: or_, XOR: xor}[g.kind]
            r = op(go(g.left), go(g.right))
        memo[id(g)] = r
        return r

    return go(f)


def reference_occurrences(f) -> dict:
    post, seen, stack = [], set(), [(f, False)]
    while stack:
        node, done = stack.pop()
        if done:
            post.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            if node.kind not in (VAR, CONST):
                kids = (node.left,) if node.kind == NOT else (node.left, node.right)
                stack.extend((c, False) for c in kids if id(c) not in seen)
    paths = {id(node): 0 for node in post}
    paths[id(f)] = 1
    counts = {}
    for node in reversed(post):
        p = paths[id(node)]
        if node.kind == VAR:
            counts[node.var] = counts.get(node.var, 0) + p
        elif node.kind != CONST:
            for c in (node.left,) if node.kind == NOT else (node.left, node.right):
                paths[id(c)] += p
    return counts


def reference_choose_split(system, config):
    counts = {}
    for l, r in system.equations:
        for side in (l, r):
            for v, c in reference_occurrences(side).items():
                counts[v] = counts.get(v, 0) + c
    ranked = sorted(counts, key=lambda v: (-counts[v], v))
    return term_chain([(v, True) for v in ranked[:config.split_depth]])


def reference_decompose(system, terms):
    out = []
    for t in terms.terms:
        q = t.partial_assignment()
        mapping = q.as_dict()
        eqs = [
            tuple(reference_substitute(side, mapping)
                  if mapping.keys() & side.vars else side for side in eq)
            for eq in system.equations
        ]
        out.append(BoolSystem(eqs, system.vars - mapping.keys(),
                              system.trail.merge(q), system.bindings,
                              system.root_vars))
    return out


def reference_solve(system, config) -> list:
    out = []
    stack = [system]
    while stack:
        try:
            node, _ = triv_solve(stack.pop())
        except Conflict:
            continue
        if len(node.occurring()) <= config.n0:
            out.extend(brute_force(node).solutions)
            if config.mode == DECIDE and out:
                return out[:1]
            continue
        chain = reference_choose_split(node, config)
        assert choose_split(node, config) == chain
        stack.extend(reversed(reference_decompose(node, chain)))
    return out


def shared_system(rng, n_vars: int, n_eqs: int):
    """A random system whose equations share subtrees."""
    ids = list(range(n_vars))
    sides = random_shared_funcs(rng, ids, 2 * n_eqs, rng.randint(2, 6))
    eqs = [(sides[2 * i], sides[2 * i + 1] if rng.random() < 0.5
            else const(rng.randint(0, 1))) for i in range(n_eqs)]
    return BoolSystem.root(eqs, ids)


def curve_system():
    field = Field(0b1011)
    curve = Curve(a1=1, a2=3, a4=7, a6=2)
    equation = curve.symbolic_equation(field, [0, 1, 2], [3, 4, 5])
    return lower_to_boolean(equation, list(range(6)))


class TestSameTree:
    def test_substitute_keeps_an_untouched_expression(self, rng):
        for f in random_shared_funcs(rng, list(range(4)), 20, 6):
            assert substitute(f, {7: 1}) is f
            assert cofactor(f, {9: 0, 8: 1}) is f
            g = cofactor(f, {0: 1})
            assert g == reference_substitute(f, {0: 1})
            if 0 not in f.vars:
                assert g is f

    def test_shared_memo_cofactors_equal_fresh_ones(self, rng):
        systems = [shared_system(rng, 6, 4) for _ in range(40)] + [curve_system()]
        for s in systems:
            chain = random_term_chain(rng, sorted(s.vars))
            for t in chain.terms:
                mapping = t.partial_assignment().as_dict()
                memo = {}
                for l, r in s.equations:
                    for side in (l, r):
                        got = cofactor(side, t, memo)
                        want = reference_substitute(side, mapping)
                        assert got == want
                        assert var_occurrences(got) == reference_occurrences(want)
            for got, want in zip(decompose(s, chain), reference_decompose(s, chain)):
                assert got.equations == want.equations
                assert got.trail == want.trail and got.vars == want.vars

    def test_leaf_tables_share_one_memo(self, rng):
        for _ in range(40):
            s = shared_system(rng, 6, 4)
            occ = sorted(s.occurring())
            full = (1 << (1 << len(occ))) - 1
            mask = full
            for l, r in s.equations:
                mask &= full ^ truth_table(l, occ) ^ truth_table(r, occ)
            got_order, got = _local_solutions(s)
            assert got_order == occ
            assert got == mask

    @pytest.mark.parametrize("mode", [DECIDE, ENUMERATE])
    def test_same_solutions_in_the_same_order(self, mode):
        rng = random.Random(4242)
        systems = [shared_system(rng, rng.randint(4, 8), rng.randint(2, 5))
                   for _ in range(50)]
        systems += [random_system(rng, 7, 4) for _ in range(10)]
        systems.append(curve_system())
        for s in systems:
            for n0, depth in itertools.product(range(1, 5), range(1, 4)):
                config = cfg(n0=n0, split_depth=depth, mode=mode)
                assert tree_solutions(s, config) == reference_solve(s, config)
