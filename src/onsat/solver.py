"""Decomposition solver for systems of Boolean equations.

A system is a list of equations lhs = rhs over a shared variable
universe.  Solving walks a tree of subproblems depth-first, in chain
order: each node is reduced, and then either fits under the n0
brute-force threshold and becomes a leaf, or splits by an orthonormal
chain of positive-literal terms over its most frequent variables, which
partitions its solutions among independent children.

One driver, :func:`_search`, walks the trees of both paths (the CNF
trail is a backend in :mod:`onsat.cnf`).  System nodes take one of two
forms:

* ANF (algebraic normal form, :mod:`onsat.anf`): each equation
  ``l = r`` becomes the GF(2) polynomial ``l ^ r``, an XOR of
  monomials, held as a bitset over the monomials of the solve.  A node
  that mentions at most n0 variables is a leaf as it stands.  A larger
  one reduces by Gauss-Jordan elimination over its affine equations:
  an inconsistent system is a conflict, and each pivot becomes a
  binding ``v = c ^ (sum of others)`` that is substituted into the
  other equations, to a fixpoint.  Frequency is the number of
  monomials a variable occurs in, and leaves build their truth tables
  from the monomials.  Lifting solves the bindings in reverse,
  splitting a variable that a binding mentions and nothing fixes, a
  variable that a leaf cube leaves free included.  A system is solved
  in this form when its polynomials hold no more monomials than its
  expressions have nodes.  Elimination is
  only a reduction: a node whose elimination outgrows ``anf.BUDGET``
  splits as it stands.
* Expression trees, for every other system (an OR of k positive
  literals has 2^k - 1 monomials): trivial reductions (constant
  equations, unit literals, literal equalities, forced sums/products),
  cofactoring, and leaves over the expressions' truth tables.

The walk is serial and deterministic and hands out one leaf at a time
(:func:`leaf_blocks`).  Solutions are reported compressed, as cubes: an
assignment of the constrained variables, the other variables being
don't-cares, every expansion of which satisfies the system.  Every leaf
of either form, as on the CNF path, splits its truth table into the
disjoint cubes of its Shannon expansion (:func:`boolalg._cubes`), which
the lifter carries back to the root variables.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Optional, Sequence

from .boolalg import (
    AND,
    Assignment,
    BoolFunc,
    CONST,
    DEFAULT_CAP,
    OR,
    ParseError,
    VarTable,
    _FrozenRecord,
    _Record,
    _check_cap,
    _cubes,
    _indices,
    _is_name,
    _point,
    cofactor,
    const,
    flat_literals,
    literal_of,
    not_,
    parse_expr,
    substitute,
    truth_table,
    var,
    var_occurrences,
)
from . import anf
from .onset import OnSet, term_chain

SAT = "SAT"
UNSAT = "UNSAT"

DECIDE = "decide"
ENUMERATE = "enumerate"


class Conflict(Exception):
    """A subproblem is locally unsatisfiable."""


class SolverConfig(_FrozenRecord):
    """Tuning knobs for the decomposition engine."""

    __slots__ = ("n0", "split_depth", "mode")

    def __init__(self, n0: int = 16, split_depth: int = 3, mode: str = DECIDE):
        if n0 < 1:
            raise ValueError("n0 must be at least 1")
        if split_depth < 1:
            raise ValueError("split_depth must be at least 1")
        if mode not in (DECIDE, ENUMERATE):
            raise ValueError(f"unknown mode {mode!r}")
        self._set(n0, split_depth, mode)


class BoolSystem:
    """Equations f_i = g_i over a variable universe, plus bookkeeping.

    ``trail`` accumulates assignments made on the way down from the root
    problem; ``bindings`` records literal-equality substitutions
    (eliminated variable, kept variable, polarity flag) in the order
    they were made, so leaf solutions can be lifted back to the root
    universe.

    A root read by :func:`parse_system` keeps its file's lines in
    ``source`` and builds ``equations`` from them on first read; the
    ANF search takes its polynomials from ``source`` and never reads
    them.  Every other system has its equations from the start and no
    source.
    """

    __slots__ = ("equations", "vars", "trail", "bindings", "root_vars", "source")

    def __init__(
        self,
        equations: Optional[Sequence[tuple[BoolFunc, BoolFunc]]],
        vars: frozenset,
        trail: Assignment,
        bindings: tuple,
        root_vars: frozenset,
        source: Optional["_SystemFile"] = None,
    ):
        if equations is not None:
            self.equations = tuple(equations)
        self.vars = frozenset(vars)
        self.trail = trail
        self.bindings = tuple(bindings)
        self.root_vars = frozenset(root_vars)
        self.source = source

    def __getattr__(self, name):
        # reached only for an unset slot: a parsed root's equations,
        # before their first read
        if name != "equations" or self.source is None:
            raise AttributeError(name)
        self.equations = eqs = self.source.equations()
        return eqs

    @classmethod
    def root(
        cls,
        equations: Sequence[tuple[BoolFunc, BoolFunc]],
        variables: Optional[Sequence[int]] = None,
    ) -> "BoolSystem":
        """A system over ``variables`` (default: those mentioned); the
        one place where an undeclared variable raises ValueError."""
        eqs = [(l, r) for l, r in equations]
        mentioned = set()
        for l, r in eqs:
            mentioned |= l.vars | r.vars
        if variables is None:
            universe = frozenset(mentioned)
        else:
            universe = frozenset(variables)
            if not mentioned <= universe:
                missing = min(mentioned - universe)
                raise ValueError(f"equation mentions undeclared variable x{missing}")
        return cls(eqs, universe, Assignment(), (), universe)

    def occurring(self) -> frozenset:
        out = set()
        for l, r in self.equations:
            out |= l.vars | r.vars
        return frozenset(out)

    @property
    def n(self) -> int:
        return len(self.vars)

    def __repr__(self) -> str:
        return (
            f"BoolSystem({len(self.equations)} equations, "
            f"{len(self.vars)} open vars)"
        )


class Solution(_FrozenRecord):
    """One compressed solution over the root universe.

    ``assignment`` fixes the constrained variables; every combination of
    values for ``dont_care`` extends it to a full solution.
    """

    __slots__ = ("assignment", "dont_care")

    def __init__(self, assignment: tuple, dont_care: tuple):
        self._set(assignment, dont_care)

    @classmethod
    def make(cls, assignment: dict, dont_care) -> "Solution":
        return cls(tuple(sorted(assignment.items())), tuple(sorted(dont_care)))

    def as_dict(self) -> dict:
        return dict(self.assignment)

    def expand(self) -> Iterator[dict]:
        """All total assignments represented by this solution."""
        base = dict(self.assignment)
        free = self.dont_care
        for idx in range(1 << len(free)):
            yield {**base, **_point(idx, free)}

    def expanded_count(self) -> int:
        return 1 << len(self.dont_care)


class SolveOutcome(_Record):
    """Status plus the solutions found (at most one in decide mode)."""

    __slots__ = ("status", "solutions")

    def __init__(self, status: str, solutions: list):
        self.status = status
        self.solutions = solutions

    @property
    def sat(self) -> bool:
        return self.status == SAT


# ---------------------------------------------------------------------------
# trivial reductions

def _forced_dict(lits, value: int) -> dict:
    out: dict = {}
    for v, pol in lits:
        b = value if pol else 1 - value
        if out.setdefault(v, b) != b:
            raise Conflict(f"x{v} forced both ways")
    return out


def _rewritten(equations, mapping, rewrite) -> list:
    """The equations with each side that mentions a variable of
    ``mapping`` replaced by ``rewrite(side, mapping, memo)``, one memo
    for all of them (``rewrite`` is ``substitute`` or ``cofactor``)."""
    memo: dict = {}
    out = []
    for l, r in equations:
        if not l.vars.isdisjoint(mapping):
            l = rewrite(l, mapping, memo)
        if not r.vars.isdisjoint(mapping):
            r = rewrite(r, mapping, memo)
        out.append((l, r))
    return out


def triv_solve(system: BoolSystem) -> tuple[BoolSystem, Assignment]:
    """Apply trivial reductions to a fixpoint.

    One scan over the equations, in order.  A constant equation that
    holds, or a literal equal to itself, is dropped and the scan goes
    on.  A literal equality substitutes one variable by the other
    literal and records the binding; a sum of literals equal to 0 or a
    product equal to 1 (a lone literal against a constant is both)
    fixes its variables.  Either rewrites the other equations, and the
    scan starts over.  Raises Conflict when a reduction is
    contradictory.  The returned partial assignment lists the variables
    fixed by this call; the reduced system's trail already includes
    them.
    """
    equations = list(system.equations)
    open_vars = set(system.vars)
    assigned: dict = {}
    bindings = list(system.bindings)

    i = 0
    while i < len(equations):
        l, r = equations[i]
        if l.kind == CONST and r.kind == CONST:
            if l.value != r.value:
                raise Conflict("constant equation fails")
            del equations[i]
            continue
        lit_l, lit_r = literal_of(l), literal_of(r)
        if lit_l is not None and lit_r is not None:
            (v1, p1), (v2, p2) = lit_l, lit_r
            if v1 == v2:
                if p1 != p2:
                    raise Conflict(f"x{v1} equals its own complement")
                del equations[i]
                continue
            bindings.append((v1, v2, p1 == p2))
            open_vars.discard(v1)
            mapping = {v1: var(v2) if p1 == p2 else not_(var(v2))}
        else:
            for side, other in ((l, r), (r, l)):
                if other.kind != CONST:
                    continue
                lits = flat_literals(side, OR if other.value == 0 else AND)
                if lits is not None:
                    mapping = _forced_dict(lits, other.value)
                    assigned.update(mapping)
                    open_vars.difference_update(mapping)
                    break
            else:
                i += 1
                continue
        del equations[i]
        equations = _rewritten(equations, mapping, substitute)
        i = 0

    made = Assignment(assigned)
    reduced = BoolSystem(
        equations,
        frozenset(open_vars),
        system.trail.merge(made),
        tuple(bindings),
        system.root_vars,
    )
    return reduced, made


# ---------------------------------------------------------------------------
# splitting and decomposition

def choose_split(system: BoolSystem, cfg: SolverConfig) -> OnSet:
    """Chain of positive-literal terms over the most frequent variables.

    Frequency counts syntactic occurrences across all equation sides;
    ties break toward the lowest variable id.
    """
    counts: dict = {}
    for l, r in system.equations:
        for side in (l, r):
            for v, c in var_occurrences(side).items():
                counts[v] = counts.get(v, 0) + c
    candidates = sorted(counts, key=lambda v: (-counts[v], v))
    depth = min(cfg.split_depth, len(candidates))
    if depth == 0:
        raise ValueError("no variables left to split on")
    return term_chain([(v, True) for v in candidates[:depth]])


def _subsystems(system: BoolSystem, terms: OnSet) -> Iterator[BoolSystem]:
    """One subsystem per term of an ON chain, each made when it is asked
    for.

    Each subsystem cofactors every equation by the term's partial
    assignment, shrinks the open variables and extends the trail.  The
    subsystems' solution sets partition the parent's.
    """
    if terms.terms is None:
        raise ValueError("decomposition needs an ON set of terms")
    for t in terms.terms:
        if not set(t.keys()) <= system.vars:
            stray = min(set(t.keys()) - system.vars)
            raise ValueError(f"split variable x{stray} is not open")
        eqs = _rewritten(system.equations, t, cofactor)
        yield BoolSystem(eqs, system.vars.difference(t), system.trail.merge(t),
                         system.bindings, system.root_vars)


def decompose(system: BoolSystem, terms: OnSet) -> list:
    """The subsystems of :func:`_subsystems`, all at once."""
    return list(_subsystems(system, terms))


# ---------------------------------------------------------------------------
# leaves: brute force over the constrained variables

def _local_solutions(system: BoolSystem) -> tuple[list, int]:
    """Satisfying assignments over the occurring variables.

    Returns (order, table): the sorted constrained variables and the
    truth table of the satisfying points over them, MSB-first.
    """
    occ = sorted(system.occurring())
    n = len(occ)
    _check_cap(n)
    full = (1 << (1 << n)) - 1
    mask = full
    memo: dict = {}
    patterns: dict = {}
    for l, r in system.equations:
        mask &= full ^ (
            truth_table(l, occ, memo, patterns)
            ^ truth_table(r, occ, memo, patterns)
        )
        if mask == 0:
            break
    return occ, mask


_BITS = bytes.maketrans(b"01", b"\0\1")


def _low_bits(x: int) -> bytes:
    """The bits of x below its top bit, lowest first, one byte each."""
    return bin(x)[:2:-1].encode().translate(_BITS)


class _Lifter:
    """Lifts leaf cubes to cubes over a system's variables.

    Assignments are bitmasks: variable ``ids[j]`` is bit ``1 << j``, and
    ``cbit``, above all of them, stands for the constant 1.  ``known``
    holds the fixed bits and ``ones`` those fixed to 1.  A binding
    (pivot, rest) reads pivot = rest, rest being variable bits plus
    ``cbit`` for the constant; a literal equality v1 = v2 (or ~v2) is
    the binding of one variable.  ``known``, ``ones`` and ``bindings``
    start as the system's trail and literal-equality bindings.  A leaf's
    cubes come from :func:`boolalg._cubes` over its bits, so no table
    index is decoded here.
    """

    def __init__(self, system: BoolSystem):
        self.ids = sorted(
            system.root_vars | system.vars | set(system.trail.keys())
            | {v for b in system.bindings for v in b[:2]}
        )
        self.bit = bit = {v: 1 << i for i, v in enumerate(self.ids)}
        self.cbit = cbit = 1 << len(self.ids)
        self.known = self.ones = 0
        for v, b in system.trail.items():
            self.known |= bit[v]
            if b:
                self.ones |= bit[v]
        self.bindings = tuple(
            (bit[v1], bit[v2] | (0 if same_pol else cbit))
            for v1, v2, same_pol in system.bindings
        )

    def leaf(self, order, table, known: int, ones: int, bindings) -> Iterator[dict]:
        """Lift each Shannon cube of a leaf table (:func:`boolalg._cubes`).

        ``order`` lists the bits, most significant point bit first, and
        ``table`` is an int mask or the sorted tuple of the indices of a
        few-point leaf (:meth:`anf.Index.zero_table`).  A
        cube's bits are known, its 1 bits ones; a bit it leaves free
        stays free unless a binding mentions it, and then ``lift``
        splits it, so the lifted cubes stay disjoint.
        """
        for cube in _cubes(table, order, {}):
            point = sum(b for b, x in cube.items() if x)
            yield from self.lift(known | sum(cube), ones | point, bindings)

    def lift(self, known: int, ones: int, bindings) -> Iterator[dict]:
        """Solve the bindings in reverse, depth first.

        A bit on the right of a binding that is neither fixed nor bound
        gets both values, 0 first.  Each result is a cube, the dict of
        the fixed values, keyed in id order; variables that nothing
        fixes are don't-cares.  The stack holds one pending branch per
        split bit.
        """
        ids, cbit = self.ids, self.cbit
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
            # the fixed ids and their values, picked out lowest bit first
            fixed = _low_bits(known)
            yield dict(zip(compress(ids, fixed), compress(_low_bits(ones), fixed)))


def _tree_leaf(system: BoolSystem) -> Iterator[dict]:
    """A leaf's cubes; each cube of its table is lifted when it is reached."""
    occ, table = _local_solutions(system)
    lifter = _Lifter(system)
    order = [lifter.bit[v] for v in occ]
    return lifter.leaf(order, table, lifter.known, lifter.ones, lifter.bindings)


def _outcome(cubes, universe) -> SolveOutcome:
    """The list form of a cube stream: one Solution per cube, in order,
    and SAT if there is one.  The variables of ``universe`` that a cube
    leaves out are its don't-cares."""
    universe = frozenset(universe)
    solutions = [Solution.make(cube, universe.difference(cube)) for cube in cubes]
    return SolveOutcome(SAT if solutions else UNSAT, solutions)


def brute_force(system: BoolSystem) -> SolveOutcome:
    """Exhaustive search over the constrained variables of a system.

    One leaf: its table's Shannon cubes, lifted through the system's
    trail and bindings.  Variables that no equation mentions, or that a
    cube leaves free and no binding mentions, are its don't-cares.
    Intended for systems at or below the n0 threshold; more constrained
    variables than the enumeration cap allows raise TooManyVariables
    before any table is built.
    """
    return _outcome(_tree_leaf(system), system.root_vars)


# ---------------------------------------------------------------------------
# the search driver and its system backends

def _search(backend, root, decide: bool) -> Iterator[dict]:
    """The leaves' cubes, depth first, left to right.

    The backend owns the nodes.  ``visit(node)`` returns (children,
    cubes): a split an iterator over its child nodes in chain order,
    each made only when the walk reaches it and a conflicted one not at
    all, with no cubes; a leaf None and its cubes; a conflict None and
    no cubes.  The stack holds one such iterator per open split, so
    memory is bounded by the depth of the tree.  Decide mode stops
    after the first cube.
    """
    stack = [iter((root,))]
    while stack:
        for node in stack[-1]:
            children, cubes = backend.visit(node)
            for cube in cubes:
                yield cube
                if decide:
                    return
            if children is not None:
                stack.append(children)
                break
        else:
            stack.pop()


class _TreeSearch:
    """Nodes are expression-tree BoolSystems: trivial reductions, then a
    leaf or the children of the split chain, each cofactored from the
    node when the walk reaches it (:func:`_subsystems`)."""

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg

    def visit(self, node: BoolSystem) -> tuple:
        try:
            node = triv_solve(node)[0]
        except Conflict:
            return None, ()
        if len(node.occurring()) <= self.cfg.n0:
            return None, _tree_leaf(node)
        return _subsystems(node, choose_split(node, self.cfg)), ()


class _AnfSearch:
    """Nodes over the ANF of the root equations.

    Variables map to bits as in :class:`_Lifter`, and monomials to bits
    of the solve's :class:`anf.Index`: every polynomial is the int mask
    of its monomials, converted once at the root.  A node is
    (equations, known, ones, bindings): the polynomials that must be 0,
    the bits fixed by the trail and by splits and those fixed to 1, and
    the affine bindings in the order they were made, starting with the
    root's literal equalities.  A split's children come from one
    generator, :meth:`_children`, that cofactors one chain bit at a
    time, as the walk reaches each child.  A node over at most n0 bits
    is brute-forced as it stands; only a larger one is eliminated, since
    its leaf table costs less than elimination.  After elimination a
    node is a leaf when the bits that its equations do not define
    number at most n0 and its reduced table is empty or small (see
    :meth:`visit`).  A node whose elimination outgrows ``anf.BUDGET``
    keeps its equations and bindings from before it: cofactoring never
    grows a polynomial, so its children stay within the budget.
    ``patterns`` holds the leaves' variable patterns per table size for
    this solve only (see :meth:`anf.Index.zero_table`), so it goes with
    the search, as the index does.  Every root converts through
    :meth:`_SystemFile.polynomials`, which raises OverBudget when it is
    not converted; a root that :func:`parse_system` did not read goes
    in as a source of parsed lines only.
    """

    def __init__(self, system: BoolSystem, cfg: SolverConfig):
        self.cfg = cfg
        self.lifter = lifter = _Lifter(system)
        source = system.source
        if source is None:
            source = _SystemFile(None, [(l, r, None) for l, r in system.equations], 0, ())
        self.index = index = anf.Index()
        self.root = (source.polynomials(lifter.bit, index), lifter.known, lifter.ones,
                     lifter.bindings)
        self.patterns: dict = {}

    def visit(self, node) -> tuple:
        """A leaf table when the node's bits that no equation defines
        number at most n0; else a split.

        A node over at most n0 bits is a leaf as it stands, with no
        elimination.  A larger one is eliminated, and then, if all its
        bits fit under the enumeration cap, picks its definitions once
        (:meth:`anf.Index._definitions`): with at most n0 bits left
        undefined, the reduced table over them decides.  No point
        refutes the node, at most ``anf.SCATTER`` points make it a leaf,
        and more make it split, so that no full pass runs over more than
        n0 bits.  A leaf may still hold affine equations.  Its solutions
        are those that elimination or splitting would give; only their
        cubes differ, since they come as the Shannon cubes of its table.
        """
        eqs, known, ones, bindings = node
        index = self.index
        n0 = self.cfg.n0
        occ = index.occurring(eqs)
        if occ.bit_count() > n0:
            try:
                eqs, bindings = self._eliminate(eqs, bindings)
                occ = index.occurring(eqs)
            except Conflict:
                return None, ()
            except anf.OverBudget:
                pass  # the node goes on as it stands
        width = occ.bit_count()
        if width <= n0 or 1 << width <= DEFAULT_CAP:
            pick = index._definitions(eqs, width - n0)
            if pick is not None:
                order = anf.bits_of(occ)
                table = index.zero_table(eqs, order, self.patterns, pick, width <= n0)
                if table is not None:
                    return None, self.lifter.leaf(order, table, known, ones, bindings)
        return self._children(self._chain(eqs), eqs, known, ones, bindings), ()

    def _children(self, chosen, eqs, known, ones, bindings) -> Iterator[tuple]:
        """The children of the chain over the chosen bits, in term order.

        Child i sets the first i bits to 1 and the next one to 0; the
        last sets all of them to 1.  The generator holds the prefix
        (the first i bits set to 1) and moves it forward one bit per
        child, so each bit is cofactored once each way.
        """
        cofactor = self.index.cofactor
        for b in chosen:
            yield cofactor(eqs, b, 0), known | b, ones, bindings
            eqs = cofactor(eqs, b, 1)
            known |= b
            ones |= b
        yield eqs, known, ones, bindings

    def _eliminate(self, eqs, bindings) -> tuple:
        """Eliminate the affine equations to a fixpoint.

        Gauss-Jordan turns them into bindings, which are substituted
        into the rest; that may leave more equations affine.  An
        inconsistent affine system (1 = 0 included) is a Conflict.
        """
        index = self.index
        cbit = self.lifter.cbit
        while True:
            affine, others = [], []
            for e in eqs:
                if e:
                    (others if e & index.nonlinear else affine).append(e)
            if not affine:
                return eqs, bindings
            pivots = anf.gauss_jordan([index.row(e, cbit) for e in affine], cbit)
            if pivots is None:
                raise Conflict("inconsistent affine equations")
            for p, row in pivots:
                rest = row ^ p
                others = [index.substitute(e, p, rest, cbit) for e in others]
                bindings += ((p, rest),)
            eqs = others

    def _chain(self, eqs) -> list:
        """The split bits: the most frequent ones, most frequent first.

        Frequency is the number of monomials a bit occurs in, summed
        over the equations (:meth:`anf.Index.frequencies`); ties break
        toward the lowest variable id.
        """
        counts = self.index.frequencies(eqs)
        return sorted(counts, key=lambda b: (-counts[b], b))[: self.cfg.split_depth]


def leaf_blocks(system: BoolSystem, cfg: Optional[SolverConfig] = None) -> Iterator[dict]:
    """The solutions of a system as cubes, one leaf at a time.

    Cubes are as in :func:`onsat.cnf.leaf_blocks`: dicts of fixed
    values, the root variables a cube leaves out being its don't-cares;
    in enumerate mode no two share a point.  A system whose
    polynomials are no larger than its expressions is searched in ANF,
    any other on the expression trees.  Memory is bounded by
    the depth of the tree, not by the number of solutions.
    """
    if cfg is None:
        cfg = SolverConfig()
    try:
        backend = _AnfSearch(system, cfg)
        root = backend.root
    except anf.OverBudget:
        backend, root = _TreeSearch(cfg), system
    return _search(backend, root, cfg.mode == DECIDE)


def bool_solve(system: BoolSystem, cfg: Optional[SolverConfig] = None) -> SolveOutcome:
    """Solve a Boolean system by orthonormal-term decomposition.

    The list form of :func:`leaf_blocks`: decide mode gives the first
    witness, enumerate mode the complete, duplicate-free solution set,
    compressed with don't-care lists.
    """
    return _outcome(leaf_blocks(system, cfg), system.root_vars)


# ---------------------------------------------------------------------------
# system file format

class _SystemFile:
    """The equations of a system file as :func:`parse_system` read them.

    ``lines`` holds one entry per equation, in file order: a direct
    line's (lhs text, rhs text, polynomial), its monomials being
    bitmasks over variable ids (id v is bit ``1 << v``), or any other
    line's parsed (lhs, rhs, None).  ``nodes`` counts the expression
    nodes that the direct lines' sums of products would parse into: k
    names make 2k - 1, one per name and one per ``&`` or ``^``, since
    parsed names are never shared and nothing folds.  ``constants``
    holds the values of the constant sides, each one shared node
    (:func:`boolalg.const`) however many lines it stands on.
    """

    __slots__ = ("table", "lines", "nodes", "constants")

    def __init__(self, table: VarTable, lines: list, nodes: int, constants: set):
        self.table = table
        self.lines = lines
        self.nodes = nodes
        self.constants = constants

    def equations(self) -> tuple:
        """The (lhs, rhs) expressions; a direct line's are parsed from
        its text against the table, where every name already has its id."""
        table = self.table
        return tuple(
            (l, r) if e is None else (parse_expr(l, table), parse_expr(r, table))
            for l, r, e in self.lines
        )

    def polynomials(self, bit: dict, index: anf.Index) -> tuple:
        """The polynomials ``l ^ r`` of the equations as masks of
        ``index``, a direct line's as it was read and a parsed line's by
        :func:`anf.from_expr`.  Raises OverBudget when they hold more
        monomials than the expressions have distinct nodes, a direct
        line's node count standing in for its DAG nodes."""
        memo = {id(const(c)): index.mask((0,)) if c else 0 for c in self.constants}
        moved = any(b != 1 << v for v, b in bit.items())
        eqs = []
        for l, r, e in self.lines:
            if e is None:
                e = anf.from_expr(l, bit, index, memo) ^ anf.from_expr(r, bit, index, memo)
            else:
                if moved:
                    e = [sum(bit[v] for v in _indices(m)) for m in e]
                e = index.mask(e)
            eqs.append(e)
        size = sum(map(int.bit_count, eqs))
        nodes = len(memo) + self.nodes
        if size > nodes:
            raise anf.OverBudget(f"{size} monomials from {nodes} expression nodes")
        return tuple(eqs)


def _products(side: str, known: dict) -> Optional[list]:
    """The products of a direct side, each a list of its factors' texts
    (``0`` is no product, ``1`` the empty one), or None for any other side.

    A side is direct when it is a lone ``0`` or ``1``, or names joined
    by ``&`` and ``^`` in at most ``anf.BUDGET`` products, each name
    one the tokenizer cuts whole (:func:`boolalg._is_name`).  ``known``
    holds the factor texts already read, which are not checked again.
    """
    constant = side.strip()
    if constant == "0" or constant == "1":
        return [[]] * int(constant)
    products = [term.split("&") for term in side.split("^")]
    if len(products) > anf.BUDGET:
        return None
    for factors in products:
        for f in factors:
            if f not in known and not _is_name(f.strip()):
                return None
    return products


def parse_system(text: str):
    """Parse the one-equation-per-line system format.

    Lines hold ``<expr> = <expr>`` in the expression grammar; ``#``
    starts a comment; an optional ``vars: a, b, c`` header declares
    variables beyond those mentioned.  Returns (system, table).

    A direct line, whose sides are each a lone ``0`` or ``1`` or an XOR
    (``^``) of products (``&``) of names, is read straight into its
    GF(2) polynomial, ``x & x`` being ``x`` and a repeated monomial
    cancelling; its names are interned left to right once the whole
    line is known to be direct.  Every other line (parentheses, ``~``,
    ``'``, ``|``, a constant inside a sum, more than ``anf.BUDGET``
    products on a side, anything malformed) goes through the expression
    parser.  The root universe, the names' ids and every ParseError are
    those of parsing each line as an expression.  The root's equations
    are built on first read (:class:`BoolSystem`).
    """
    table = VarTable()
    intern = table.intern
    lines: list = []
    universe: set = set()
    known: dict = {}  # a direct line's factor text -> the bit of its name
    mentioned = 0  # the direct lines' variables, id v as bit 1 << v
    nodes = 0
    constants: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("vars:"):
            for name in line[5:].replace(",", " ").split():
                if not _is_name(name):
                    raise ParseError(f"bad variable name {name!r}", lineno)
                universe.add(intern(name))
            continue
        if "=" not in line:
            raise ParseError("expected '<expr> = <expr>'", lineno)
        lhs, _, rhs = line.partition("=")
        sides = (_products(lhs, known), _products(rhs, known))
        if sides[0] is None or sides[1] is None:
            l, r = parse_expr(lhs, table, lineno), parse_expr(rhs, table, lineno)
            universe |= l.vars | r.vars
            lines.append((l, r, None))
            continue
        e: set = set()
        for products in sides:
            if products and products[0]:
                nodes += 2 * sum(map(len, products)) - 1
            else:
                constants.add(len(products))
            for factors in products:
                m = 0
                for f in factors:
                    b = known.get(f)
                    if b is None:
                        b = known[f] = 1 << intern(f.strip())
                    m |= b
                e ^= {m}
                mentioned |= m
        lines.append((lhs, rhs, frozenset(e)))
    universe.update(_indices(mentioned))
    source = _SystemFile(table, lines, nodes, constants)
    return BoolSystem(None, universe, Assignment(), (), universe, source), table
