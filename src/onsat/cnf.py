"""CNF satisfiability as a specialization of the system solver.

Clauses are frozensets of signed literals in the DIMACS convention:
literal ``+k`` is variable id k-1 true, ``-k`` is it false.  The solver
is the classic unit/pure/split loop, except that splitting uses an
orthonormal chain of terms over several literals at once; with
split_depth=1 the chain degenerates to the usual two-way branch.

Pure literals behave differently per mode.  In decide mode they are
assigned true one at a time (ascending variable id, skipping any whose
variable disappears along the way), which is satisfiability-preserving.
In enumerate mode fixing pures would lose solutions, so a node with
more than n0 occurring variables branches over the full pure-literal
chain instead; at n0 or fewer the node is a leaf, pures or not.

The split chain takes the variables of highest score.  In enumerate
mode the score is the variable's number of occurrences p + q.  In
decide mode it is p + q + 2b, b being the binary clauses that hold the
variable: it favours the variables that leave units behind, and cut the
splits on threshold 3-SAT by a third and more.  Enumerate keeps the
plain count, since the weighted one printed more cubes there.  Either
way the literal takes the polarity of its larger count, p or q.

The clause-level functions (``assign_and_reduce``, ``propagate_units``,
``assign_pure_round``, ``pure_literal_chain``, ``decompose_cnf``,
``choose_split_cnf``) state that loop one step at a time on clause
copies.  ``leaf_blocks`` walks the same tree, node for node, without
copying: one assignment trail whose clause state is a few bitsets over
clause indices (the clauses each literal occurs in, the satisfied
clauses, and the clauses by number of free literals).  Assigning a
literal is a few big-integer operations that also expose the units and
conflicts.  The chain's terms share their prefixes, so a split's
children come from one loop over its chain literals: each saves the
propagated prefix, hands out the child that takes its complement, and
moves the prefix forward by itself.  A literal's count of unsatisfied
clauses is the population count of its occurrences minus the satisfied
ones, which gives the pure literals, the occurring variables and the
split frequencies without rescanning the clauses; ANDed with the
clauses that have two free literals, it gives the binary counts.  The
trail is a backend of the search driver that the system path uses too
(:func:`onsat.solver._search`), serial and depth-first, so the output
is the same on every run.  It hands out one leaf's solutions at a time,
so a caller that prints them needs memory for the depth of the tree
only; ``solve_sat`` collects them in a list.  A leaf brute-forces its
unsatisfied clauses on truth tables whose variable patterns are built
once per solve and leaf size, and hands out cubes, dicts of fixed
values: its table goes out as the disjoint cubes of its Shannon
expansion, the paper's sum over the ON set {x', x} of each occurring
variable in turn, most constrained first, so a variable the leaf's
points do not depend on stays free in the cube (seed-7 cnf-enumerate:
12,718 lines, against 16,113 in ascending order).  Both modes share
that rule; decide mode stops at the first cube.
"""

from __future__ import annotations

import itertools
import warnings
from operator import neg
from typing import Iterable, Iterator, Optional, Sequence

from .boolalg import (
    Assignment,
    BoolAlgError,
    ParseError,
    _check_cap,
    _cubes,
    _indices,
    _var_patterns,
    const,
    not_,
    or_all,
    var,
)
from .onset import OnSet, term_chain
from .solver import (
    Conflict,
    DECIDE,
    BoolSystem,
    SolveOutcome,
    SolverConfig,
    _outcome,
    _search,
)


class NoPureLiterals(BoolAlgError):
    """A pure-literal chain was requested but no literal is pure."""


class HeaderMismatch(Warning):
    """DIMACS header counts disagree with the literal content."""


def _check_clause(lits: Sequence[int], line: Optional[int]) -> frozenset:
    clause = frozenset(lits)
    for l in clause:
        if l == 0:
            raise ParseError("literal 0 inside a clause", line)
        if -l in clause:
            raise ParseError(
                f"variable {abs(l)} appears with both polarities in one clause",
                line,
            )
    return clause


class CnfSet:
    """An ordered list of clauses over variables 0..num_vars-1."""

    __slots__ = ("clauses", "num_vars")

    def __init__(self, clauses: Sequence[frozenset], num_vars: int):
        self.clauses = tuple(clauses)
        self.num_vars = int(num_vars)

    @classmethod
    def from_clauses(
        cls, clauses: Sequence[Sequence[int]], num_vars: Optional[int] = None
    ) -> "CnfSet":
        """Build from DIMACS-style signed literal lists."""
        built = [_check_clause(c, None) for c in clauses]
        top = max((abs(l) for c in built for l in c), default=0)
        return cls(built, num_vars if num_vars is not None else top)

    def occurring(self) -> frozenset:
        return frozenset(abs(l) - 1 for c in self.clauses for l in c)

    @property
    def vars(self) -> frozenset:
        return frozenset(range(self.num_vars))

    def __len__(self) -> int:
        return len(self.clauses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CnfSet):
            return NotImplemented
        return self.clauses == other.clauses and self.num_vars == other.num_vars

    def __repr__(self) -> str:
        return f"CnfSet({len(self.clauses)} clauses, {self.num_vars} vars)"


# ---------------------------------------------------------------------------
# DIMACS input and output

def _ascii_int(tok: str, base: int = 10) -> int:
    """int() of a token, refusing the digit separators (``1_0``) and the
    non-ASCII digits that int() accepts."""
    if not tok.isascii() or "_" in tok:
        raise ValueError(f"not a plain ASCII number: {tok!r}")
    return int(tok, base)


def parse_dimacs(text: str, strict: bool = False) -> CnfSet:
    """Parse DIMACS CNF.  Header mismatches warn unless strict; a
    negative header count is a bad problem line either way.

    Header counts and literals are ASCII digits with an optional sign, a
    leading ``+`` included.  A digit separator (``1_0``) or a non-ASCII
    digit is a bad problem line or a non-integer literal.  Only a text
    that holds one of them at all has its numbers checked one by one.
    """
    number = int if text.isascii() and "_" not in text else _ascii_int
    declared_vars = None
    declared_clauses = None
    clauses = []
    pending: list = []
    pending_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        head = fields[0][0] if fields else "c"  # a blank line is skipped
        if head == "c":
            continue
        if head == "%":
            break
        if head == "p":
            line = raw.strip()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"bad problem line {line!r}", lineno)
            try:
                declared_vars, declared_clauses = map(number, fields[2:])
            except ValueError:
                declared_vars = declared_clauses = -1
            if declared_vars < 0 or declared_clauses < 0:
                raise ParseError(f"bad problem line {line!r}", lineno)
            continue
        if not pending and fields[-1] == "0":  # the usual line: one clause
            try:
                clause = frozenset(map(number, fields[:-1]))
            except ValueError:
                pass
            else:
                # -0 is 0: no complement also means no 0 inside
                if clause.isdisjoint(map(neg, clause)):
                    clauses.append(clause)
                    continue
        # any other line, or one to word an error for, token by token
        for tok in fields:
            try:
                lit = number(tok)
            except ValueError:
                raise ParseError(f"non-integer literal {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(_check_clause(pending, pending_line or lineno))
                pending = []
                pending_line = None
            else:
                if pending_line is None:
                    pending_line = lineno
                pending.append(lit)
    if pending:
        raise ParseError("last clause is not terminated by 0", pending_line)
    top = max(map(abs, itertools.chain.from_iterable(clauses)), default=0)
    num_vars = top if declared_vars is None else max(declared_vars, top)
    problems = []
    if declared_vars is not None and top > declared_vars:
        problems.append(
            f"header declares {declared_vars} variables but {top} are used"
        )
    if declared_clauses is not None and declared_clauses != len(clauses):
        problems.append(
            f"header declares {declared_clauses} clauses but {len(clauses)} found"
        )
    for message in problems:
        if strict:
            raise ParseError(message)
        warnings.warn(message, HeaderMismatch, stacklevel=2)
    return CnfSet(clauses, num_vars)


def emit_dimacs(c: CnfSet) -> str:
    """Serialize to DIMACS, clause order preserved."""
    lines = [f"p cnf {c.num_vars} {len(c.clauses)}"]
    for clause in c.clauses:
        lits = sorted(clause, key=lambda l: (abs(l), l))
        lines.append(" ".join(str(l) for l in lits + [0]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reductions

def assign_and_reduce(c: CnfSet, p) -> CnfSet:
    """Apply a partial assignment: drop satisfied clauses, shrink others.

    Raises Conflict as soon as a clause loses all its literals.  This is
    the clause-level counterpart of cofactoring.
    """
    if isinstance(p, Assignment):
        p = p.as_dict()
    out = []
    for clause in c.clauses:
        satisfied = False
        kept = []
        for lit in clause:
            v = abs(lit) - 1
            b = p.get(v)
            if b is None:
                kept.append(lit)
            elif (lit > 0) == bool(b):
                satisfied = True
                break
        if satisfied:
            continue
        if not kept:
            raise Conflict("empty clause")
        out.append(frozenset(kept))
    return CnfSet(out, c.num_vars)


def unit_literals(c: CnfSet) -> list:
    return [next(iter(clause)) for clause in c.clauses if len(clause) == 1]


def propagate_units(c: CnfSet) -> tuple[CnfSet, Assignment]:
    """Assign every unit clause's literal true, to a fixpoint."""
    assigned: dict = {}
    while True:
        if any(len(clause) == 0 for clause in c.clauses):
            raise Conflict("empty clause")
        units = unit_literals(c)
        if not units:
            break
        step: dict = {}
        for lit in units:
            v = abs(lit) - 1
            b = 1 if lit > 0 else 0
            if step.setdefault(v, b) != b or assigned.get(v, b) != b:
                raise Conflict(f"contradictory unit clauses on variable {v + 1}")
        assigned.update(step)
        c = assign_and_reduce(c, step)
    return c, Assignment(assigned)


def find_pure_literals(c: CnfSet) -> list:
    """Variables occurring with a single polarity, as (id, polarity)."""
    seen: dict = {}
    for clause in c.clauses:
        for lit in clause:
            v = abs(lit) - 1
            pol = lit > 0
            prev = seen.get(v)
            if prev is None:
                seen[v] = pol
            elif prev != pol:
                seen[v] = "mixed"
    return [(v, pol) for v, pol in sorted(seen.items()) if pol != "mixed"]


def assign_pure_round(c: CnfSet) -> tuple[CnfSet, Assignment]:
    """One round of pure-literal assignments, lowest variable first.

    The pures detected at the start of the round are assigned true in
    their polarity one at a time; a literal whose variable no longer
    occurs by the time its turn comes is skipped (its clauses are
    already gone, so the variable stays free).  Pure assignments never
    shrink a clause, so no conflict can arise here.
    """
    assigned: dict = {}
    for v, pol in find_pure_literals(c):
        if v not in c.occurring():
            continue
        assigned[v] = 1 if pol else 0
        c = assign_and_reduce(c, {v: assigned[v]})
    return c, Assignment(assigned)


def pure_literal_chain(c: CnfSet) -> OnSet:
    """The ON term chain over the pure literals, in their polarity.

    Satisfiability is decided by the last term alone (all pures true);
    enumerating all solutions requires every branch of the chain.
    """
    pures = find_pure_literals(c)
    if not pures:
        raise NoPureLiterals("the clause set has no pure literal")
    return term_chain(pures)


def decompose_cnf(c: CnfSet, terms: OnSet) -> list:
    """Reduce by each term of an ON chain; None marks a conflicted branch."""
    if terms.terms is None:
        raise ValueError("decomposition needs an ON set of terms")
    out = []
    for t in terms.terms:
        try:
            out.append(assign_and_reduce(c, t))
        except Conflict:
            out.append(None)
    return out


def choose_split_cnf(c: CnfSet, cfg: SolverConfig) -> OnSet:
    """Term chain over the highest-scoring variables, polarity by count.

    A variable's score is its number of occurrences p + q (p positive,
    q negative).  In decide mode each occurrence in a binary clause
    counts three times, p + q + 2b with b the binary clauses that hold
    v, which favours the variables whose assignment makes units (the
    short-clause weighting of Jeroslow-Wang and MOMS).  Enumerate mode
    keeps the plain count.  The chain takes the split_depth highest
    scores, lowest id first among equals, each literal in the polarity
    of its larger count p or q (positive on a tie).
    """
    weight = 2 if cfg.mode == DECIDE else 0
    pos: dict = {}
    neg: dict = {}
    totals: dict = {}
    for clause in c.clauses:
        score = 1 + weight if len(clause) == 2 else 1
        for lit in clause:
            v = abs(lit) - 1
            if lit > 0:
                pos[v] = pos.get(v, 0) + 1
            else:
                neg[v] = neg.get(v, 0) + 1
            totals[v] = totals.get(v, 0) + score
    ranked = sorted(totals, key=lambda v: (-totals[v], v))
    depth = min(cfg.split_depth, len(ranked))
    if depth == 0:
        raise ValueError("no variables left to split on")
    lits = [(v, pos.get(v, 0) >= neg.get(v, 0)) for v in ranked[:depth]]
    return term_chain(lits)


# ---------------------------------------------------------------------------
# the SAT engine

def _brute_mask(clauses, occ: list, patterns: dict) -> int:
    """The satisfying points over occ, as a truth-table bitmask.

    Bit idx is set when the point whose i-th variable takes bit
    ``n - 1 - i`` of idx satisfies every clause.  A literal whose
    variable is not in occ is skipped, so a leaf can pass its
    unsatisfied clauses as they are: their assigned literals are false.
    ``patterns`` is the solve's pattern table (see
    :func:`onsat.boolalg._var_patterns`), shared by every leaf.
    """
    n = len(occ)
    full = (1 << (1 << n)) - 1
    true = {}  # by literal of an occ variable: the points where it is true
    for v, p in zip(occ, _var_patterns(patterns, n)):
        true[v + 1] = p
        true[-v - 1] = full ^ p
    mask = full
    for clause in clauses:
        sat = 0  # the points where some literal is true
        for lit in clause:
            t = true.get(lit)
            if t is not None:
                sat |= t
        mask &= sat
        if not mask:
            break
    return mask


def _leaf_solutions(engine: "_Engine", occurring: list) -> Iterable[dict]:
    """A leaf's solutions as cubes, dicts of fixed values.

    The fixed values are the root's units plus the trail's literals.
    The mask holds the points over the occurring variables that satisfy
    the unsatisfied clauses, read from the trail's ``sat`` bitset, and
    goes out as the disjoint cubes of its Shannon expansion
    (:func:`onsat.boolalg._cubes`) over the variables ordered by their
    count of unsatisfied clauses, most first, lowest id first among
    equals: the later variables are then more often free.  On seed-7
    cnf-enumerate that prints 12,718 lines where ascending order prints
    16,113, for the same 59,909 points.  With no occurring variable
    every clause is satisfied already, since an unsatisfied clause
    without a free literal is a conflict, which the trail reports; the
    mask is then 1 and its one cube is the fixed values.  The cubes go
    on top of the fixed values, with the trail's dense ids mapped back
    through ``pairs``; decide mode reads the first.
    """
    t = engine.trail
    pairs = engine.pairs
    fixed = dict(engine.fixed)
    fixed.update(map(pairs.__getitem__, t.trail))
    occ, live = t.occ, ~t.sat  # a stable sort keeps ties in ascending order
    occurring.sort(key=lambda v: ((occ[v] | occ[-v]) & live).bit_count(),
                   reverse=True)
    clauses = t.clauses
    unsat = (clauses[ci] for ci in _indices(engine.every ^ t.sat))
    mask = _brute_mask(unsat, [v - 1 for v in occurring], engine.patterns)
    return _cubes(mask, [pairs[v][0] for v in occurring], fixed)


class _Trail:
    """One assignment trail over a fixed clause list, with saved states.

    The clause state is a handful of Python ints used as bitsets over
    clause indices; per-literal lists of length 2n+1 are indexed by the
    DIMACS literal itself (+k at index k, -k at index -k):

    * ``occ[l]``: the clauses that contain literal l (fixed);
    * ``sat``: the clauses that some assigned literal satisfies;
    * ``free[k]``: the clauses with exactly k unassigned literals, read
      only where a clause is unsatisfied (a satisfied clause stays in
      the class it had when it was satisfied);
    * ``known``: bit v set when variable v is assigned.

    So ``free[0] & ~sat`` are the conflicts, ``free[1] & ~sat`` the
    units, and a free literal's count of unsatisfied clauses, which gives
    the pure literals, the occurring variables and the split
    frequencies, is ``(occ[l] & ~sat).bit_count()``.  ``free`` is one
    live list that assignments edit in place; ``snapshot`` copies the
    state into a tuple and ``restore`` puts such a copy back, so going
    back to a saved node replays nothing.
    """

    __slots__ = ("n", "clauses", "occ", "sat", "free", "known", "trail")

    def __init__(self, clauses, n: int):
        self.n = n
        self.clauses = [list(c) for c in clauses]
        self.occ = [0] * (2 * n + 1)
        # at least the conflict and unit classes, even with no clause
        free = [0] * max(2, max(map(len, self.clauses), default=0) + 1)
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                self.occ[lit] |= 1 << ci
            free[len(clause)] |= 1 << ci
        self.free = free
        self.sat = 0
        self.known = 0
        self.trail: list = []

    def assign(self, lit: int) -> bool:
        """Make lit true; False when some clause lost its last literal,
        or when lit's variable is set already and lit is false."""
        if self.known >> abs(lit) & 1:
            return lit in self.trail
        self.trail.append(lit)
        self.known |= 1 << abs(lit)
        sat = self.sat | self.occ[lit]
        self.sat = sat
        shrunk = self.occ[-lit] & ~sat
        if not shrunk:
            return True
        free = self.free
        for k in range(1, len(free)):  # each shrunk clause moves down a class
            moved = free[k] & shrunk
            if moved:
                free[k] ^= moved
                free[k - 1] |= moved
        return not free[0] & shrunk

    def snapshot(self) -> tuple:
        """The state to come back to: (sat, free, known, trail length).

        ``free`` is copied, since assignments edit the live list.
        """
        return self.sat, tuple(self.free), self.known, len(self.trail)

    def restore(self, state: tuple) -> None:
        """Go back to a state from :meth:`snapshot` taken on this trail."""
        self.sat, free, self.known, mark = state
        self.free[:] = free
        del self.trail[mark:]

    def propagate(self) -> bool:
        """Assign unit literals to a fixpoint; False on a conflict.

        Each pass assigns every current unit clause, highest index
        first, skipping one that an earlier unit of the pass satisfied.
        """
        clauses, free = self.clauses, self.free
        while True:
            units = free[1] & ~self.sat
            if not units:
                return True
            while units:
                ci = units.bit_length() - 1
                units ^= 1 << ci
                if self.sat >> ci & 1:
                    continue
                known = self.known
                for lit in clauses[ci]:
                    if not known >> abs(lit) & 1:
                        break
                if not self.assign(lit):
                    return False

    def scan(self) -> tuple[list, list]:
        """Pure literals and occurring variables, ascending by variable."""
        occ, known, unsat = self.occ, self.known, ~self.sat
        pures, occurring = [], []
        for v in range(1, self.n + 1):
            if known >> v & 1:
                continue
            p, q = occ[v] & unsat, occ[-v] & unsat
            if p or q:
                occurring.append(v)
                if not q:
                    pures.append(v)
                elif not p:
                    pures.append(-v)
        return pures, occurring


class _Engine:
    """The CNF backend of the search driver: one trail for every node.

    Each node propagates units to a fixpoint, in decide mode assigns the
    pure literals round by round, then brute-forces the occurring
    variables if there are at most n0 of them.  Above n0 it branches,
    in enumerate mode on the pure-literal chain if a literal is pure,
    else on the chain over the split_depth variables of highest score,
    as :func:`choose_split_cnf` ranks them: p + q + 2b in decide mode,
    with b the variable's unsatisfied clauses among ``free[2]``, and
    p + q in enumerate mode.  A leaf is one :func:`_leaf_solutions`
    call.  ``patterns`` holds the brute force's variable patterns per
    leaf size for this solve only, and ``pairs`` the (variable, value)
    of each literal, so both go with the engine.  A node is the trail
    itself.

    The trail numbers the occurring variables 1..k densely, in the
    order of their ids, so its bitsets, lists and scans grow with k and
    not with the highest id, and every ranking and tie comes out as on
    the ids themselves.  ``pairs`` maps a dense literal back to the
    clause set's variable.  When the ids are 1..k already, no clause is
    rewritten.

    The chain over l1..lr has the terms -l1, l1 -l2, ..., l1..l(r-1)
    -lr and l1..lr, so consecutive terms share their prefixes.  A
    split's children come from one generator, :meth:`_children`, that
    holds the propagated state of one prefix, starting from the node's
    own state, and moves it forward one literal per child: child i is
    the prefix l1..li plus -l(i+1), or the prefix itself for the last
    term.  Unit propagation reaches the same fixpoint, or a conflict,
    in any order, so every child is the same node as when its whole
    term is assigned at once; only the prefix is propagated once for
    all the children that share it.
    """

    def __init__(self, c: CnfSet, fixed: dict, cfg: SolverConfig):
        # c holds no empty clause, so every conflict on the trail is
        # reported by the assignment that makes it
        clauses = c.clauses
        ids = sorted(set(map(abs, itertools.chain.from_iterable(clauses))))
        if ids and ids[-1] != len(ids):  # renumber densely, in id order
            dense = dict(zip(ids, range(1, len(ids) + 1)))
            clauses = [[dense[l] if l > 0 else -dense[-l] for l in clause]
                       for clause in clauses]
        self.trail = _Trail(clauses, len(ids))
        self.fixed = fixed
        self.cfg = cfg
        self.decide = cfg.mode == DECIDE
        self.patterns: dict = {}  # _brute_mask's table, for this solve only
        # by dense literal: the clause set's (variable, value)
        self.pairs: list = [None] * (2 * len(ids) + 1)
        for v, k in enumerate(ids, 1):
            self.pairs[v], self.pairs[-v] = (k - 1, 1), (k - 1, 0)
        self.every = (1 << len(c.clauses)) - 1  # the sat bits of all clauses

    def visit(self, node) -> tuple:
        """(children, ()) at a split, (None, cubes) at a leaf."""
        t = self.trail
        if not t.propagate():
            return None, ()
        # with every clause satisfied no variable occurs: nothing to scan
        pures, occurring = ([], []) if t.sat == self.every else t.scan()
        if self.decide:
            while pures:
                for lit in pures:
                    if t.occ[lit] & ~t.sat:  # skip a variable that has vanished
                        t.assign(lit)
                pures, occurring = t.scan()
        if len(occurring) > self.cfg.n0:
            if pures:  # enumerate: their chain loses no solution
                return self._children(pures), ()
            occ, unsat = t.occ, ~t.sat
            # decide: the clauses with two free literals (free[2] exists:
            # with the units propagated, a variable occurs in a clause
            # of two or more free literals)
            two = t.free[2] if self.decide else 0
            ranked = []  # (-score, variable, literal in its majority polarity)
            for v in occurring:
                p, q = occ[v] & unsat, occ[-v] & unsat
                b = ((p | q) & two).bit_count()
                p, q = p.bit_count(), q.bit_count()
                ranked.append((-p - q - 2 * b, v, v if p >= q else -v))
            ranked.sort()
            lits = [lit for _, _, lit in ranked[:self.cfg.split_depth]]
            return self._children(lits), ()
        _check_cap(len(occurring))
        return None, _leaf_solutions(self, occurring)

    def _children(self, lits: list) -> Iterator[_Trail]:
        """The children of the chain over lits that do not conflict, in
        term order, each one the trail itself.

        Once the prefix conflicts, so does every later term.
        Propagating a prefix can set a later chain literal already,
        which :meth:`_Trail.assign` allows.
        """
        t = self.trail
        for lit in lits:
            state = t.snapshot()
            if t.assign(-lit):
                yield t
            t.restore(state)
            if not (t.assign(lit) and t.propagate()):
                return
        yield t


def leaf_blocks(c: CnfSet, cfg: Optional[SolverConfig] = None) -> Iterator[dict]:
    """The solutions of a clause set as cubes, one leaf at a time.

    A cube is a dict of fixed variable values; the variables it leaves
    out are don't-cares, every expansion of which satisfies every
    clause.  Decide mode gives at most one cube.  In enumerate mode no
    two cubes share a point.

    The root's unit clauses are propagated by :func:`propagate_units`,
    which also rejects an empty clause; the rest of the tree is walked
    by the search driver (:func:`onsat.solver._search`) on the trail
    engine, depth-first in a fixed order, so memory is bounded by the
    depth of the tree and not by the number of points.
    """
    if cfg is None:
        cfg = SolverConfig()
    try:
        c, units = propagate_units(c)
    except Conflict:
        return iter(())
    engine = _Engine(c, units.as_dict(), cfg)
    return _search(engine, engine.trail, cfg.mode == DECIDE)


def solve_sat(c: CnfSet, cfg: Optional[SolverConfig] = None) -> SolveOutcome:
    """Decide or enumerate satisfiability of a clause set.

    The list form of :func:`leaf_blocks`: one solution per cube, in
    the order the cubes come.  Decide mode stops at the first.
    """
    return _outcome(leaf_blocks(c, cfg), range(c.num_vars))


def to_system(c: CnfSet) -> BoolSystem:
    """Encode each clause as the equation clause-disjunction = 1.

    The native clause path is what the solver uses; this generic
    encoding exists for cross-checking against the system engine.
    """
    equations = []
    for clause in c.clauses:
        lits = [
            var(abs(l) - 1) if l > 0 else not_(var(abs(l) - 1))
            for l in sorted(clause, key=abs)
        ]
        equations.append((or_all(lits), const(1)))
    return BoolSystem.root(equations, range(c.num_vars))
