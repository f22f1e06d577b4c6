"""Decomposition solver for systems of Boolean equations.

A system is a list of equations lhs = rhs over a shared variable
universe.  Solving alternates two moves until every branch either
conflicts or fits under the brute-force threshold:

* trivial reductions (constant equations, unit literals, literal
  equalities, forced sums/products), and
* splitting by an orthonormal chain of terms over the most frequent
  variables, which partitions the search space into independent
  subproblems.

Subproblems are immutable values, walked depth-first in chain order,
so runs are reproducible.  Solutions are reported compressed: an
assignment of the constrained variables plus a list of don't-care
variables, every expansion of which satisfies the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from .boolalg import (
    BoolFunc,
    CONST,
    PartialAssignment,
    ParseError,
    VarTable,
    _check_cap,
    cofactor,
    literal_of,
    not_,
    parse_expr,
    substitute,
    truth_table,
    var,
    var_occurrences,
)
from .onset import OnSet, term_chain

SAT = "SAT"
UNSAT = "UNSAT"

DECIDE = "decide"
ENUMERATE = "enumerate"


class Conflict(Exception):
    """A subproblem is locally unsatisfiable."""


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the decomposition engine."""

    n0: int = 16
    split_depth: int = 3
    mode: str = DECIDE

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("n0 must be at least 1")
        if self.split_depth < 1:
            raise ValueError("split_depth must be at least 1")
        if self.mode not in (DECIDE, ENUMERATE):
            raise ValueError(f"unknown mode {self.mode!r}")


class BoolSystem:
    """Equations f_i = g_i over a variable universe, plus bookkeeping.

    ``trail`` accumulates assignments made on the way down from the root
    problem; ``bindings`` records literal-equality substitutions
    (eliminated variable, kept variable, polarity flag) in the order
    they were made, so leaf solutions can be lifted back to the root
    universe.
    """

    __slots__ = ("equations", "vars", "trail", "bindings", "root_vars")

    def __init__(
        self,
        equations: Sequence[tuple[BoolFunc, BoolFunc]],
        vars: frozenset,
        trail: PartialAssignment,
        bindings: tuple,
        root_vars: frozenset,
    ):
        self.equations = tuple(equations)
        self.vars = frozenset(vars)
        self.trail = trail
        self.bindings = tuple(bindings)
        self.root_vars = frozenset(root_vars)
        mentioned = self.occurring()
        if not mentioned <= self.vars:
            missing = min(mentioned - self.vars)
            raise ValueError(f"equation mentions undeclared variable x{missing}")
        if set(trail.keys()) & self.vars:
            raise ValueError("trail overlaps the open variable set")

    @classmethod
    def root(
        cls,
        equations: Sequence[tuple[BoolFunc, BoolFunc]],
        variables: Optional[Sequence[int]] = None,
    ) -> "BoolSystem":
        eqs = [(l, r) for l, r in equations]
        mentioned = set()
        for l, r in eqs:
            mentioned |= l.vars | r.vars
        universe = (
            frozenset(variables) if variables is not None else frozenset(mentioned)
        )
        return cls(eqs, universe, PartialAssignment(), (), universe)

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


@dataclass(frozen=True)
class Solution:
    """One compressed solution over the root universe.

    ``assignment`` fixes the constrained variables; every combination of
    values for ``dont_care`` extends it to a full solution.
    """

    assignment: tuple
    dont_care: tuple

    @classmethod
    def make(cls, assignment: dict, dont_care) -> "Solution":
        return cls(tuple(sorted(assignment.items())), tuple(sorted(dont_care)))

    def as_dict(self) -> dict:
        return dict(self.assignment)

    def expand(self) -> Iterator[dict]:
        """All total assignments represented by this solution."""
        base = dict(self.assignment)
        free = self.dont_care
        n = len(free)
        for idx in range(1 << n):
            d = dict(base)
            for i, v in enumerate(free):
                d[v] = (idx >> (n - 1 - i)) & 1
            yield d

    def expanded_count(self) -> int:
        return 1 << len(self.dont_care)


@dataclass
class SolveOutcome:
    """Status plus the solutions found (at most one in decide mode)."""

    status: str
    solutions: list

    @property
    def sat(self) -> bool:
        return self.status == SAT


# ---------------------------------------------------------------------------
# trivial reductions

def _literal_sum(f: BoolFunc, op_kind: str) -> Optional[list]:
    """Flatten an OR / AND tree of literals, or None if anything else."""
    lits = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == op_kind:
            stack.append(g.left)
            stack.append(g.right)
            continue
        lit = literal_of(g)
        if lit is None:
            return None
        lits.append(lit)
    return lits


def _forced_value(lit: tuple[int, bool], value: int) -> tuple[int, int]:
    v, pol = lit
    return v, value if pol else 1 - value


def _forced_dict(lits, value: int) -> dict:
    out: dict = {}
    for lit in lits:
        v, b = _forced_value(lit, value)
        if out.setdefault(v, b) != b:
            raise Conflict(f"x{v} forced both ways")
    return out


def triv_solve(system: BoolSystem) -> tuple[BoolSystem, PartialAssignment]:
    """Apply trivial reductions to a fixpoint.

    Handles constant equations, unit literals (l = 0 / l = 1), literal
    equalities (substituting one variable by the other literal and
    recording the binding), and forced sums and products of literals.
    Raises Conflict when a reduction is contradictory.  The returned
    partial assignment lists the variables fixed by this call; the
    reduced system's trail already includes them.
    """
    equations = list(system.equations)
    open_vars = set(system.vars)
    assigned: dict = {}
    bindings = list(system.bindings)

    def rewrite(mapping: dict) -> None:
        nonlocal equations
        memo: dict = {}
        fresh = []
        for l, r in equations:
            if not l.vars.isdisjoint(mapping):
                l = substitute(l, mapping, memo)
            if not r.vars.isdisjoint(mapping):
                r = substitute(r, mapping, memo)
            fresh.append((l, r))
        equations = fresh

    def find_action():
        for idx, (l, r) in enumerate(equations):
            if l.kind == CONST and r.kind == CONST:
                if l.value != r.value:
                    raise Conflict("constant equation fails")
                return ("drop", idx, None)
            lit_l, lit_r = literal_of(l), literal_of(r)
            if lit_l is not None and r.kind == CONST:
                return ("assign", idx, _forced_dict([lit_l], r.value))
            if lit_r is not None and l.kind == CONST:
                return ("assign", idx, _forced_dict([lit_r], l.value))
            if lit_l is not None and lit_r is not None:
                (v1, p1), (v2, p2) = lit_l, lit_r
                if v1 == v2:
                    if p1 != p2:
                        raise Conflict(f"x{v1} equals its own complement")
                    return ("drop", idx, None)
                return ("bind", idx, (v1, v2, p1 == p2))
            for side, other in ((l, r), (r, l)):
                if other.kind != CONST:
                    continue
                lits = _literal_sum(side, "or" if other.value == 0 else "and")
                if lits is not None and len(lits) > 1:
                    return ("assign", idx, _forced_dict(lits, other.value))
        return None

    while True:
        action = find_action()
        if action is None:
            break
        kind, idx, payload = action
        if kind == "drop":
            del equations[idx]
        elif kind == "assign":
            del equations[idx]
            for v, b in payload.items():
                prev = assigned.get(v)
                if prev is not None and prev != b:
                    raise Conflict(f"x{v} forced both ways")
                assigned[v] = b
                open_vars.discard(v)
            rewrite(payload)
        else:
            v1, v2, same_pol = payload
            del equations[idx]
            bindings.append((v1, v2, same_pol))
            open_vars.discard(v1)
            g = var(v2) if same_pol else not_(var(v2))
            rewrite({v1: g})

    made = PartialAssignment(assigned)
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


def decompose(system: BoolSystem, terms: OnSet) -> list:
    """One subsystem per term of an ON chain.

    Each subsystem cofactors every equation by the term's partial
    assignment, shrinks the open variables and extends the trail.  The
    subsystems' solution sets partition the parent's.
    """
    if terms.terms is None:
        raise ValueError("decomposition needs an ON set of terms")
    out = []
    for t in terms.terms:
        q = t.partial_assignment()
        if not set(q.keys()) <= system.vars:
            stray = min(set(q.keys()) - system.vars)
            raise ValueError(f"split variable x{stray} is not open")
        mapping = q.as_dict()
        memo: dict = {}
        eqs = []
        for l, r in system.equations:
            if not l.vars.isdisjoint(mapping):
                l = cofactor(l, q, memo)
            if not r.vars.isdisjoint(mapping):
                r = cofactor(r, q, memo)
            eqs.append((l, r))
        out.append(
            BoolSystem(
                eqs,
                system.vars - set(q.keys()),
                system.trail.merge(q),
                system.bindings,
                system.root_vars,
            )
        )
    return out


# ---------------------------------------------------------------------------
# leaves: brute force over the constrained variables

def _local_solutions(system: BoolSystem) -> tuple[list, list]:
    """Satisfying assignments over the occurring variables.

    Returns (order, indices): the sorted constrained variables and the
    table indices of the satisfying points.
    """
    occ = sorted(system.occurring())
    n = len(occ)
    _check_cap(n, None)
    full = (1 << (1 << n)) - 1
    mask = full
    memo: dict = {}
    patterns: dict = {}
    for l, r in system.equations:
        mask &= full ^ (
            truth_table(l, occ, None, memo, patterns)
            ^ truth_table(r, occ, None, memo, patterns)
        )
        if mask == 0:
            break
    indices = []
    m = mask
    while m:
        low = m & -m
        indices.append(low.bit_length() - 1)
        m ^= low
    return occ, indices


def _lift(system: BoolSystem, local: dict) -> Iterator[Solution]:
    """Lift a leaf assignment to the root universe.

    Combines the trail, re-expands literal-equality bindings in reverse
    order (splitting on the kept variable when it happens to be free),
    and reports the remaining root variables as don't-cares.
    """
    assignment = system.trail.as_dict()
    assignment.update(local)
    free = set(system.root_vars) - set(assignment)
    for v, _, _ in system.bindings:
        free.discard(v)
    partials = [(assignment, free)]
    for v1, v2, same_pol in reversed(system.bindings):
        fresh = []
        for assign, dc in partials:
            if v2 in assign:
                b = assign[v2] if same_pol else 1 - assign[v2]
                assign[v1] = b
                fresh.append((assign, dc))
            else:
                for b2 in (0, 1):
                    branch = dict(assign)
                    branch[v2] = b2
                    branch[v1] = b2 if same_pol else 1 - b2
                    fresh.append((branch, dc - {v2}))
        partials = fresh
    for assign, dc in partials:
        yield Solution.make(assign, dc)


def brute_force(system: BoolSystem) -> SolveOutcome:
    """Exhaustive search over the constrained variables of a system.

    Variables that no equation mentions are reported as don't-cares.
    Intended for systems at or below the n0 threshold; more constrained
    variables than the enumeration cap allows raise TooManyVariables
    before any table is built.
    """
    occ, indices = _local_solutions(system)
    n = len(occ)
    solutions = []
    for idx in indices:
        local = {v: (idx >> (n - 1 - i)) & 1 for i, v in enumerate(occ)}
        solutions.extend(_lift(system, local))
    status = SAT if solutions else UNSAT
    return SolveOutcome(status, solutions)


# ---------------------------------------------------------------------------
# the search

def _system_solutions(system: BoolSystem, cfg: SolverConfig) -> Iterator[Solution]:
    """Leaf solutions in depth-first, left-to-right order of the split tree."""
    stack = [system]
    while stack:
        node = stack.pop()
        try:
            reduced, _ = triv_solve(node)
        except Conflict:
            continue
        if len(reduced.occurring()) <= cfg.n0:
            yield from brute_force(reduced).solutions
        else:
            # keep left-to-right order under LIFO popping
            stack.extend(reversed(decompose(reduced, choose_split(reduced, cfg))))


def bool_solve(system: BoolSystem, cfg: Optional[SolverConfig] = None) -> SolveOutcome:
    """Solve a Boolean system by orthonormal-term decomposition.

    Trivial reductions run first at every node; nodes above the n0
    threshold split by a term chain over the most frequent variables and
    the pieces are solved independently.  Decide mode stops at the first
    witness; enumerate mode collects the complete, duplicate-free
    solution set (compressed with don't-care lists).
    """
    if cfg is None:
        cfg = SolverConfig()
    found = _system_solutions(system, cfg)
    solutions = list(islice(found, 1) if cfg.mode == DECIDE else found)
    return SolveOutcome(SAT if solutions else UNSAT, solutions)


# ---------------------------------------------------------------------------
# system file format

def parse_system(text: str, table: Optional[VarTable] = None):
    """Parse the one-equation-per-line system format.

    Lines hold ``<expr> = <expr>`` in the expression grammar; ``#``
    starts a comment; an optional ``vars: a, b, c`` header declares
    variables beyond those mentioned.  Returns (system, table).
    """
    if table is None:
        table = VarTable()
    equations = []
    declared: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("vars:"):
            for name in line[5:].replace(",", " ").split():
                if not name.isidentifier():
                    raise ParseError(f"bad variable name {name!r}", lineno)
                declared.append(table.intern(name))
            continue
        if "=" not in line:
            raise ParseError("expected '<expr> = <expr>'", lineno)
        lhs, _, rhs = line.partition("=")
        equations.append(
            (parse_expr(lhs, table, lineno), parse_expr(rhs, table, lineno))
        )
    universe = set(declared)
    for l, r in equations:
        universe |= l.vars | r.vars
    system = BoolSystem.root(equations, sorted(universe))
    return system, table
