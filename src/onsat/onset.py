"""Orthonormal (ON) sets of Boolean functions and terms.

An ON set is an ordered collection of pairwise-orthogonal functions
summing to 1; it is *reduced* when no member is the constant 0.  All
constructors here either produce a reduced ON set or raise.  Degenerate
constructions are never repaired silently: a zero member raises
NotReduced so the caller can pick different generators.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Union

from .boolalg import (
    Assignment,
    BoolAlgError,
    BoolFunc,
    DuplicateVariable,
    Term,
    VarTable,
    and_,
    as_term,
    _check_cap,
    _indices,
    _is_name,
    index_to_assignment,
    not_,
    or_all,
    parse_expr,
    truth_table,
)


class OnSetError(BoolAlgError):
    """Base class for ON set validation failures."""


class NotOrthogonal(OnSetError):
    def __init__(self, i: int, j: int):
        super().__init__(f"members {i} and {j} have a common one-point")
        self.indices = (i, j)


class NotNormal(OnSetError):
    def __init__(self):
        super().__init__("members do not sum to 1")


class NotReduced(OnSetError):
    def __init__(self, *indices: int):
        which = ", ".join(str(i) for i in indices)
        super().__init__(f"member {which} is identically 0")
        self.indices = indices


class OnSet:
    """A validated, reduced orthonormal set.

    Construct through :func:`validate_on` or one of the structured
    constructors; the raw constructor trusts its input.  When every
    member is a product of literals the matching terms are kept so the
    solver can read partial assignments off in O(1).
    """

    __slots__ = ("members", "terms")

    def __init__(
        self, members: Sequence[BoolFunc], terms: Optional[Sequence[Term]] = None
    ):
        self.members = tuple(members)
        if terms is None:
            maybe = [as_term(f) for f in self.members]
            terms = maybe if all(t is not None for t in maybe) else None
        self.terms = tuple(terms) if terms is not None else None

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def vars(self) -> frozenset:
        out = frozenset()
        for f in self.members:
            out |= f.vars
        return out

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[BoolFunc]:
        return iter(self.members)

    def __getitem__(self, i: int) -> BoolFunc:
        return self.members[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OnSet):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"OnSet(order={self.order})"


def validate_on(candidate: Sequence[BoolFunc]) -> OnSet:
    """Check orthogonality, normality and reducedness exhaustively.

    Verification enumerates the union of the appearing variables, so the
    candidate must fit under the evaluation cap.
    """
    members = list(candidate)
    union = sorted(set().union(*(f.vars for f in members)) if members else set())
    _check_cap(len(union))
    full = (1 << (1 << len(union))) - 1
    tables = [truth_table(f, union) for f in members]
    for i, t in enumerate(tables):
        if t == 0:
            raise NotReduced(i)
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            if tables[i] & tables[j]:
                raise NotOrthogonal(i, j)
    acc = 0
    for t in tables:
        acc |= t
    if acc != full:
        raise NotNormal()
    return OnSet(members)


def chain_from_elements(elements: Sequence[BoolFunc]) -> OnSet:
    """Build the chain ON set generated by m-1 elements.

    The first member complements the first element, each middle member
    is the running product times the next element complemented, and the
    last member is the product of all elements.  The chain is orthogonal
    and normal for any generators; a zero member raises NotReduced.
    """
    us = list(elements)
    if not us:
        raise ValueError("need at least one generating element")
    members = [not_(us[0])]
    prefix = us[0]
    for u in us[1:]:
        members.append(and_(prefix, not_(u)))
        prefix = and_(prefix, u)
    members.append(prefix)
    union = sorted(set().union(*(f.vars for f in members)))
    for i, f in enumerate(members):
        if truth_table(f, union) == 0:
            raise NotReduced(i)
    return OnSet(members)


class MintermPartition:
    """A partition of the minterm indices {0, ..., 2^n - 1}.

    Checked from the blocks alone, so a wide n costs nothing: every
    index is an int in range, the blocks are disjoint, and they hold
    2^n indices in all.
    """

    __slots__ = ("blocks", "n")

    def __init__(self, blocks: Sequence[Iterable[int]], n: int):
        blocks = [frozenset(b) for b in blocks]
        size = 1 << n
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty partition block")
            for x in b:
                if not (isinstance(x, int) and 0 <= x < size):
                    raise ValueError("minterm index out of range")
            if b & seen:
                raise ValueError("partition blocks overlap")
            seen |= b
        if len(seen) != size:
            raise ValueError("partition does not cover all minterms")
        self.blocks = tuple(blocks)
        self.n = n

    def __len__(self) -> int:
        return len(self.blocks)


def minterm(index: int, variables: Sequence[int]) -> Term:
    """The minterm with the given index; first variable = topmost bit."""
    n = len(variables)
    if not 0 <= index < (1 << n):
        raise ValueError("minterm index out of range")
    if len(set(variables)) != n:
        raise DuplicateVariable("repeated variable in minterm basis")
    return Term(index_to_assignment(index, variables))


def from_minterm_partition(
    partition: MintermPartition, variables: Sequence[int]
) -> OnSet:
    """One member per block, each the disjunction of its block's minterms."""
    variables = list(variables)
    if len(variables) != partition.n:
        raise ValueError("variable list does not match partition width")
    if len(set(variables)) != len(variables):
        raise DuplicateVariable("repeated variable in minterm basis")
    members = []
    for block in partition.blocks:
        members.append(
            or_all([minterm(i, variables).func() for i in sorted(block)])
        )
    return OnSet(members)


def term_chain(literals: Sequence[tuple[int, bool]]) -> OnSet:
    """The ON term chain over chosen literals.

    For literals l1..lr the members are l1', l1 l2', ..., l1...l_{r-1} lr',
    and finally l1...lr, giving order r+1.  Each li is the variable or
    its complement as requested.
    """
    lits = list(literals)
    if not lits:
        raise ValueError("need at least one literal")
    seen = set()
    for v, _ in lits:
        if v in seen:
            raise DuplicateVariable(f"x{v} appears twice in chain")
        seen.add(v)
    terms = []
    for i in range(len(lits)):
        t = {v: p for v, p in lits[:i]}
        v, p = lits[i]
        t[v] = not p
        terms.append(Term(t))
    terms.append(Term({v: p for v, p in lits}))
    members = [t.func() for t in terms]
    return OnSet(members, terms)


def coarsen(s: OnSet, grouping: Sequence[Iterable[int]]) -> OnSet:
    """Sum members within each group of a partition of the indices."""
    groups = [sorted(set(g)) for g in grouping]
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(s.order)):
        raise ValueError("grouping is not a partition of the member indices")
    members = [or_all([s.members[i] for i in g]) for g in groups]
    return OnSet(members)


def product_onset(s1: OnSet, s2: OnSet) -> OnSet:
    """All pairwise products; order m1*m2.

    The factors may share variables, in which case some products can be
    identically zero; that raises NotReduced naming the offending pair.
    """
    members = []
    union = sorted(s1.vars | s2.vars)
    for k, f in enumerate(s1.members):
        for l, g in enumerate(s2.members):
            prod = and_(f, g)
            if truth_table(prod, union) == 0:
                raise NotReduced(k, l)
            members.append(prod)
    return OnSet(members)


class TermSupport:
    """Support of a term: its forced bindings plus the free variables."""

    __slots__ = ("partial", "free")

    def __init__(self, partial: Assignment, free: tuple):
        self.partial = partial
        self.free = free

    def __iter__(self):
        yield self.partial
        yield self.free

    def assignments(self) -> Iterator[Assignment]:
        for idx in range(1 << len(self.free)):
            yield self.partial.merge(index_to_assignment(idx, self.free))


def support_stream(member: Union[BoolFunc, Term], over: Optional[Iterable[int]] = None):
    """Enumerate the support of an ON set member.

    For a term, returns a :class:`TermSupport` carrying the unique
    partial assignment and the free variables (every extension lies in
    the support).  For a general function, returns an iterator of full
    assignments over ``over`` (default: the variables mentioned).
    """
    if isinstance(member, Term):
        universe = set(over) if over is not None else set(member.vars)
        free = tuple(sorted(universe - member.vars))
        return TermSupport(member.partial_assignment(), free)

    order = sorted(set(over) if over is not None else member.vars)
    table = truth_table(member, order)
    return (index_to_assignment(idx, order) for idx in _indices(table))


def parse_onset_spec(text: str, table: VarTable) -> OnSet:
    """Parse an ON set description used by the command line.

    Two forms: ``chain: x1,~x3,x5`` builds a term chain (``~`` marks a
    negative literal), and ``funcs: <expr>, <expr>, ...`` (the prefix is
    optional) validates an explicit member list written in the
    expression grammar.
    """
    text = text.strip()
    if text.startswith("chain:"):
        body = text[len("chain:"):]
        lits = []
        for piece in body.split(","):
            piece = piece.strip()
            if not piece:
                continue
            pol = True
            if piece.startswith("~"):
                pol = False
                piece = piece[1:].strip()
            if not _is_name(piece):
                raise ValueError(f"bad chain literal {piece!r}")
            lits.append((table.intern(piece), pol))
        if not lits:
            raise ValueError("empty chain specification")
        return term_chain(lits)
    if text.startswith("funcs:"):
        text = text[len("funcs:"):]
    members = [parse_expr(piece, table) for piece in text.split(",") if piece.strip()]
    if not members:
        raise ValueError("empty ON set specification")
    return validate_on(members)
