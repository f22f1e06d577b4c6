"""Boolean functions over the two-element algebra {0, 1}.

Functions are immutable expression trees over integer variable ids with
eager constant folding.  The module provides evaluation, truth tables,
zero sets and supports, cofactoring/substitution, the dual and star
operations, and the text grammar used by the file formats:

    variables   identifiers (``x``, ``x1``, ``carry_out`` ...)
    operators   ``&`` (AND), ``|`` (OR), ``^`` (XOR), ``~`` or postfix
                ``'`` (NOT), constants ``0`` and ``1``
    precedence  ``~``  >  ``&``  >  ``^``  >  ``|``, parentheses allowed

Everything here is a value: never mutated after construction, so
subtrees are shared freely (a cofactor keeps the untouched subtrees of
its argument).  Derived facts (variable set, hash, occurrence counts)
are cached on the node, filled lazily on first use.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

#: Hard ceiling on exhaustive enumeration (number of point evaluations).
#: Operations that would exceed it raise TooManyVariables instead of
#: silently sampling.
DEFAULT_CAP = 1 << 24


class BoolAlgError(Exception):
    """Base class for all errors raised by this package.

    ``solver.Conflict`` and ``anf.OverBudget`` are not errors: they are
    control-flow signals that the search raises and catches itself.
    """


class UndeclaredVariable(BoolAlgError, KeyError):
    """An assignment was queried for a variable it does not declare."""


class TooManyVariables(BoolAlgError):
    """An exhaustive operation would exceed the enumeration cap."""


class ConflictingAssignment(BoolAlgError):
    """A partial assignment binds the same variable twice."""


class DuplicateVariable(BoolAlgError):
    """A term or literal list names the same variable twice."""


class ParseError(BoolAlgError):
    """Malformed expression or input file."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_cap(n_vars: int) -> None:
    if n_vars >= DEFAULT_CAP.bit_length() or (1 << n_vars) > DEFAULT_CAP:
        raise TooManyVariables(
            f"2^{n_vars} evaluations exceed the cap of {DEFAULT_CAP}"
        )


# ---------------------------------------------------------------------------
# value classes


class _Record:
    """A value class whose fields are its ``__slots__``, in order.

    Equality (same class, equal fields) and ``repr`` behave as a
    dataclass's; pickling and copying go through the constructor.  A
    plain record is mutable and unhashable.  Written out rather than
    made with ``@dataclass``: importing ``dataclasses`` loads
    ``inspect``, ``ast``, ``dis`` and ``tokenize``, about 10 ms at
    every start of the command line tool.
    """

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields()


class _FrozenRecord(_Record):
    """A record whose ``__init__`` sets the fields once, through
    ``_set``; it hashes by its fields, and assignment raises
    AttributeError."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())


# ---------------------------------------------------------------------------
# assignments


class Assignment:
    """A map from variable ids to {0, 1}: a point over the variables it
    covers, or the partial assignment forced by a term.

    Extension (`merge`) requires disjoint variable sets so that composing
    assignments stays associative and never reorders bindings.
    """

    __slots__ = ("_d", "_hash")

    def __init__(self, values: Mapping[int, int] = ()):
        d = {}
        for v, b in dict(values).items():
            if b not in (0, 1):
                raise ValueError(f"assignment value for x{v} must be 0 or 1")
            d[int(v)] = int(b)
        self._d = d
        self._hash = None

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Assignment":
        d = {}
        for v, b in pairs:
            if v in d:
                raise ConflictingAssignment(f"x{v} assigned twice")
            d[v] = b
        return cls(d)

    def merge(self, other: "Assignment") -> "Assignment":
        overlap = self._d.keys() & other._d.keys()
        if overlap:
            v = min(overlap)
            raise ConflictingAssignment(f"x{v} assigned twice")
        d = dict(self._d)
        d.update(other._d)
        return Assignment(d)

    def __getitem__(self, var: int) -> int:
        try:
            return self._d[var]
        except KeyError:
            raise UndeclaredVariable(var) from None

    def __contains__(self, var: int) -> bool:
        return var in self._d

    def __iter__(self) -> Iterator[int]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def items(self):
        return self._d.items()

    def keys(self):
        return self._d.keys()

    def as_dict(self) -> dict:
        return dict(self._d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._d == other._d

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"x{v}={b}" for v, b in sorted(self._d.items()))
        return f"Assignment({inner})"

    def __reduce__(self):
        # through the constructor, on every protocol, without the cached
        # hash; a Term's constructor takes the same 0/1 values
        return self.__class__, (self._d,)


def star(a: Assignment) -> Assignment:
    """Componentwise complement of a point; star is an involution."""
    return Assignment({v: 1 - b for v, b in a.items()})


# ---------------------------------------------------------------------------
# expression nodes

VAR = "var"
CONST = "const"
NOT = "not"
AND = "and"
OR = "or"
XOR = "xor"


class BoolFunc:
    """An immutable Boolean expression.

    Built through :func:`var`, :func:`const` and the operators ``&``,
    ``|``, ``^``, ``~``.  Constants fold eagerly on construction; no
    other simplification is performed, so two semantically equal
    functions may be structurally different (compare those with
    :func:`semantically_equal`).

    A node's variable set and hash (``_vars``, ``_hash``) are filled
    together by :func:`_fill` on first use of either, and its
    per-variable occurrence counts (``_occ``) by :func:`_occurrences`;
    both walk children first and without recursion, so any depth is
    fine.
    A pickle holds no cache: the hash of a node kind, a string, differs
    between processes, so a loaded expression computes its own.  An
    inner node pickles as one flat post-order tuple of its DAG
    (:func:`_flatten`), so pickling and ``copy.deepcopy`` do not
    recurse either; shared nodes stay shared within one expression,
    though not between two expressions pickled together.
    """

    __slots__ = ("kind", "var", "value", "left", "right", "_vars", "_hash", "_occ")

    def __init__(self, kind, var=None, value=None, left=None, right=None):
        self.kind = kind
        self.var = var
        self.value = value
        self.left = left
        self.right = right
        self._vars = None
        self._hash = None
        self._occ = None

    # -- construction -------------------------------------------------

    def __and__(self, other: "BoolFunc") -> "BoolFunc":
        return and_(self, other)

    def __or__(self, other: "BoolFunc") -> "BoolFunc":
        return or_(self, other)

    def __xor__(self, other: "BoolFunc") -> "BoolFunc":
        return xor(self, other)

    def __invert__(self) -> "BoolFunc":
        return not_(self)

    # -- structure ----------------------------------------------------

    @property
    def vars(self) -> frozenset:
        """The set of variable ids the expression mentions."""
        got = self._vars
        if got is None:
            _fill(self)
            got = self._vars
        return got

    def __eq__(self, other) -> bool:
        """Structural equality, walked with an explicit stack of node pairs."""
        if self is other:
            return True
        if not isinstance(other, BoolFunc):
            return NotImplemented
        stack = [(self, other)]
        seen = set()
        while stack:
            f, g = stack.pop()
            if f is g or (id(f), id(g)) in seen:
                continue
            seen.add((id(f), id(g)))
            if hash(f) != hash(g) or f.kind != g.kind:
                return False
            k = f.kind
            if k == VAR:
                if f.var != g.var:
                    return False
            elif k == CONST:
                if f.value != g.value:
                    return False
            else:
                stack.append((f.left, g.left))
                if k != NOT:
                    stack.append((f.right, g.right))
        return True

    def __hash__(self) -> int:
        got = self._hash
        if got is None:
            _fill(self)
            got = self._hash
        return got

    def __repr__(self) -> str:
        return f"BoolFunc({to_text(self)})"

    def __reduce__(self):
        k = self.kind
        if k == CONST:
            return const, (self.value,)
        if k == VAR:
            return var, (self.var,)
        return _unflatten, (_flatten(self),)

    # -- evaluation ---------------------------------------------------

    def eval(self, assignment: Union[Assignment, Mapping[int, int]]) -> int:
        """Value of the function at a point; the point must cover vars.

        The one-bit :func:`_fold`, with all-ones 1.
        """
        return _fold(self, assignment, 1, {})


_CONST0 = BoolFunc(CONST, value=0)
_CONST1 = BoolFunc(CONST, value=1)


def _fill(f: BoolFunc) -> None:
    """Fill the cached variable set and hash of f and of every node
    under it whose caches are empty, children first and without
    recursion.

    The two caches are set together, so a node's are both empty or both
    full.  A node with an empty child goes back on the stack under its
    empty children, and a node popped once it is filled (a shared one,
    reached again) is skipped, so each node is filled once.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        if g._vars is not None:
            continue
        left, right = g.left, g.right
        if left is None:  # a variable or a constant
            if g.kind == VAR:
                g._vars = frozenset((g.var,))
                g._hash = hash((VAR, g.var))
            else:
                g._vars = frozenset()
                g._hash = hash((CONST, g.value))
            continue
        lv = left._vars
        if right is None:  # a NOT
            if lv is None:
                stack += (g, left)
                continue
            g._vars = lv
            g._hash = hash((NOT, left._hash))
            continue
        rv = right._vars
        if lv is None or rv is None:
            stack.append(g)
            if lv is None:
                stack.append(left)
            if rv is None:
                stack.append(right)
            continue
        # share a left set that covers the right one: about half the
        # nodes of a lowered curve, and the test costs less than a union
        g._vars = lv if rv <= lv else lv | rv
        g._hash = hash((g.kind, left._hash, right._hash))


def _flatten(f: BoolFunc) -> tuple:
    """f's DAG as one post-order tuple of (kind, var, value, left, right)
    rows, a child given by the index of its row, a shared node by one
    row.  Walked without recursion, like :func:`_fill`, so any depth
    is fine."""
    rows: list = []
    index: dict = {}  # by node id: its row
    stack = [f]
    while stack:
        g = stack[-1]
        k = g.kind
        left = right = None
        if k != VAR and k != CONST:
            left = index.get(id(g.left))
            if left is None:
                stack.append(g.left)
                continue
            if k != NOT:
                right = index.get(id(g.right))
                if right is None:
                    stack.append(g.right)
                    continue
        index[id(g)] = len(rows)
        rows.append((k, g.var, g.value, left, right))
        stack.pop()
    return tuple(rows)


def _unflatten(rows: tuple) -> BoolFunc:
    """The expression of :func:`_flatten`'s rows, built bottom-up."""
    nodes: list = []
    for k, v, value, left, right in rows:
        if k == CONST:
            nodes.append(const(value))
        else:
            nodes.append(BoolFunc(
                k, v, None, None if left is None else nodes[left],
                None if right is None else nodes[right]))
    return nodes[-1]


def const(value: int) -> BoolFunc:
    if value not in (0, 1):
        raise ValueError("Boolean constant must be 0 or 1")
    return _CONST1 if value else _CONST0


def var(index: int) -> BoolFunc:
    if index < 0:
        raise ValueError("variable ids are nonnegative")
    return BoolFunc(VAR, var=index)


def not_(f: BoolFunc) -> BoolFunc:
    if f.kind == CONST:
        return const(1 - f.value)
    if f.kind == NOT:
        return f.left
    return BoolFunc(NOT, left=f)


def and_(f: BoolFunc, g: BoolFunc) -> BoolFunc:
    if f.kind == CONST:
        return g if f.value else _CONST0
    if g.kind == CONST:
        return f if g.value else _CONST0
    if f is g:
        return f
    return BoolFunc(AND, left=f, right=g)


def or_(f: BoolFunc, g: BoolFunc) -> BoolFunc:
    if f.kind == CONST:
        return _CONST1 if f.value else g
    if g.kind == CONST:
        return _CONST1 if g.value else f
    if f is g:
        return f
    return BoolFunc(OR, left=f, right=g)


def xor(f: BoolFunc, g: BoolFunc) -> BoolFunc:
    if f.kind == CONST:
        return not_(g) if f.value else g
    if g.kind == CONST:
        return not_(f) if g.value else f
    if f is g:
        return _CONST0
    return BoolFunc(XOR, left=f, right=g)


def _fold_balanced(op, fs: Sequence[BoolFunc], empty: BoolFunc) -> BoolFunc:
    # Balanced fold keeps the tree depth logarithmic in len(fs).
    fs = list(fs)
    if not fs:
        return empty
    while len(fs) > 1:
        fs = [
            op(fs[i], fs[i + 1]) if i + 1 < len(fs) else fs[i]
            for i in range(0, len(fs), 2)
        ]
    return fs[0]


def and_all(fs: Sequence[BoolFunc]) -> BoolFunc:
    return _fold_balanced(and_, fs, _CONST1)


def or_all(fs: Sequence[BoolFunc]) -> BoolFunc:
    return _fold_balanced(or_, fs, _CONST0)


def xor_all(fs: Sequence[BoolFunc]) -> BoolFunc:
    return _fold_balanced(xor, fs, _CONST0)


def literal_of(f: BoolFunc) -> Optional[tuple[int, bool]]:
    """(variable, polarity) if f is a bare literal, else None."""
    if f.kind == VAR:
        return (f.var, True)
    if f.kind == NOT and f.left.kind == VAR:
        return (f.left.var, False)
    return None


# ---------------------------------------------------------------------------
# terms


class Term(Assignment):
    """A product of literals over distinct variables, held as the partial
    assignment that makes it 1: a positive literal binds its variable to
    1, a negative one to 0.

    So a term is the :class:`Assignment` of its bindings, and equals
    one with the same bindings.  The empty term is the constant 1.
    """

    __slots__ = ()

    def __init__(self, literals: Mapping[int, bool] = ()):
        super().__init__({v: 1 if p else 0 for v, p in dict(literals).items()})

    @classmethod
    def from_literals(cls, pairs: Iterable[tuple[int, bool]]) -> "Term":
        d = {}
        for v, p in pairs:
            if v in d:
                raise DuplicateVariable(f"x{v} appears twice in term")
            d[v] = p
        return cls(d)

    @property
    def literals(self) -> dict:
        return {v: bool(b) for v, b in self._d.items()}

    @property
    def vars(self) -> frozenset:
        return frozenset(self._d)

    def partial_assignment(self) -> Assignment:
        return Assignment(self._d)

    def func(self) -> BoolFunc:
        """The term as an expression (AND of its literals)."""
        lits = [
            var(v) if b else not_(var(v)) for v, b in sorted(self._d.items())
        ]
        return and_all(lits)

    def __repr__(self) -> str:
        if not self._d:
            return "Term(1)"
        body = "".join(
            f"x{v}" if b else f"x{v}'" for v, b in sorted(self._d.items())
        )
        return f"Term({body})"


def flat_literals(f: BoolFunc, kind: str) -> Optional[list]:
    """The literals of a tree of ``kind`` (AND or OR) nodes over literals,
    as (variable, polarity) pairs, or None if anything else is in it."""
    lits = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == kind:
            stack.append(g.left)
            stack.append(g.right)
            continue
        lit = literal_of(g)
        if lit is None:
            return None
        lits.append(lit)
    return lits


def as_term(f: BoolFunc) -> Optional[Term]:
    """Recognize an AND-of-literals expression as a Term, else None."""
    if f.kind == CONST:
        return Term() if f.value == 1 else None
    lits = flat_literals(f, AND)
    if lits is None:
        return None
    d = {}
    for v, p in lits:
        if d.setdefault(v, p) != p:
            return None
    return Term(d)


# ---------------------------------------------------------------------------
# truth tables and exhaustive set operations

def _var_pattern(n: int, pos: int) -> int:
    """Bitmask over 2^n points where the variable at MSB-position pos is 1."""
    s = n - 1 - pos
    block = ((1 << (1 << s)) - 1) << (1 << s)
    width = 1 << (s + 1)
    total = 1 << n
    pat = block
    while width < total:
        pat |= pat << width
        width <<= 1
    return pat


def _var_patterns(table: dict, n: int) -> list:
    """The :func:`_var_pattern` of each position among n, from ``table``.

    ``table`` maps a variable count to that list and gains a missing
    count, so every truth table of one solve can share it.
    """
    patterns = table.get(n)
    if patterns is None:
        patterns = table[n] = [_var_pattern(n, i) for i in range(n)]
    return patterns


def _fold(f: BoolFunc, leaf, full: int, memo: dict) -> int:
    """f evaluated bitwise, each bit one point: the one walker behind
    :meth:`BoolFunc.eval` and :func:`truth_table`.

    A variable v is ``leaf[v]``, a constant 0 or ``full`` (every bit
    set), NOT is ``full ^ a``, and AND, OR and XOR are ``&``, ``|`` and
    ``^``.  ``memo`` maps node ids to their values and may carry them
    between calls.  A post-order walk of the DAG without recursion,
    left child first, so any depth is fine; a variable missing from
    ``leaf`` raises UndeclaredVariable when the walk meets it.
    """
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in memo:
            stack.pop()
            continue
        k = g.kind
        if k == VAR:
            try:
                r = leaf[g.var]
            except KeyError:
                raise UndeclaredVariable(g.var) from None
        elif k == CONST:
            r = full if g.value else 0
        else:
            a = memo.get(id(g.left))
            if a is None:
                stack.append(g.left)
                continue
            if k == NOT:
                r = full ^ a
            else:
                b = memo.get(id(g.right))
                if b is None:
                    stack.append(g.right)
                    continue
                r = a & b if k == AND else a | b if k == OR else a ^ b
        memo[id(g)] = r
        stack.pop()
    return memo[id(f)]


def truth_table(
    f: BoolFunc,
    order: Sequence[int],
    memo: Optional[dict] = None,
    patterns: Optional[dict] = None,
) -> int:
    """Truth table of f as an integer bitmask.

    Bit a holds f at the point whose bits, read most-significant first,
    assign the variables in ``order``.  The first variable in ``order``
    is the most significant bit, matching the minterm index convention.
    ``memo`` (node id -> table) and ``patterns`` (variable -> table) may
    be shared between calls with the same ``order``.  The fold of
    :func:`_fold` over the patterns of f's variables, with all-ones
    2^(2^n) - 1.
    """
    order = list(order)
    n = len(order)
    _check_cap(n)
    missing = f.vars - set(order)
    if missing:
        raise UndeclaredVariable(min(missing))
    full = (1 << (1 << n)) - 1
    pos = {v: i for i, v in enumerate(order)}
    if patterns is None:
        patterns = {}
    for v in f.vars:
        if v not in patterns:
            patterns[v] = _var_pattern(n, pos[v])
    return _fold(f, patterns, full, {} if memo is None else memo)


def _indices(table: int) -> Iterator[int]:
    """The indices of a truth table's 1 bits, lowest first.

    Each step of the bit loop copies the whole table, so a table wider
    than 1,024 bits with more than 32 points is walked on one reversed
    ``bin()`` string instead, in time linear in its width: a full
    2^16-point table takes about 25 ms that way against 0.4 s.  The
    string costs more than the loop on the narrow or sparse tables that
    most leaves have.
    """
    if table.bit_length() > 1024 and table.bit_count() > 32:
        bits = bin(table)[:1:-1]  # bit i at position i
        i = bits.find("1")
        while i >= 0:
            yield i
            i = bits.find("1", i + 1)
        return
    while table:
        low = table & -table
        yield low.bit_length() - 1
        table ^= low


def _point(index: int, order: Sequence[int]) -> dict:
    """The point encoded by ``index`` as a dict, the first variable of
    ``order`` most significant: the one decoder of that format."""
    n = len(order)
    return {v: index >> (n - 1 - i) & 1 for i, v in enumerate(order)}


def _cubes(table: Union[int, tuple], order: Sequence[int], fixed: dict) -> Iterator[dict]:
    """A truth table's points as disjoint cubes, by Shannon expansion.

    The table is in the MSB-first format over ``order``: an int mask,
    or the sorted tuple of its point indices, the form of a leaf with
    few points over many bits (:meth:`onsat.anf.Index.zero_table`).
    Each cube comes out as a copy of ``fixed`` plus its literals, the
    variables of ``order`` it leaves out being free.  The table is
    split on the ON set {v', v} of each variable of ``order`` in turn:
    an empty half-table gives no cube, a full one gives one cube, and a
    variable whose two half-tables are equal is a don't-care of its
    sub-cube.  The cubes come lowest index first.  The stack holds at
    most ``len(order) + 1`` entries, each a sub-table, the position of
    its first variable, and the cube's length and literal where it
    starts; the cube's literals are one list that the entries cut back
    to.  A tuple takes the same walk in :func:`_point_cubes`.
    """
    if not table:
        return
    if type(table) is tuple:
        yield from _point_cubes(table, order, fixed)
        return
    n = len(order)
    lits: list = []  # (variable, value) of the current cube
    stack: list = []
    t, i = table, 0
    while True:
        while i < n:  # t is a nonempty table over order[i:]
            width = 1 << (n - 1 - i)
            full = (1 << width) - 1
            lo, hi = t & full, t >> width
            if lo == hi:
                if lo == full:
                    break
                t = lo
            elif not lo:
                lits.append((order[i], 1))
                t = hi
            else:
                if hi:
                    stack.append((hi, i + 1, len(lits), (order[i], 1)))
                lits.append((order[i], 0))
                t = lo
            i += 1
        cube = dict(fixed)
        cube.update(lits)
        yield cube
        if not stack:
            return
        t, i, k, lit = stack.pop()
        del lits[k:]
        lits.append(lit)


def _point_cubes(points: tuple, order: Sequence[int], fixed: dict) -> Iterator[dict]:
    """:func:`_cubes` of a nonempty table given as its sorted point
    indices, in time linear in the points per level rather than in the
    table's width: ``bisect`` splits a sub-table into its low half and
    its high half shifted down, and a half of ``width`` points is full.
    """
    n = len(order)
    lits: list = []
    stack: list = []
    t, i = points, 0
    while True:
        while i < n:
            width = 1 << (n - 1 - i)
            k = bisect_left(t, width)
            lo, hi = t[:k], tuple([x - width for x in t[k:]])
            if lo == hi:
                if k == width:
                    break
                t = lo
            elif not lo:
                lits.append((order[i], 1))
                t = hi
            else:
                if hi:
                    stack.append((hi, i + 1, len(lits), (order[i], 1)))
                lits.append((order[i], 0))
                t = lo
            i += 1
        cube = dict(fixed)
        cube.update(lits)
        yield cube
        if not stack:
            return
        t, i, k, lit = stack.pop()
        del lits[k:]
        lits.append(lit)


def index_to_assignment(index: int, order: Sequence[int]) -> Assignment:
    """The point encoded by ``index`` under the MSB-first convention."""
    return Assignment(_point(index, order))


def _resolve_universe(f: BoolFunc, over: Optional[Iterable[int]]) -> list:
    if over is None:
        return sorted(f.vars)
    universe = sorted(set(over))
    missing = f.vars - set(universe)
    if missing:
        raise UndeclaredVariable(min(missing))
    return universe


def zero_set(f: BoolFunc, over: Optional[Iterable[int]] = None) -> set:
    """All points where f evaluates to 0, over the given variable universe.

    ``over`` defaults to the variables the expression mentions; pass a
    larger universe to enumerate over declared-but-unused variables.
    """
    order = _resolve_universe(f, over)
    table = truth_table(f, order)
    zeros = ((1 << (1 << len(order))) - 1) ^ table
    return {index_to_assignment(idx, order) for idx in _indices(zeros)}


def support(f: BoolFunc, over: Optional[Iterable[int]] = None) -> set:
    """All points where f evaluates to 1; the complement of zero_set."""
    return zero_set(not_(f), over)


def semantically_equal(
    f: BoolFunc,
    g: BoolFunc,
    over: Optional[Iterable[int]] = None,
) -> bool:
    """Exhaustive equality over the union of the two variable sets."""
    order = sorted(set(over) if over is not None else (f.vars | g.vars))
    return truth_table(f, order) == truth_table(g, order)


# ---------------------------------------------------------------------------
# substitution, cofactors, dual

def substitute(
    f: BoolFunc,
    mapping: Mapping[int, Union[BoolFunc, int]],
    memo: Optional[dict] = None,
) -> BoolFunc:
    """Replace variables by expressions (or constants), folding as it goes.

    A subtree that mentions no mapped variable comes back as itself, so
    it keeps its identity and its cached variable set, hash and
    occurrence counts, and is not walked.  ``memo`` maps node ids to
    results for this one mapping; pass the same dict to substitute the
    same mapping into several expressions that share nodes.
    """
    repl = {}
    for v, g in mapping.items():
        repl[v] = const(g) if isinstance(g, int) else g
    if memo is None:
        memo = {}

    def go(g: BoolFunc) -> BoolFunc:
        key = id(g)
        got = memo.get(key)
        if got is not None:
            return got
        k = g.kind
        if k == VAR:
            r = repl.get(g.var, g)
        elif k == CONST or g.vars.isdisjoint(repl):
            r = g
        elif k == NOT:
            r = not_(go(g.left))
        elif k == AND:
            r = and_(go(g.left), go(g.right))
        elif k == OR:
            r = or_(go(g.left), go(g.right))
        else:
            r = xor(go(g.left), go(g.right))
        memo[key] = r
        return r

    return go(f)


def cofactor(
    f: BoolFunc,
    p: Union[Assignment, Mapping[int, int]],
    memo: Optional[dict] = None,
) -> BoolFunc:
    """f with the partial assignment substituted and constants folded.

    A term is the partial assignment that makes it 1, so for a term t
    this computes the ratio f/t = f(t=1), a function of the free
    variables only.  ``memo`` is passed on to :func:`substitute`.
    """
    if not isinstance(p, Assignment):
        p = Assignment(p)
    return substitute(f, p, memo)


def conjugate(f: BoolFunc) -> BoolFunc:
    """f composed with the star map: every variable complemented."""
    return substitute(f, {v: not_(var(v)) for v in f.vars})


def dual(f: BoolFunc) -> BoolFunc:
    """The dual function: complement of f at the complemented point."""
    return not_(conjugate(f))


def point_function(a: Assignment) -> BoolFunc:
    """The function whose zero set is exactly the point a."""
    return or_all([xor(var(v), const(b)) for v, b in sorted(a.items())])


def _occurrences(f: BoolFunc) -> dict:
    """f's cached occurrence counts, filled in post-order without recursion.

    The counts of a binary node are the sums of its children's, and a
    NOT node shares its child's dict, so no cached dict may be mutated.
    """
    stack = [f]
    while stack:
        g = stack[-1]
        if g._occ is not None:
            stack.pop()
            continue
        k = g.kind
        if k == VAR:
            g._occ = {g.var: 1}
        elif k == CONST:
            g._occ = {}
        elif k == NOT:
            if g.left._occ is None:
                stack.append(g.left)
                continue
            g._occ = g.left._occ
        else:
            big, small = g.left._occ, g.right._occ
            if big is None or small is None:
                if big is None:
                    stack.append(g.left)
                if small is None:
                    stack.append(g.right)
                continue
            if len(small) > len(big):
                big, small = small, big
            counts = dict(big)
            for v, c in small.items():
                counts[v] = counts.get(v, 0) + c
            g._occ = counts
        stack.pop()
    return f._occ


def var_occurrences(f: BoolFunc) -> dict:
    """Occurrence count per variable, as in the fully unshared tree.

    Shared subtrees count once per path from the root, so the result
    matches the textual occurrence count of the expression.  The counts
    are cached on the nodes; the caller gets a fresh copy.
    """
    return dict(_occurrences(f))


# ---------------------------------------------------------------------------
# names and parsing


class VarTable:
    """Symbol table mapping external names to dense variable ids."""

    def __init__(self):
        self._ids = {}
        self._names = []

    def intern(self, name: str) -> int:
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._names)
            self._ids[name] = vid
            self._names.append(name)
        return vid

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise UndeclaredVariable(name) from None

    def name_of(self, vid: int) -> str:
        return self._names[vid]

    @property
    def names(self) -> list:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|[01&|^~()']|\S")
#: The first characters of a name.  The tokenizer cuts a name whole and
#: any other token is one character, so a token's first character tells
#: whether it is a name.
_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"


def _is_name(text: str) -> bool:
    """Whether the tokenizer cuts ``text`` whole as one name: a first
    character of ``_NAME_START``, then alphanumeric characters or ``_``
    (what ``\\w`` matches).  System lines, ``vars:`` headers and
    ``chain:`` specs check names by it."""
    return bool(text) and text[0] in _NAME_START and text.replace("_", "a").isalnum()


#: Deepest nesting of parentheses and prefix ``~`` the parser accepts.
#: The parser and ``substitute`` recurse once per level, so this keeps
#: them well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, table: VarTable, line: Optional[int] = None):
        # None marks the end; taking it always ends in a ParseError, so
        # the parser never reads past it
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(None)
        self.pos = 0
        self.table = table
        self.line = line
        self.depth = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos]

    def take(self) -> Optional[str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.line)

    def parse(self) -> BoolFunc:
        f = self.disjunction()
        if self.peek() is not None:
            self.fail(f"unexpected token {self.peek()!r}")
        return f

    def disjunction(self) -> BoolFunc:
        parts = [self.xor_chain()]
        while self.peek() == "|":
            self.take()
            parts.append(self.xor_chain())
        return or_all(parts)

    def xor_chain(self) -> BoolFunc:
        parts = [self.conjunction()]
        while self.peek() == "^":
            self.take()
            parts.append(self.conjunction())
        return xor_all(parts)

    def conjunction(self) -> BoolFunc:
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return and_all(parts)

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested too deeply (over {MAX_NESTING} levels)")

    def unary(self) -> BoolFunc:
        if self.peek() == "~":
            self.take()
            self.nest()
            f = not_(self.unary())
            self.depth -= 1
            return f
        return self.postfix()

    def postfix(self) -> BoolFunc:
        f = self.atom()
        while self.peek() == "'":
            self.take()
            f = not_(f)
        return f

    def atom(self) -> BoolFunc:
        tok = self.take()
        if tok is None:
            self.fail("unexpected end of expression")
        if tok[0] in _NAME_START:
            return var(self.table.intern(tok))
        if tok == "(":
            self.nest()
            f = self.disjunction()
            if self.take() != ")":
                self.fail("missing closing parenthesis")
            self.depth -= 1
            return f
        if tok == "0":
            return _CONST0
        if tok == "1":
            return _CONST1
        self.fail(f"unexpected token {tok!r}")


def parse_expr(text: str, table: VarTable, line: Optional[int] = None) -> BoolFunc:
    """Parse an expression in the text grammar, interning new names."""
    if not text.strip():
        raise ParseError("empty expression", line)
    return _Parser(text, table, line).parse()


_SYMBOL = {AND: "&", OR: "|", XOR: "^"}


def to_text(f: BoolFunc, table: Optional[VarTable] = None) -> str:
    """Render an expression in the text grammar (fully parenthesized).

    The stack holds what is left to print, nodes and literal pieces,
    next piece last, so any depth is fine.
    """
    out = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
            continue
        k = g.kind
        if k == VAR:
            out.append(table.name_of(g.var) if table is not None else f"x{g.var}")
        elif k == CONST:
            out.append(str(g.value))
        elif k == NOT:
            if g.left.kind == VAR:
                out.append("~")
                stack.append(g.left)
            else:
                out.append("~(")
                stack += (")", g.left)
        else:
            out.append("(")
            stack += (")", g.right, f" {_SYMBOL[k]} ", g.left)
    return "".join(out)
