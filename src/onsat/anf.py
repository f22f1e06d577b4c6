"""Polynomials over GF(2) in algebraic normal form (ANF).

An ANF is an XOR of monomials, held as a frozenset of ints: a monomial
is a bitmask over variable bits, and 0 is the constant monomial 1.
XOR is symmetric difference, a product multiplies out pairwise with
x * x = x, and a monomial that appears twice cancels.

A system is converted only when its polynomials are no larger than
its expressions: when they hold more monomials than the expressions
have distinct nodes, :func:`from_system` raises :class:`OverBudget`, so
a caller can keep it in expression form.  An OR of k positive literals
is 2k - 1 nodes but 2^k - 1 monomials; on clause-like systems of such
ORs the expression-tree search was measured faster, and on the
quadratic systems of GF(2^k) curves and of planted MQ (0.1 to 0.5
monomials per node) the polynomial search.  Every polynomial and
product is also bounded by :data:`BUDGET`, so that substitution cannot
blow up.

An affine equation (every monomial of degree <= 1) is a row: its
variable bits plus a constant bit above all of them.  Gauss-Jordan
elimination turns a set of rows into bindings ``pivot = row ^ pivot``,
each pivot being absent from every other binding.

The search's operations touch only what they change.
:func:`cofactor` and :func:`substitute` find the monomials that a fixed
or substituted bit meets in one pass, return the polynomial itself when
there are none, and fold only those into the rest.  :func:`zero_table`
takes its variable patterns from a table that the caller keeps for one
solve, so a leaf builds no pattern, and starts each monomial from its
first variable's pattern.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import or_
from typing import Mapping, Optional, Sequence

from .boolalg import AND, CONST, NOT, VAR, XOR, BoolFunc, _check_cap, _var_patterns

#: Most monomials in one polynomial, and most monomial pairs in one
#: product; past either the conversion or the elimination gives up.
#: The benchmark's systems stay far below it (45 monomials at most).
BUDGET = 1 << 10

ZERO = frozenset()
ONE = frozenset((0,))


class OverBudget(Exception):
    """A polynomial or a product outgrew :data:`BUDGET`, or a system's
    polynomials outgrew its expressions."""


def _checked(out: set) -> frozenset:
    if len(out) > BUDGET:
        raise OverBudget(f"more than {BUDGET} monomials")
    return frozenset(out)


def _product(a: frozenset, b: frozenset) -> frozenset:
    if len(a) * len(b) > BUDGET:
        raise OverBudget(f"product of {len(a)} by {len(b)} monomials")
    out: set = set()
    for m in a:
        for n in b:
            p = m | n
            if p in out:
                out.remove(p)
            else:
                out.add(p)
    return _checked(out)


def from_expr(f: BoolFunc, bit: Mapping[int, int], memo: dict) -> frozenset:
    """The ANF of an expression; ``bit`` maps variable ids to bits.

    A post-order walk of the DAG without recursion.  ``memo`` maps node
    ids to polynomials and may be shared by expressions over one ``bit``.
    """
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in memo:
            stack.pop()
            continue
        k = g.kind
        if k == VAR:
            r = frozenset((bit[g.var],))
        elif k == CONST:
            r = ONE if g.value else ZERO
        else:
            a = memo.get(id(g.left))
            if a is None:
                stack.append(g.left)
                continue
            if k == NOT:
                r = a ^ ONE
            else:
                b = memo.get(id(g.right))
                if b is None:
                    stack.append(g.right)
                    continue
                if k == XOR:
                    r = _checked(a ^ b)
                else:
                    ab = _product(a, b)
                    r = ab if k == AND else _checked(a ^ b ^ ab)
        memo[id(g)] = r
        stack.pop()
    return memo[id(f)]


def from_system(equations, bit: Mapping[int, int]) -> tuple:
    """The polynomials ``l ^ r`` of equations ``l = r``.

    Raises OverBudget when they hold more monomials than the equations'
    expressions have distinct nodes.
    """
    memo: dict = {}
    eqs = tuple(from_expr(l, bit, memo) ^ from_expr(r, bit, memo) for l, r in equations)
    size = sum(map(len, eqs))
    if size > len(memo):
        raise OverBudget(f"{size} monomials from {len(memo)} expression nodes")
    return eqs


def cofactor(e: frozenset, zeros: int, ones: int) -> frozenset:
    """e with the bits of ``zeros`` set to 0 and those of ``ones`` to 1.

    Only the monomials that meet a fixed bit are folded; with none, e
    itself is returned.
    """
    fixed = zeros | ones
    hit = [m for m in e if m & fixed]
    if not hit:
        return e
    out: set = set()
    keep = ~ones
    for m in hit:
        if m & zeros:
            continue
        m &= keep
        if m in out:
            out.remove(m)
        else:
            out.add(m)
    return e.difference(hit) ^ out


def substitute(e: frozenset, pivot: int, rest: int, cbit: int) -> frozenset:
    """e with the pivot bit replaced by the affine form ``rest``.

    ``rest`` is a row without the pivot: variable bits, plus ``cbit``
    for the constant 1.  Only the monomials that hold the pivot are
    folded; with none, e itself is returned.
    """
    hit = [m for m in e if m & pivot]
    if not hit:
        return e
    terms = [0 if t == cbit else t for t in bits_of(rest)]
    out: set = set()
    for m in hit:
        m ^= pivot
        for t in terms:
            p = m | t
            if p in out:
                out.remove(p)
            else:
                out.add(p)
    return _checked(e.difference(hit) ^ out)


def is_affine(e: frozenset) -> bool:
    return not [m for m in e if m & (m - 1)]


def row_of(e: frozenset, cbit: int) -> int:
    """The row of an affine equation: its monomials are distinct bits."""
    return sum(m or cbit for m in e)


def gauss_jordan(rows: Sequence[int], cbit: int) -> Optional[list]:
    """Reduced row echelon form of affine equations ``row = 0``.

    Returns the (pivot bit, row) pairs, pivots being the lowest variable
    bit of their row and absent from every other row, or None when the
    rows are inconsistent (some combination reads 1 = 0).
    """
    pivots: dict = {}
    for row in rows:
        for p, prow in pivots.items():
            if row & p:
                row ^= prow
        if not row:
            continue
        if row == cbit:
            return None
        p = row & -row
        for q, qrow in pivots.items():
            if qrow & p:
                pivots[q] = qrow ^ row
        pivots[p] = row
    return list(pivots.items())


def bits_of(mask: int) -> list:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def occurring(eqs: Sequence[frozenset]) -> int:
    """The mask of the variable bits that the polynomials mention."""
    return reduce(or_, chain.from_iterable(eqs), 0)


def zero_table(eqs: Sequence[frozenset], order: Sequence[int], patterns: dict) -> int:
    """Truth table of the points where every polynomial is 0.

    ``order`` lists the variable bits, most significant point bit
    first, as in :func:`boolalg.truth_table`; the polynomials mention no
    other bits.  ``patterns`` is the solve's pattern table (see
    :func:`boolalg._var_patterns`), shared by every leaf.  A monomial
    is the AND of its variables' patterns, a polynomial the XOR of its
    monomials.

    The polynomials are taken fewest monomials first (a stable sort,
    so equal sizes keep their order): each one roughly halves the
    live points, so the cheap ones do most of the cutting, and the
    loop stops as soon as no point is left.
    """
    n = len(order)
    _check_cap(n)
    full = (1 << (1 << n)) - 1
    pattern = dict(zip(order, _var_patterns(patterns, n)))
    monomials = {0: full}
    mask = full
    for e in sorted(eqs, key=len):
        table = 0
        for m in e:
            t = monomials.get(m)
            if t is None:
                low = m & -m
                t = pattern[low]
                rest = m ^ low
                while rest:
                    low = rest & -rest
                    t &= pattern[low]
                    rest ^= low
                monomials[m] = t
            table ^= t
        mask &= full ^ table
        if not mask:
            break
    return mask
