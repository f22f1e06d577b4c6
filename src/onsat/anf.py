"""Polynomials over GF(2) in algebraic normal form (ANF).

An ANF is an XOR of monomials: a monomial is a bitmask over variable
bits, and 0 is the constant monomial 1.  Conversion holds a polynomial
as a frozenset of monomials: XOR is symmetric difference, a product
multiplies out pairwise with x * x = x, and a monomial that appears
twice cancels.

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

The search numbers the monomials of one solve in an :class:`Index` and
holds each polynomial as one int, bit i standing for monomial i, as a
Macaulay matrix holds its rows over one basis.  With ``has[b]`` the
bitset of the monomials that hold variable bit b, setting b to 0 is
``e & ~has[b]``, and setting it to 1 XORs the hit monomials out and
their images without b in; an equation is affine when it meets no
nonlinear monomial, and a bit's frequency is the popcount of
``e & has[b]``.  Substitution and leaf tables read the monomials of a
mask back from the index.

An affine equation (every monomial of degree <= 1) is a row: its
variable bits plus a constant bit above all of them.  Gauss-Jordan
elimination turns a set of rows into bindings ``pivot = row ^ pivot``,
each pivot being absent from every other binding.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Mapping, Optional, Sequence

from .boolalg import (
    AND, CONST, NOT, VAR, XOR, BoolFunc, _check_cap, _indices, _var_patterns,
)

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


class Index:
    """The monomials of one solve, each with its bit in the search's masks.

    The search holds a polynomial as an int whose bit ``1 << i`` stands
    for monomial ``monomials[i]``; ``at`` maps a monomial back to i.
    ``has[b]`` is the mask of the monomials that hold variable bit b,
    and ``nonlinear`` the mask of those of degree 2 or more.  A monomial
    is indexed when it first appears and stays for the solve, so every
    mask of the solve keeps its meaning.
    """

    __slots__ = ("monomials", "at", "has", "nonlinear")

    def __init__(self):
        self.monomials: list = []
        self.at: dict = {}
        self.has: dict = {}
        self.nonlinear = 0

    def mask(self, monomials) -> int:
        """The mask of distinct monomials, indexing the ones not seen yet."""
        at = self.at
        out = 0
        for m in monomials:
            i = at.get(m)
            if i is None:
                i = at[m] = len(self.monomials)
                self.monomials.append(m)
                for b in bits_of(m):
                    self.has[b] = self.has.get(b, 0) | 1 << i
                if m & (m - 1):
                    self.nonlinear |= 1 << i
            out |= 1 << i
        return out

    def cofactor(self, eqs: Sequence[int], b: int, value: int) -> tuple:
        """The polynomials with variable bit b set to ``value``.

        The monomials that hold b (``hit``) drop out under 0 and lose b
        under 1.  Distinct monomials that hold b stay distinct without
        it, so XOR folds their images in exactly.
        """
        has = self.has.get(b, 0)
        if not value:
            keep = ~has
            return tuple(e & keep for e in eqs)
        at, monomials = self.at, self.monomials
        out = []
        for e in eqs:
            hit = e & has
            e ^= hit
            while hit:
                bit = hit & -hit
                hit ^= bit
                m = monomials[bit.bit_length() - 1] ^ b
                i = at.get(m)
                e ^= self.mask((m,)) if i is None else 1 << i
            out.append(e)
        return tuple(out)

    def substitute(self, e: int, pivot: int, rest: int, cbit: int) -> int:
        """e with the pivot bit replaced by the affine form ``rest``.

        ``rest`` is a row without the pivot: variable bits, plus ``cbit``
        for the constant 1.  Only the monomials that hold the pivot are
        folded; with none, e itself is returned.  Raises OverBudget
        when the result holds more than :data:`BUDGET` monomials.
        """
        hit = e & self.has.get(pivot, 0)
        if not hit:
            return e
        monomials = self.monomials
        terms = [0 if t == cbit else t for t in bits_of(rest)]
        out: set = set()
        for i in _indices(hit):
            m = monomials[i] ^ pivot
            for t in terms:
                p = m | t
                if p in out:
                    out.remove(p)
                else:
                    out.add(p)
        e ^= hit ^ self.mask(out)
        if e.bit_count() > BUDGET:
            raise OverBudget(f"more than {BUDGET} monomials")
        return e

    def row(self, e: int, cbit: int) -> int:
        """The row of an affine polynomial (``not e & nonlinear``): its
        monomials are distinct variable bits, and 1 stands as ``cbit``."""
        monomials = self.monomials
        return sum([monomials[i] or cbit for i in _indices(e)])

    def occurring(self, eqs: Sequence[int]) -> int:
        """The mask of the variable bits that the polynomials mention."""
        union = reduce(or_, eqs, 0)
        occ = 0
        for b, h in self.has.items():
            if union & h:
                occ |= b
        return occ

    def frequencies(self, eqs: Sequence[int]) -> dict:
        """The number of monomials of the polynomials that hold each
        variable bit, for the bits that occur.

        That is the sum of ``(e & has[b]).bit_count()`` over the
        polynomials, taken in one pass: they are added into a
        bit-sliced counter, bit i of ``levels[k]`` being bit k of the
        number of polynomials that hold monomial i, and a bit's count
        then takes one AND per level.
        """
        levels: list = []
        for e in eqs:
            for k, level in enumerate(levels):
                levels[k] = level ^ e
                e &= level  # the carry
                if not e:
                    break
            else:
                if e:
                    levels.append(e)
        counts = {}
        for b, h in self.has.items():
            c = 0
            for k, level in enumerate(levels):
                c += (level & h).bit_count() << k
            if c:
                counts[b] = c
        return counts

    def zero_table(self, eqs: Sequence[int], order: Sequence[int], patterns: dict) -> int:
        """Truth table of the points where every polynomial is 0.

        ``order`` lists the variable bits, most significant point bit
        first, as in :func:`boolalg.truth_table`; the polynomials mention
        no other bits.  ``patterns`` is the solve's pattern table (see
        :func:`boolalg._var_patterns`), shared by every leaf.  A monomial
        is the AND of its variables' patterns, built once per leaf and
        started from its first variable's pattern, and a polynomial the
        XOR of its monomials.

        The polynomials are taken fewest monomials first (a stable sort,
        so equal sizes keep their order): each one roughly halves the
        live points, so the cheap ones do most of the cutting, and the
        loop stops as soon as no point is left.
        """
        n = len(order)
        _check_cap(n)
        full = (1 << (1 << n)) - 1
        pattern = dict(zip(order, _var_patterns(patterns, n)))
        monomials = self.monomials
        tables: dict = {}  # a monomial's bit in the masks -> its table
        mask = full
        for e in sorted(eqs, key=int.bit_count):
            table = 0
            while e:
                bit = e & -e
                e ^= bit
                t = tables.get(bit)
                if t is None:
                    m = monomials[bit.bit_length() - 1]
                    low = m & -m
                    t = pattern[low] if m else full
                    m ^= low
                    while m:
                        low = m & -m
                        t &= pattern[low]
                        m ^= low
                    tables[bit] = t
                table ^= t
            mask &= full ^ table
            if not mask:
                break
        return mask
