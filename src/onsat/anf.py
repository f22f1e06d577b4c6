"""Polynomials over GF(2) in algebraic normal form (ANF).

An ANF is an XOR of monomials: a monomial is a bitmask over variable
bits, and 0 is the constant monomial 1.  One solve numbers its
monomials in an :class:`Index` and holds each polynomial, from
conversion to leaf, as one int, bit i standing for monomial i, as a
Macaulay matrix holds its rows over one basis.  XOR is int XOR, and a
product (:meth:`Index.product`) multiplies out pairwise with x * x = x,
a monomial that appears twice cancelling.

A system is converted only when its polynomials are no larger than
its expressions: when they hold more monomials than the expressions
have distinct nodes, the converter raises :class:`OverBudget`, so a
caller can keep it in expression form.  An OR of k positive literals
is 2k - 1 nodes but 2^k - 1 monomials; on clause-like systems of such
ORs the expression-tree search was measured faster, and on the
quadratic systems of GF(2^k) curves and of planted MQ (0.1 to 0.5
monomials per node) the polynomial search.  Every polynomial and
conversion product is also bounded by :data:`BUDGET`, so that
substitution cannot blow up.

With ``has[b]`` the bitset of the monomials that hold variable bit b,
setting b to 0 is ``e & ~has[b]``, and setting it to 1 XORs the hit
monomials out and their images without b in; an equation is affine
when it meets no nonlinear monomial, and a bit's frequency is the
popcount of ``e & has[b]``.  Leaf tables read the monomials of a mask
back from the index.  A leaf equation ``x_p ^ g = 0`` in which p
occurs only in the monomial {p} defines x_p as g, so a leaf's first
table runs over the bits that no equation defines, each point being
one solution that fixes every defined bit.  A leaf with at most
:data:`SCATTER` such points gives their indices in its full table, so
that its cost follows its points, not its width; only a leaf with
more, or with no defined bit, tabulates over all its bits.
The search makes a node a leaf by its undefined bits, so the first
table is the one that guess-and-determine solvers enumerate, and each
defined bit halves it.  The definitions are picked on bitsets: a
least-damage walk takes at each step the polynomial that mentions the
fewest of the bits still definable, and the greedy walk fewest
monomials first stands in where it defines more.

An affine equation (every monomial of degree <= 1) is a row: its
variable bits plus a constant bit above all of them.  Gauss-Jordan
elimination turns a set of rows into bindings ``pivot = row ^ pivot``,
each pivot being absent from every other binding.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Mapping, Optional, Sequence, Union

from .boolalg import (
    AND, CONST, NOT, VAR, XOR, BoolFunc, _check_cap, _indices, _var_patterns,
)

#: Most monomials in one polynomial, and most monomial pairs in one
#: conversion product; past either the conversion or the elimination
#: gives up.  The benchmark's systems stay far below it (45 monomials
#: at most).
BUDGET = 1 << 10


class OverBudget(Exception):
    """A polynomial or a product outgrew :data:`BUDGET`, or a system's
    polynomials outgrew its expressions."""


def _checked(e: int) -> int:
    if e.bit_count() > BUDGET:
        raise OverBudget(f"more than {BUDGET} monomials")
    return e


def from_expr(f: BoolFunc, bit: Mapping[int, int], index: "Index", memo: dict) -> int:
    """The ANF of an expression as a mask of ``index``; ``bit`` maps
    variable ids to bits.

    A post-order walk of the DAG without recursion.  ``memo`` maps node
    ids to masks and may be shared by expressions over one ``bit`` and
    one ``index``.
    """
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in memo:
            stack.pop()
            continue
        k = g.kind
        if k == VAR:
            r = index.mask((bit[g.var],))
        elif k == CONST:
            r = index.mask((0,)) if g.value else 0
        else:
            a = memo.get(id(g.left))
            if a is None:
                stack.append(g.left)
                continue
            if k == NOT:
                r = a ^ index.mask((0,))
            else:
                b = memo.get(id(g.right))
                if b is None:
                    stack.append(g.right)
                    continue
                if k == XOR:
                    r = _checked(a ^ b)
                else:
                    if a.bit_count() * b.bit_count() > BUDGET:
                        raise OverBudget(
                            f"product of {a.bit_count()} by {b.bit_count()} monomials")
                    ab = _checked(index.product(a, b))
                    r = ab if k == AND else _checked(a ^ b ^ ab)
        memo[id(g)] = r
        stack.pop()
    return memo[id(f)]


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
    """The monomials of one solve, each with its bit in the solve's masks.

    A polynomial is an int whose bit ``1 << i`` stands for monomial
    ``monomials[i]``; ``at`` maps a monomial back to i.  ``has[b]`` is
    the mask of the monomials that hold variable bit b, ``linear`` the
    mask of those of degree 1 and ``nonlinear`` of those of degree 2 or
    more.  A monomial is indexed when it first appears, in conversion or
    in the search, and stays for the solve, so every mask of the solve
    keeps its meaning.
    """

    __slots__ = ("monomials", "at", "has", "linear", "nonlinear")

    def __init__(self):
        self.monomials: list = []
        self.at: dict = {}
        self.has: dict = {}
        self.linear = self.nonlinear = 0

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
                elif m:
                    self.linear |= 1 << i
            out |= 1 << i
        return out

    def product(self, a: int, b: int) -> int:
        """The product of two polynomials: their monomials multiply out
        pairwise, x * x = x, and a monomial that comes up twice cancels.

        No budget is checked here; a caller checks what it needs.
        """
        monomials, at = self.monomials, self.at
        right = [monomials[j] for j in _indices(b)]
        out = 0
        for i in _indices(a):
            m = monomials[i]
            for n in right:
                p = m | n
                j = at.get(p)
                out ^= self.mask((p,)) if j is None else 1 << j
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
        folded: their images without it, times ``rest``.  With none, e
        itself is returned.  Raises OverBudget when the result holds
        more than :data:`BUDGET` monomials.
        """
        hit = e & self.has.get(pivot, 0)
        if not hit:
            return e
        (images,) = self.cofactor((hit,), pivot, 1)
        form = self.mask([0 if t == cbit else t for t in bits_of(rest)])
        return _checked(e ^ hit ^ self.product(images, form))

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

    def zero_table(self, eqs: Sequence[int], order: Sequence[int], patterns: dict,
                   pick: Optional[tuple] = None,
                   full: bool = True) -> Union[int, tuple, None]:
        """Truth table of the points where every polynomial is 0.

        The table is an int mask, or, for a leaf of at most
        :data:`SCATTER` points, the sorted tuple of their indices (see
        :func:`_scatter`); :func:`boolalg._cubes` takes either.

        ``order`` lists the variable bits, most significant point bit
        first, as in :func:`boolalg.truth_table`; the polynomials mention
        no other bits.  ``patterns`` is the solve's pattern table (see
        :func:`boolalg._var_patterns`), shared by every leaf.  ``pick``
        is the polynomials' :meth:`_definitions`, when the caller has
        made it already.

        A polynomial ``x_p ^ g`` in which bit p occurs only as the
        monomial {p} defines x_p as g, so the first pass tabulates over
        the undefined bits only: each defined bit's pattern is the table
        of its g, and only the other polynomials cut.  Each point of
        that reduced table is one solution and fixes every defined bit
        through that bit's table, so an empty one means an empty leaf,
        and one of at most :data:`SCATTER` points gives each point's
        index in the full table, which is never built.  Only a leaf with
        more points, or with no defined bit, runs the full pass over
        ``order``; with ``full`` false, such a leaf gives None instead.
        A pass takes the polynomials fewest monomials first: each one
        roughly halves the live points, so the cheap ones do most of the
        cutting, and it stops as soon as no point is left.
        """
        n = len(order)
        _check_cap(n)
        defs, others = self._definitions(eqs) if pick is None else pick
        if defs:
            defined = sum(p for p, _ in defs)
            free = [b for b in order if not b & defined]
            mask, pattern = self._tabulate(free, defs, others, patterns)
            if mask.bit_count() <= SCATTER:
                return _scatter(mask, free, pattern, order)
        if not full:
            return None
        return self._tabulate(order, (), sorted(eqs, key=int.bit_count), patterns)[0]

    def _definitions(self, eqs: Sequence[int], need: int = 0) -> Optional[tuple]:
        """The (p, g) pairs of the polynomials that define a bit, in
        pick order, and the other polynomials, fewest monomials first;
        or None when fewer than ``need`` bits are defined.

        A polynomial's candidates are the bits p that occur in it only
        as the monomial {p}; defining one uses every bit the polynomial
        mentions, so a g mentions only the undefined bits and the bits
        defined before it.  ``reach`` is the union of the candidates
        that no picked polynomial mentions.  The greedy walk takes the
        polynomials fewest monomials first (a stable sort), each that
        still has a candidate; the least-damage walk
        (:func:`_least_damage`) takes at each step one that mentions the
        fewest bits of ``reach``.  Each defines its lowest candidate
        left, and the greedy pick stands unless the other defines more.
        Which bits are defined changes the reduced table, not the
        node's points.

        A pick defines at most one bit per polynomial with a candidate
        and one per bit of ``reach``, so the pick gives up before either
        walk when that count falls short of ``need``, and the
        least-damage walk runs only when the greedy one falls short of it.
        """
        monomials, has, linear = self.monomials, self.has, self.linear
        live = []  # (polynomial, position, candidates) of each one with a candidate
        reach = 0
        for i, e in enumerate(eqs):
            lin = e & linear
            cands = 0
            while lin:
                bit = lin & -lin
                lin ^= bit
                p = monomials[bit.bit_length() - 1]
                if e & has[p] == bit:
                    cands |= p
            if cands:
                live.append((e, i, cands))
                reach |= cands
        most = min(len(live), reach.bit_count())
        if most < need:
            return None
        reached = []  # (q, has[q]) of each bit q of reach
        rest = reach
        while rest:
            q = rest & -rest
            rest ^= q
            reached.append((q, has[q]))
        blocks = []  # (monomials, position, candidates, bits of reach mentioned)
        for e, i, c in live:
            v = 0
            for q, h in reached:
                if e & h:
                    v |= q
            blocks.append((e.bit_count(), i, c, v))
        blocks.sort()
        picks, unused = [], reach
        for _, i, c, v in blocks:
            c &= unused
            if c:
                picks.append((c & -c, i))
                unused &= ~v
        if len(picks) < most:
            picks = max(picks, _least_damage(blocks, reach), key=len)  # greedy on a tie
            if len(picks) < need:
                return None
        at = self.at
        picked = {i for _, i in picks}
        return ([(p, eqs[i] ^ 1 << at[p]) for p, i in picks],
                sorted([e for i, e in enumerate(eqs) if i not in picked], key=int.bit_count))

    def _tabulate(self, order: Sequence[int], defs: Sequence[tuple], eqs: Sequence[int],
                  patterns: dict) -> tuple:
        """The mask of the points over ``order`` where every polynomial
        of ``eqs`` is 0, each defined bit p of ``defs`` standing for the
        table of its g, built in order; and the table of each bit, by
        bit.

        A monomial is the AND of its variables' patterns, built once per
        pass and started from its first variable's pattern, and a
        polynomial the XOR of its monomials.
        """
        n = len(order)
        full = (1 << (1 << n)) - 1
        pattern = dict(zip(order, _var_patterns(patterns, n)))
        monomials = self.monomials
        tables: dict = {}  # a monomial's bit in the masks -> its table
        mask = full
        for p, e in chain(defs, zip(repeat(0), eqs)):
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
            if p:
                pattern[p] = table
                continue
            mask &= full ^ table
            if not mask:
                break
        return mask, pattern


def _least_damage(blocks: list, reach: int) -> list:
    """The (p, position) picks of the least-damage walk of
    :meth:`Index._definitions`.

    ``blocks`` holds a (monomials, position, candidates, bits of
    ``reach`` mentioned) tuple for each polynomial with a candidate.
    Each step picks the polynomial that mentions the fewest bits of
    ``reach``, ties going to its lowest candidate and then to the
    earlier position, and takes the bits it mentions out of ``reach``.
    """
    picks = []
    while blocks:
        best = None
        for _, i, c, v in blocks:
            key = ((v & reach).bit_count(), c & -c, i)
            if best is None or key < best:
                best, used = key, v
        _, p, i = best
        picks.append((p, i))
        reach &= ~used
        blocks = [(n, j, k, v) for n, j, c, v in blocks if (k := c & reach)]
    return picks


#: Most points of a reduced table that :meth:`Index.zero_table` hands
#: on as their indices in the full table.  A leaf with more runs the
#: full pass, and a node above n0 with more splits instead
#: (``solver._AnfSearch``).
SCATTER = 64


def _scatter(mask: int, free: Sequence[int], pattern: dict, order: Sequence[int]) -> tuple:
    """The sorted indices over ``order`` of the points of a reduced table.

    ``mask`` is the reduced table over ``free``, and ``pattern`` maps
    each defined bit of ``order`` to its table over ``free``.  A point's
    index over ``order`` adds up the weights of the bits that are 1
    there: a free bit is 1 where the reduced index has it, and a
    defined bit where its table does.  The tables are read as bytes,
    since a shift on a wide int copies all of it; nothing of the full
    table's size is built.
    """
    if not mask:
        return ()
    n, k = len(order), len(free)
    size = max(1, (1 << k) >> 3)
    weight = {b: 1 << (n - 1 - i) for i, b in enumerate(order)}
    # each free bit's weight in the reduced index and in the full one;
    # the bits left in ``weight`` are the defined ones
    lifts = [(1 << (k - 1 - j), weight.pop(b)) for j, b in enumerate(free)]
    tables = [(w, pattern[b].to_bytes(size, "little")) for b, w in weight.items()]
    points = []
    for i in _indices(mask):
        byte, shift = i >> 3, i & 7
        points.append(sum([w for r, w in lifts if i & r])
                      + sum([w for w, table in tables if table[byte] >> shift & 1]))
    points.sort()
    return tuple(points)
