"""GF(2^k) arithmetic and lowering field equations to Boolean systems.

Field elements are integers whose bit i is the coefficient of theta^i in
the polynomial basis defined by an irreducible modulus.  Addition is
XOR; multiplication is carry-less multiplication reduced by the
modulus.  Square roots are unique (Frobenius), and solvability of the
quadratics met along a Weierstrass curve is governed by the trace map.

A symbolic element carries one Boolean coordinate function per basis
power, so a polynomial equation over the field lowers to k Boolean
equations, one per coordinate.  That is the bridge to the system
solver: curve points can be enumerated either directly in the field or
through the Boolean route, and the two must agree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .boolalg import BoolAlgError, _FrozenRecord, const, var, xor_all
from .onset import term_chain
from .solver import (
    ENUMERATE,
    BoolSystem,
    SolverConfig,
    bool_solve,
    decompose,
)


class NotQuadratic(BoolAlgError):
    """The leading coefficient of a quadratic is zero."""


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_degree(m)
    while _poly_degree(a) >= dm and a:
        a ^= m << (_poly_degree(a) - dm)
    return a


def _poly_mulmod(a: int, b: int, m: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if _poly_degree(a) >= _poly_degree(m):
            a ^= m
    return acc


def _is_irreducible(m: int) -> bool:
    k = _poly_degree(m)
    if k < 1 or not (m & 1):
        return False
    for d in range(2, (1 << (k // 2 + 1))):
        if _poly_degree(d) >= 1 and _poly_mod(m, d) == 0:
            return False
    return True


class Field:
    """GF(2^k) in the polynomial basis of an irreducible modulus.

    Elements are ints in [0, 2^k); methods never allocate wrappers.
    """

    def __init__(self, modulus: int):
        if modulus < 0:
            raise ValueError(f"modulus {modulus:#x} is negative")
        k = _poly_degree(modulus)
        if k < 1:
            raise ValueError("modulus must have degree at least 1")
        if k > 16:
            raise ValueError("extension degree limited to 16")
        if not _is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self.modulus = modulus
        self.k = k
        self.size = 1 << k

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not 0 <= a < self.size:
                raise ValueError(f"{a} is not an element of GF(2^{self.k})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return _poly_mulmod(a, b, self.modulus)

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            return self.pow(self.inverse(a), -e)
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def sqrt(self, a: int) -> int:
        """The unique square root: squaring is a field automorphism."""
        return self.pow(a, 1 << (self.k - 1))

    def inverse(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.size - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inverse(b))

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^2 + ... + a^(2^(k-1)), landing in {0, 1}."""
        acc = a
        t = a
        for _ in range(self.k - 1):
            t = self.square(t)
            acc ^= t
        if acc not in (0, 1):
            raise AssertionError("trace left the prime subfield")
        return acc

    def elements(self) -> range:
        return range(self.size)

    def artin_schreier_root(self, s: int) -> Optional[int]:
        """The least u with u^2 + u = s, or None (exists iff trace is 0).

        u -> u^2 + u is GF(2)-linear with kernel {0, 1}, so the images
        of theta^1 .. theta^(k-1) are independent and span the image;
        eliminating s against them gives the root with bit 0 clear, the
        lesser of the two roots u and u + 1.
        """
        basis: dict = {}  # leading bit -> (image, preimage)
        for i in range(1, self.k):
            image, pre = self.square(1 << i) ^ (1 << i), 1 << i
            while image.bit_length() - 1 in basis:
                b_image, b_pre = basis[image.bit_length() - 1]
                image, pre = image ^ b_image, pre ^ b_pre
            basis[image.bit_length() - 1] = (image, pre)
        u = 0
        while s:
            top = basis.get(s.bit_length() - 1)
            if top is None:
                return None
            s, u = s ^ top[0], u ^ top[1]
        return u

    def solve_quadratic(self, p: int, q: int, r: int) -> set:
        """All T with p T^2 + q T + r = 0.

        With q = 0 the unique (double) root is sqrt(r/p).  Otherwise,
        scaling by s = p r / q^2 reduces to u^2 + u = s, solvable
        exactly when Tr(s) = 0, with the two roots mapped back through
        T = (q/p) u.  Every returned root is verified by substitution.
        """
        self._check(p, q, r)
        if p == 0:
            raise NotQuadratic("leading coefficient is zero")
        if q == 0:
            roots = {self.sqrt(self.div(r, p))}
        else:
            s = self.div(self.mul(p, r), self.square(q))
            if self.trace(s) == 1:
                return set()
            u = self.artin_schreier_root(s)
            scale = self.div(q, p)
            roots = {self.mul(scale, u), self.mul(scale, u ^ 1)}
        for t in roots:
            if self.mul(p, self.square(t)) ^ self.mul(q, t) ^ r:
                raise AssertionError("quadratic root failed verification")
        return roots

    def __repr__(self) -> str:
        return f"Field(modulus={self.modulus:#x}, k={self.k})"


#: The 8-element field used throughout the examples: theta^3 = theta + 1.
F8_MODULUS = 0b1011


# ---------------------------------------------------------------------------
# symbolic elements

class SymbolicElement(_FrozenRecord):
    """A field element whose coordinates are Boolean functions."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords: tuple):
        self._set(field, coords)

    @classmethod
    def from_constant(cls, field: Field, value: int) -> "SymbolicElement":
        field._check(value)
        return cls(field, tuple(const((value >> i) & 1) for i in range(field.k)))

    @classmethod
    def from_vars(cls, field: Field, ids: Sequence[int]) -> "SymbolicElement":
        if len(ids) != field.k:
            raise ValueError(f"need {field.k} coordinate variables")
        return cls(field, tuple(var(v) for v in ids))

    def __add__(self, other: "SymbolicElement") -> "SymbolicElement":
        self._same_field(other)
        return SymbolicElement(
            self.field,
            tuple(a ^ b for a, b in zip(self.coords, other.coords)),
        )

    def __mul__(self, other: "SymbolicElement") -> "SymbolicElement":
        """Carry-less product of coordinate functions, reduced mod the modulus."""
        self._same_field(other)
        k = self.field.k
        raw = [[] for _ in range(2 * k - 1)]
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                raw[i + j].append(a & b)
        coords = [list(raw[i]) for i in range(k)]
        for i in range(k, 2 * k - 1):
            # theta^i folds into powers below k via the modulus
            reduction = _poly_mod(1 << i, self.field.modulus)
            folded = xor_all(raw[i])
            for j in range(k):
                if (reduction >> j) & 1:
                    coords[j].append(folded)
        return SymbolicElement(self.field, tuple(xor_all(cs) for cs in coords))

    def _same_field(self, other: "SymbolicElement") -> None:
        if self.field is not other.field and self.field.modulus != other.field.modulus:
            raise ValueError("elements of different fields")

    def evaluate(self, assignment) -> int:
        value = 0
        for i, f in enumerate(self.coords):
            value |= f.eval(assignment) << i
        return value


def lower_to_boolean(
    element: SymbolicElement, variables: Optional[Sequence[int]] = None
) -> BoolSystem:
    """The Boolean system asserting that a symbolic element is zero.

    One equation per basis coordinate, over ``variables`` (default: the
    variables they mention); solutions of the system are in bijection
    with the field solutions of the original equation.
    """
    equations = [(f, const(0)) for f in element.coords]
    return BoolSystem.root(equations, variables)


# ---------------------------------------------------------------------------
# Weierstrass curves

class Curve(_FrozenRecord):
    """y^2 + a1 x y + a3 y + x^3 + a2 x^2 + a4 x + a6 = 0 over GF(2^k)."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6")

    def __init__(self, a1: int = 0, a2: int = 0, a3: int = 0, a4: int = 0, a6: int = 0):
        self._set(a1, a2, a3, a4, a6)

    def quadratic_in_y(self, field: Field, x: int) -> tuple:
        """Coefficients (p, q, r) of the quadratic satisfied by y at x."""
        q = field.add(field.mul(self.a1, x), self.a3)
        r = field.add(
            field.add(field.pow(x, 3), field.mul(self.a2, field.square(x))),
            field.add(field.mul(self.a4, x), self.a6),
        )
        return 1, q, r

    def symbolic_equation(
        self, field: Field, x_ids: Sequence[int], y_ids: Sequence[int]
    ) -> SymbolicElement:
        x = SymbolicElement.from_vars(field, x_ids)
        y = SymbolicElement.from_vars(field, y_ids)
        c = lambda v: SymbolicElement.from_constant(field, v)
        return (
            y * y
            + c(self.a1) * x * y
            + c(self.a3) * y
            + x * x * x
            + c(self.a2) * x * x
            + c(self.a4) * x
            + c(self.a6)
        )


FIELD_DIRECT = "field"
BOOLEAN_SOLVER = "boolean"


def curve_points_at_x(curve: Curve, field: Field, x: int) -> set:
    """All points of the curve with the given x coordinate."""
    p, q, r = curve.quadratic_in_y(field, x)
    return {(x, y) for y in field.solve_quadratic(p, q, r)}


def enumerate_curve(
    curve: Curve, field: Field, method: str = FIELD_DIRECT
) -> set:
    """All affine points (x, y) of the curve over the field.

    ``field`` substitutes every x and solves the resulting quadratic in
    y.  ``boolean`` lowers the curve equation to a Boolean system in the
    2k coordinate unknowns, splits it by the ON term chain over the x
    coordinates (highest power first, negative literals), and hands the
    pieces to the system solver.  Both methods return the same set.
    """
    if method == FIELD_DIRECT:
        points = set()
        for x in field.elements():
            points |= curve_points_at_x(curve, field, x)
        return points
    if method != BOOLEAN_SOLVER:
        raise ValueError(f"unknown method {method!r}")

    k = field.k
    x_ids = list(range(k))
    y_ids = list(range(k, 2 * k))
    equation = curve.symbolic_equation(field, x_ids, y_ids)
    system = lower_to_boolean(equation, x_ids + y_ids)
    chain = term_chain([(v, False) for v in reversed(x_ids)])
    cfg = SolverConfig(n0=2, split_depth=1, mode=ENUMERATE)
    points = set()
    for subsystem in decompose(system, chain):
        outcome = bool_solve(subsystem, cfg)
        for solution in outcome.solutions:
            for total in solution.expand():
                x = sum(total[v] << i for i, v in enumerate(x_ids))
                y = sum(total[v] << i for i, v in enumerate(y_ids))
                points.add((x, y))
    return points
