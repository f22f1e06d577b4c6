import random

import pytest

from onsat.boolalg import Assignment
from onsat.gf2k import (
    BOOLEAN_SOLVER,
    F8_MODULUS,
    FIELD_DIRECT,
    Curve,
    Field,
    NotQuadratic,
    SymbolicElement,
    _is_irreducible,
    curve_points_at_x,
    enumerate_curve,
    lower_to_boolean,
)
from onsat.solver import ENUMERATE, SolverConfig, bool_solve

F8 = Field(F8_MODULUS)
F16 = Field(0b10011)  # t^4 + t + 1

THETA = 0b010
SQRT_THETA = 0b110  # theta^2 + theta


def cfg():
    return SolverConfig(n0=2, split_depth=1, mode=ENUMERATE)


class TestFieldArithmetic:
    def test_modulus_relation(self):
        # theta^3 reduces to theta + 1
        assert F8.mul(THETA, F8.square(THETA)) == 0b011

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            Field(0b1111)  # (t+1)(t^2+t+1)

    @pytest.mark.parametrize("modulus", [-0xB, -0x3, -0x7, -0x13, -1])
    def test_negative_modulus_rejected(self, modulus):
        # -0xb once built "GF(2^3)" from the bit length of |m|
        with pytest.raises(ValueError, match=f"modulus {modulus:#x} is negative"):
            Field(modulus)

    def test_addition_is_xor(self):
        for a in F8.elements():
            for b in F8.elements():
                assert F8.add(a, b) == a ^ b

    def test_field_axioms_spotwise(self):
        for a in F8.elements():
            for b in F8.elements():
                assert F8.mul(a, b) == F8.mul(b, a)
                for c in F8.elements():
                    assert F8.mul(a, F8.add(b, c)) == \
                        F8.add(F8.mul(a, b), F8.mul(a, c))

    def test_inverse(self):
        for a in range(1, F8.size):
            assert F8.mul(a, F8.inverse(a)) == 1
        with pytest.raises(ZeroDivisionError):
            F8.inverse(0)

    def test_sqrt_of_theta(self):
        assert F8.sqrt(THETA) == SQRT_THETA
        assert F8.square(SQRT_THETA) == THETA

    def test_sqrt_square_roundtrip(self):
        for field in (F8, F16):
            for a in field.elements():
                assert field.square(field.sqrt(a)) == a
                assert field.sqrt(field.square(a)) == a

    def test_element_range_checked(self):
        with pytest.raises(ValueError):
            F8.mul(8, 1)


class TestTrace:
    def test_trace_of_zero(self):
        assert F8.trace(0) == 0

    def test_trace_of_example_element(self):
        assert F8.trace(0b111) == 1  # 1 + theta + theta^2

    def test_trace_is_balanced(self):
        assert sum(F8.trace(a) for a in F8.elements()) == 4

    def test_trace_linearity(self):
        for modulus in (0b11, 0b111, 0b1011, 0b10011):
            field = Field(modulus)
            for a in field.elements():
                for b in field.elements():
                    assert field.trace(a ^ b) == field.trace(a) ^ field.trace(b)

    def test_artin_schreier_kernel(self):
        for s in F8.elements():
            u = F8.artin_schreier_root(s)
            if F8.trace(s) == 0:
                assert u is not None and F8.square(u) ^ u == s
            else:
                assert u is None

    @pytest.mark.parametrize("k", range(1, 9))
    def test_artin_schreier_matches_exhaustive_scan(self, k):
        # the least root by scanning every element, for every s, in a few
        # random irreducible fields of each degree
        rng = random.Random(k)
        moduli = [m for m in range(1 << k, 1 << (k + 1)) if _is_irreducible(m)]
        for modulus in rng.sample(moduli, min(3, len(moduli))):
            field = Field(modulus)
            for s in field.elements():
                least = next((u for u in field.elements()
                              if field.square(u) ^ u == s), None)
                assert field.artin_schreier_root(s) == least, (modulus, s)


class TestQuadratic:
    def test_no_solution_when_trace_one(self):
        assert F8.solve_quadratic(1, 1, 0b111) == set()

    def test_double_root_when_linear_term_vanishes(self):
        assert F8.solve_quadratic(1, 0, THETA) == {SQRT_THETA}

    def test_degenerate_rejected(self):
        with pytest.raises(NotQuadratic):
            F8.solve_quadratic(0, 1, 1)

    def test_matches_exhaustive_substitution(self):
        rng = random.Random(99)
        for field in (F8, F16):
            for _ in range(60):
                p = rng.randrange(1, field.size)
                q = rng.randrange(field.size)
                r = rng.randrange(field.size)
                got = field.solve_quadratic(p, q, r)
                expected = {
                    t
                    for t in field.elements()
                    if field.mul(p, field.square(t)) ^ field.mul(q, t) ^ r == 0
                }
                assert got == expected
                assert len(got) in (0, 1, 2)


class TestSymbolic:
    def test_constant_coordinates(self):
        e = SymbolicElement.from_constant(F8, 0b101)
        assert [f.value for f in e.coords] == [1, 0, 1]

    def test_symbolic_matches_field_ops(self):
        rng = random.Random(5)
        ids_a = [0, 1, 2]
        ids_b = [3, 4, 5]
        a = SymbolicElement.from_vars(F8, ids_a)
        b = SymbolicElement.from_vars(F8, ids_b)
        for expr, direct in (
            (a + b, F8.add),
            (a * b, F8.mul),
        ):
            for _ in range(30):
                va = rng.randrange(8)
                vb = rng.randrange(8)
                point = Assignment(
                    {i: (va >> i) & 1 for i in range(3)}
                    | {3 + i: (vb >> i) & 1 for i in range(3)}
                )
                assert expr.evaluate(point) == direct(va, vb)

    def test_symbolic_square_matches(self):
        a = SymbolicElement.from_vars(F16, [0, 1, 2, 3])
        sq = a * a
        for v in F16.elements():
            point = Assignment({i: (v >> i) & 1 for i in range(4)})
            assert sq.evaluate(point) == F16.square(v)


class TestLowering:
    def test_linear_equation_fixes_coordinates(self):
        # x + c = 0 forces x = c coordinate by coordinate
        c = 0b101
        x = SymbolicElement.from_vars(F8, [0, 1, 2])
        system = lower_to_boolean(x + SymbolicElement.from_constant(F8, c))
        assert len(system.equations) == 3
        out = bool_solve(system, cfg())
        totals = [t for s in out.solutions for t in s.expand()]
        assert len(totals) == 1
        got = sum(totals[0][i] << i for i in range(3))
        assert got == c

    def test_square_equation_finds_sqrt(self):
        x = SymbolicElement.from_vars(F8, [0, 1, 2])
        theta = SymbolicElement.from_constant(F8, THETA)
        system = lower_to_boolean(x * x + theta)
        out = bool_solve(system, cfg())
        totals = [t for s in out.solutions for t in s.expand()]
        assert len(totals) == 1
        got = sum(totals[0][i] << i for i in range(3))
        assert got == SQRT_THETA

    def test_curve_lowers_to_three_equations_in_six_unknowns(self):
        curve = Curve(a1=1, a2=0b011, a6=THETA)
        equation = curve.symbolic_equation(F8, [0, 1, 2], [3, 4, 5])
        system = lower_to_boolean(equation, list(range(6)))
        assert len(system.equations) == 3
        assert system.vars == frozenset(range(6))

    def test_round_trip_bijection(self):
        curve = Curve(a1=1, a2=0b011, a4=0b111, a6=THETA)
        equation = curve.symbolic_equation(F8, [0, 1, 2], [3, 4, 5])
        system = lower_to_boolean(equation, list(range(6)))
        field_points = enumerate_curve(curve, F8, FIELD_DIRECT)
        for x, y in field_points:
            point = {i: (x >> i) & 1 for i in range(3)}
            point.update({3 + i: (y >> i) & 1 for i in range(3)})
            for lhs, rhs in system.equations:
                assert lhs.eval(Assignment(point)) == rhs.eval(Assignment(point))
        out = bool_solve(system, cfg())
        got = set()
        for s in out.solutions:
            for t in s.expand():
                got.add(
                    (
                        sum(t[i] << i for i in range(3)),
                        sum(t[3 + i] << i for i in range(3)),
                    )
                )
        assert got == field_points


class TestCurveEnumeration:
    # coefficients reconstructed from the worked quadratics: the x = 1
    # substitution must give the constant 1 + theta + theta^2
    CURVE = Curve(a1=1, a2=0b011, a4=0b111, a6=THETA)

    def test_point_at_x_zero(self):
        assert curve_points_at_x(self.CURVE, F8, 0) == {(0, SQRT_THETA)}

    def test_no_points_at_x_one(self):
        _, q, r = self.CURVE.quadratic_in_y(F8, 1)
        assert q == 1 and r == 0b111
        assert F8.trace(F8.mul(r, F8.inverse(F8.square(q)))) == 1
        assert curve_points_at_x(self.CURVE, F8, 1) == set()

    def test_two_points_at_theta_and_theta_plus_one(self):
        assert len(curve_points_at_x(self.CURVE, F8, THETA)) == 2
        assert len(curve_points_at_x(self.CURVE, F8, THETA ^ 1)) == 2

    def test_methods_agree_on_the_example_curve(self):
        direct = enumerate_curve(self.CURVE, F8, FIELD_DIRECT)
        boolean = enumerate_curve(self.CURVE, F8, BOOLEAN_SOLVER)
        assert direct == boolean
        assert len(direct) == 13

    def test_methods_agree_on_random_curves(self):
        rng = random.Random(424242)
        for field in (F8, F16):
            for _ in range(10):
                curve = Curve(
                    a1=rng.randrange(field.size),
                    a2=rng.randrange(field.size),
                    a3=rng.randrange(field.size),
                    a4=rng.randrange(field.size),
                    a6=rng.randrange(field.size),
                )
                direct = enumerate_curve(curve, field, FIELD_DIRECT)
                boolean = enumerate_curve(curve, field, BOOLEAN_SOLVER)
                assert direct == boolean

    def test_methods_agree_on_a_degree_8_curve(self):
        # affordable on the Boolean route because the coordinate equations
        # are solved as GF(2) polynomials: affine in y once x is fixed
        field = Field(0x11B)
        curve = Curve(a1=1, a2=1, a6=3)
        boolean = enumerate_curve(curve, field, BOOLEAN_SOLVER)
        assert boolean == enumerate_curve(curve, field, FIELD_DIRECT)
        assert len(boolean) == 239

    def test_every_point_satisfies_the_curve(self):
        for x, y in enumerate_curve(self.CURVE, F8, FIELD_DIRECT):
            lhs = F8.square(y)
            lhs ^= F8.mul(self.CURVE.a1, F8.mul(x, y))
            lhs ^= F8.pow(x, 3)
            lhs ^= F8.mul(self.CURVE.a2, F8.square(x))
            lhs ^= F8.mul(self.CURVE.a4, x)
            lhs ^= self.CURVE.a6
            assert lhs == 0
