"""The five small value classes: constructors, equality, hashing,
immutability, repr text, pickling and copying.

``SolverConfig``, ``Solution``, ``SymbolicElement`` and ``Curve`` are
frozen and hashable; ``SolveOutcome`` is mutable and unhashable.
"""

import copy
import pickle
import re

import pytest

from onsat.boolalg import var
from onsat.gf2k import F8_MODULUS, Curve, Field, SymbolicElement
from onsat.solver import (
    DECIDE,
    ENUMERATE,
    SAT,
    UNSAT,
    Solution,
    SolveOutcome,
    SolverConfig,
)

F8 = Field(F8_MODULUS)


def element():
    return SymbolicElement(field=F8, coords=(var(0), var(1) ^ var(2), ~var(0)))


# each frozen class: a maker of equal instances, and one of its fields
FROZEN = {
    "SolverConfig": (lambda: SolverConfig(n0=2, split_depth=1, mode=ENUMERATE), "n0"),
    "Solution": (lambda: Solution.make({2: 1, 0: 0}, {5, 3}), "assignment"),
    "Curve": (lambda: Curve(a1=1, a6=1), "a1"),
    "SymbolicElement": (element, "coords"),
}
# the ones whose fields compare by value; Field compares by identity
BY_VALUE = [make() for make, _ in list(FROZEN.values())[:3]]


class TestConstructors:
    def test_solver_config_defaults(self):
        cfg = SolverConfig()
        assert (cfg.n0, cfg.split_depth, cfg.mode) == (16, 3, DECIDE)
        assert SolverConfig(4, 2, ENUMERATE) == SolverConfig(
            n0=4, split_depth=2, mode=ENUMERATE)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n0": 0}, "n0 must be at least 1"),
        ({"split_depth": 0}, "split_depth must be at least 1"),
        ({"mode": "count"}, "unknown mode 'count'"),
        # the checks run in field order
        ({"n0": 0, "split_depth": 0, "mode": "count"}, "n0 must be at least 1"),
    ])
    def test_solver_config_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverConfig(**kwargs)

    def test_curve_defaults(self):
        c = Curve()
        assert (c.a1, c.a2, c.a3, c.a4, c.a6) == (0, 0, 0, 0, 0)
        assert Curve(1, 2, 3, 4, 5) == Curve(a1=1, a2=2, a3=3, a4=4, a6=5)
        assert Curve(a6=1).a6 == 1

    def test_positional_and_keyword_fields(self):
        assert Solution(((0, 1),), (2,)) == Solution(
            assignment=((0, 1),), dont_care=(2,))
        out = SolveOutcome(status=SAT, solutions=[])
        assert (out.status, out.solutions) == (SAT, [])
        e = element()
        assert e.field is F8 and e.coords == (var(0), var(1) ^ var(2), ~var(0))


class TestEquality:
    def test_equal_by_fields(self):
        assert SolverConfig() == SolverConfig(16, 3, DECIDE)
        assert SolverConfig(n0=2) != SolverConfig()
        assert Curve(a1=1) != Curve(a2=1)
        assert Solution.make({0: 1}, ()) != Solution.make({0: 0}, ())
        assert element() == element()
        assert SolveOutcome(SAT, [Solution.make({0: 1}, ())]) == SolveOutcome(
            SAT, [Solution.make({0: 1}, ())])
        assert SolveOutcome(SAT, []) != SolveOutcome(UNSAT, [])

    def test_other_types_are_unequal(self):
        assert SolverConfig() != (16, 3, DECIDE)
        assert SolverConfig() != None  # noqa: E711
        assert SolverConfig().__eq__((16, 3, DECIDE)) is NotImplemented
        assert Curve() != (0, 0, 0, 0, 0)
        # same field values, another class
        assert Solution((), ()) != SolveOutcome((), ())
        assert SolveOutcome((), ()) != Solution((), ())
        assert Solution((), ()).__eq__(SolveOutcome((), ())) is NotImplemented

    @pytest.mark.parametrize("make, _", FROZEN.values(), ids=FROZEN)
    def test_frozen_classes_hash_by_value(self, make, _):
        value, twin = make(), make()
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert len({value, twin}) == 1

    def test_solve_outcome_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(SolveOutcome(SAT, []))


class TestImmutability:
    @pytest.mark.parametrize("make, name", FROZEN.values(), ids=FROZEN)
    def test_frozen_fields_reject_assignment(self, make, name):
        value = make()
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before

    def test_solve_outcome_is_mutable(self):
        out = SolveOutcome(UNSAT, [])
        out.status = SAT
        out.solutions.append(Solution.make({0: 1}, ()))
        assert out.sat and out == SolveOutcome(SAT, [Solution.make({0: 1}, ())])


class TestRepr:
    def test_exact_text(self):
        assert repr(SolverConfig()) == "SolverConfig(n0=16, split_depth=3, mode='decide')"
        sol = Solution.make({2: 1, 0: 0}, {5, 3})
        assert repr(sol) == "Solution(assignment=((0, 0), (2, 1)), dont_care=(3, 5))"
        assert repr(SolveOutcome(SAT, [sol])) == (
            "SolveOutcome(status='SAT', solutions=["
            "Solution(assignment=((0, 0), (2, 1)), dont_care=(3, 5))])")
        assert repr(Curve(a1=1, a6=1)) == "Curve(a1=1, a2=0, a3=0, a4=0, a6=1)"
        e = element()
        assert repr(e) == f"SymbolicElement(field={F8!r}, coords={e.coords!r})"


class TestPickleAndCopy:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for value in BY_VALUE + [SolveOutcome(SAT, [BY_VALUE[1]])]:
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value
            assert repr(back) == repr(value)
        e = element()
        back = pickle.loads(pickle.dumps(e, protocol))
        # Field compares by identity, so compare what it is made of
        assert back.coords == e.coords and back.field.modulus == e.field.modulus

    def test_deepcopy_and_copy(self):
        for value in BY_VALUE:
            assert copy.deepcopy(value) == value and copy.copy(value) == value
        out = SolveOutcome(SAT, [BY_VALUE[1]])
        deep = copy.deepcopy(out)
        assert deep == out and deep.solutions is not out.solutions
        assert copy.copy(out).solutions is out.solutions
        e = element()
        deep = copy.deepcopy(e)
        assert deep.coords == e.coords and deep.field is not e.field
        assert copy.copy(e).field is e.field

    def test_frozen_copies_stay_frozen(self):
        back = pickle.loads(pickle.dumps(SolverConfig()))
        with pytest.raises(AttributeError):
            back.n0 = 2


class TestSolution:
    def test_make_sorts_both_parts(self):
        sol = Solution.make({3: 1, 1: 0}, [7, 2])
        assert sol.assignment == ((1, 0), (3, 1)) and sol.dont_care == (2, 7)
        assert sol.as_dict() == {1: 0, 3: 1}

    def test_expand_first_dont_care_most_significant(self):
        sol = Solution.make({1: 1}, {4, 0})
        assert list(sol.expand()) == [
            {1: 1, 0: 0, 4: 0},
            {1: 1, 0: 0, 4: 1},
            {1: 1, 0: 1, 4: 0},
            {1: 1, 0: 1, 4: 1},
        ]
        assert sol.expanded_count() == 4
        assert list(Solution.make({}, ()).expand()) == [{}]

    def test_outcome_sat(self):
        assert SolveOutcome(SAT, []).sat and not SolveOutcome(UNSAT, []).sat
