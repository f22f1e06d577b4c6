"""Orthonormal expansions and consistency conditions.

A function expands over an ON set as a coefficient-weighted sum of the
members.  Coefficients are not unique: anything in the interval between
f*phi_i and f + phi_i' works.  Two concrete choices are provided:

* ``canonical`` takes the lower end of the interval, f*phi_i, and always
  exists;
* ``ratio`` takes the cofactor f/t_i and exists only when the members
  are terms, in which case each coefficient mentions only the free
  variables.

Consistency of f = 0 relates to the coefficients: the one-way necessity
and sufficiency conditions are exposed for study, while the exact
support-based test drives the solver.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .boolalg import (
    Assignment,
    BoolAlgError,
    BoolFunc,
    and_,
    cofactor,
    conjugate,
    _point,
    index_to_assignment,
    not_,
    or_,
    or_all,
    substitute,
    truth_table,
    xor,
)
from .onset import OnSet

CANONICAL = "canonical"
RATIO = "ratio"


class ExpansionError(BoolAlgError):
    """Base class for expansion errors."""


class RatioUnavailable(ExpansionError):
    """Ratio coefficients were requested on a non-term ON set."""


class BaseMismatch(ExpansionError):
    """Operands expand over different ON sets."""


class ArityMismatch(ExpansionError):
    """Composition received the wrong number of inner expansions."""


class VariableAbsent(ExpansionError):
    """The eliminated variable does not occur in the function."""


class OnExpansion:
    """A function together with its coefficients over an ON set."""

    __slots__ = ("func", "base", "coefficients", "choice")

    def __init__(
        self,
        func: BoolFunc,
        base: OnSet,
        coefficients: Sequence[BoolFunc],
        choice: str = CANONICAL,
    ):
        if len(coefficients) != base.order:
            raise ArityMismatch("one coefficient per ON member required")
        self.func = func
        self.base = base
        self.coefficients = tuple(coefficients)
        self.choice = choice

    def reconstruct(self) -> BoolFunc:
        """Sum of coefficient * member; semantically equal to func."""
        return or_all(
            [and_(a, phi) for a, phi in zip(self.coefficients, self.base.members)]
        )

    def __repr__(self) -> str:
        return f"OnExpansion(order={self.base.order}, choice={self.choice})"


def expand(f: BoolFunc, base: OnSet, choice: Optional[str] = None) -> OnExpansion:
    """Expand f over an ON set with the requested coefficient choice.

    ``choice`` defaults to ratio for term bases and canonical otherwise.
    """
    if choice is None:
        choice = RATIO if base.terms is not None else CANONICAL
    if choice == CANONICAL:
        coeffs = [and_(f, phi) for phi in base.members]
    elif choice == RATIO:
        if base.terms is None:
            raise RatioUnavailable("ratio coefficients need a base of terms")
        coeffs = [cofactor(f, t) for t in base.terms]
    else:
        raise ValueError(f"unknown coefficient choice {choice!r}")
    return OnExpansion(f, base, coeffs, choice)


def _require_same_base(e1: OnExpansion, e2: OnExpansion) -> None:
    if e1.base is not e2.base and e1.base != e2.base:
        raise BaseMismatch("expansions use different ON sets")


def combine(e1: OnExpansion, e2: OnExpansion, op: str) -> OnExpansion:
    """Coefficient-wise AND / OR / XOR of two expansions over one base."""
    _require_same_base(e1, e2)
    ops = {"and": and_, "or": or_, "xor": xor}
    try:
        fn = ops[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    coeffs = [fn(a, b) for a, b in zip(e1.coefficients, e2.coefficients)]
    return OnExpansion(fn(e1.func, e2.func), e1.base, coeffs, "derived")


def negate(e: OnExpansion) -> OnExpansion:
    """Complement an expansion coefficient-wise."""
    return OnExpansion(
        not_(e.func), e.base, [not_(a) for a in e.coefficients], "derived"
    )


def compose(f: BoolFunc, inner: Sequence[OnExpansion]) -> OnExpansion:
    """Expansion of f applied to expanded arguments.

    ``inner`` supplies one expansion per variable of f (sorted order),
    all over the same base.  The j-th output coefficient substitutes the
    j-th coefficients of the inner expansions into f.
    """
    variables = sorted(f.vars)
    inner = list(inner)
    if len(inner) != len(variables):
        raise ArityMismatch(
            f"{len(variables)} inner expansions required, got {len(inner)}"
        )
    if inner:
        base = inner[0].base
        for e in inner[1:]:
            _require_same_base(inner[0], e)
    else:
        raise ArityMismatch("composition needs at least one inner expansion")
    coeffs = []
    for j in range(base.order):
        coeffs.append(
            substitute(f, {v: e.coefficients[j] for v, e in zip(variables, inner)})
        )
    composed = substitute(f, {v: e.func for v, e in zip(variables, inner)})
    return OnExpansion(composed, base, coeffs, "derived")


def necessary_condition(e: OnExpansion) -> list:
    """Indices whose coefficient can vanish somewhere.

    If f = 0 is consistent some index must appear here; the converse
    does not hold, so a nonempty result proves nothing by itself.  An
    empty result proves f = 0 inconsistent.
    """
    out = []
    for i, a in enumerate(e.coefficients):
        order = sorted(a.vars)
        table = truth_table(a, order)
        if table != (1 << (1 << len(order))) - 1:
            out.append(i)
    return out


def sufficient_condition(e: OnExpansion) -> Optional[Assignment]:
    """A point where every coefficient vanishes, if one exists.

    Such a point always satisfies f = 0; absence of one proves nothing.
    The returned assignment covers the variables of f, the base and the
    coefficients (unconstrained ones pinned to 0).
    """
    coeff_vars = sorted(set().union(*(a.vars for a in e.coefficients))
                        if e.coefficients else set())
    n = len(coeff_vars)
    acc = 0
    for a in e.coefficients:
        acc |= truth_table(a, coeff_vars)
    if acc == (1 << (1 << n)) - 1:
        return None
    idx = (~acc & (acc + 1)).bit_length() - 1  # the lowest 0 bit
    rest = (e.func.vars | e.base.vars) - set(coeff_vars)
    return Assignment({**dict.fromkeys(rest, 0), **_point(idx, coeff_vars)})


def minterm_consistency(f: BoolFunc, x1: Iterable[int]) -> bool:
    """Exact consistency of f = 0 via the minterm basis over x1.

    The coefficients of the minterm expansion are the cofactors of f at
    all assignments of x1; f = 0 is consistent exactly when their
    product over the remaining variables has a zero.
    """
    x1 = sorted(set(x1))
    if not set(x1) <= f.vars:
        missing = min(set(x1) - f.vars)
        raise VariableAbsent(f"x{missing} not in function")
    x2 = sorted(f.vars - set(x1))
    order = x1 + x2
    table = truth_table(f, order)
    block = 1 << len(x2)
    ones = (1 << block) - 1
    product = ones
    for i in range(1 << len(x1)):
        product &= (table >> (i * block)) & ones
        if product == 0:
            break
    return product != ones


def consistency_via_support(e: OnExpansion) -> Optional[tuple[int, Assignment]]:
    """Exact consistency test for f = 0 through the member supports.

    Returns (k, q) with q in the support of member k and f(q) = 0, or
    None exactly when f = 0 is inconsistent.
    """
    universe = sorted(e.func.vars | e.base.vars)
    f_table = truth_table(e.func, universe)
    for k, phi in enumerate(e.base.members):
        phi_table = truth_table(phi, universe)
        hit = phi_table & ~f_table
        if hit:
            idx = (hit & -hit).bit_length() - 1
            return k, index_to_assignment(idx, universe)
    return None


def eliminant(f: BoolFunc, x: int) -> BoolFunc:
    """Product of the two cofactors of f along x.

    Its zeros are exactly the projection of the zeros of f onto the
    remaining variables, which is what variable elimination needs.
    """
    if x not in f.vars:
        raise VariableAbsent(f"x{x} not in function")
    return and_(cofactor(f, {x: 1}), cofactor(f, {x: 0}))


def conjugate_expansion(e: OnExpansion) -> OnExpansion:
    """Conjugate the function, the base and every coefficient."""
    base = OnSet([conjugate(phi) for phi in e.base.members])
    coeffs = [conjugate(a) for a in e.coefficients]
    return OnExpansion(conjugate(e.func), base, coeffs, "derived")
