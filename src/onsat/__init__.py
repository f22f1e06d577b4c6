"""Boolean equation solving by orthonormal-term decomposition.

The package decides satisfiability of, and enumerates all solutions to,
systems of Boolean equations over {0, 1}.  CNF problems get a
specialized path that generalizes DPLL splitting to multi-variable term
chains, and a GF(2^k) front-end lowers finite-field equations (such as
elliptic curves in Weierstrass form) to Boolean systems.
"""

from .boolalg import (
    Assignment,
    BoolFunc,
    ConflictingAssignment,
    DEFAULT_CAP,
    DuplicateVariable,
    ParseError,
    Term,
    TooManyVariables,
    UndeclaredVariable,
    VarTable,
    cofactor,
    const,
    dual,
    parse_expr,
    semantically_equal,
    star,
    substitute,
    support,
    truth_table,
    var,
    zero_set,
)
from .onset import (
    MintermPartition,
    NotNormal,
    NotOrthogonal,
    NotReduced,
    OnSet,
    chain_from_elements,
    coarsen,
    from_minterm_partition,
    product_onset,
    support_stream,
    term_chain,
    validate_on,
)
from .expansion import (
    ArityMismatch,
    BaseMismatch,
    CANONICAL,
    OnExpansion,
    RATIO,
    RatioUnavailable,
    VariableAbsent,
    combine,
    compose,
    conjugate,
    conjugate_expansion,
    consistency_via_support,
    eliminant,
    expand,
    minterm_consistency,
    necessary_condition,
    negate,
    sufficient_condition,
)
from .solver import (
    BoolSystem,
    Conflict,
    DECIDE,
    ENUMERATE,
    SAT,
    Solution,
    SolveOutcome,
    SolverConfig,
    UNSAT,
    bool_solve,
    brute_force,
    choose_split,
    decompose,
    parse_system,
    triv_solve,
)
from .cnf import (
    CnfSet,
    HeaderMismatch,
    NoPureLiterals,
    assign_and_reduce,
    emit_dimacs,
    find_pure_literals,
    parse_dimacs,
    pure_literal_chain,
    solve_sat,
)
from .gf2k import (
    Curve,
    Field,
    NotQuadratic,
    SymbolicElement,
    enumerate_curve,
    lower_to_boolean,
)

__version__ = "0.1.0"
