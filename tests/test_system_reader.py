"""The system file reader: direct lines against the expression parser.

``parse_system`` reads a line whose sides are sums of products of names
straight into its polynomial and parses every other line as an
expression.  The reference here parses every line as an expression and
converts the system with ``anf.from_system``; both must agree on
errors, names, universe, equations, polynomials, backend and output.
"""

import contextlib
import io
import random
import re
import sys

import pytest

from onsat import anf, solver
from onsat.boolalg import ParseError, VarTable, parse_expr
from onsat.cli import main
from onsat.solver import (
    BoolSystem,
    SolverConfig,
    _AnfSearch,
    _Lifter,
    _SystemFile,
    _TreeSearch,
    parse_system,
)


#: A name as the expression tokenizer cuts it whole.
NAME_RE = re.compile(r"[A-Za-z_]\w*")


def reference_parse_system(text: str):
    """Every line through the expression parser, as the reader did
    before it had a direct route; a header's names follow the same
    rule as the expressions' names."""
    table = VarTable()
    equations = []
    declared: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("vars:"):
            for name in line[5:].replace(",", " ").split():
                if not NAME_RE.fullmatch(name):
                    raise ParseError(f"bad variable name {name!r}", lineno)
                declared.append(table.intern(name))
            continue
        if "=" not in line:
            raise ParseError("expected '<expr> = <expr>'", lineno)
        lhs, _, rhs = line.partition("=")
        equations.append(
            (parse_expr(lhs, table, lineno), parse_expr(rhs, table, lineno))
        )
    universe = set(declared)
    for l, r in equations:
        universe |= l.vars | r.vars
    return BoolSystem.root(equations, sorted(universe)), table


def parsed(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


def polynomials(system):
    """The root polynomials of the ANF search, each read back from its
    monomial index as a set of monomials, or None on the trees."""
    try:
        search = _AnfSearch(system, SolverConfig())
    except anf.OverBudget:
        return None
    monomials = search.index.monomials
    return tuple(frozenset(m for i, m in enumerate(monomials) if e >> i & 1)
                 for e in search.root[0])


def reference_polynomials(system):
    try:
        return anf.from_system(system.equations, _Lifter(system).bit)
    except anf.OverBudget:
        return None


# ---------------------------------------------------------------------------
# random system texts

NAMES = ["a", "b", "c", "x1", "x_2", "_t", "B9", "xñ", "yΩ2"]
NOT_TOKENS = ["ñu", "Ωx", "²x"]  # not names: a line and a header reject them


def space(rng) -> str:
    return rng.choice(["", " ", " ", "  ", "\t"])


def product(rng, names) -> str:
    factors = [rng.choice(names) for _ in range(rng.choice([1, 1, 2, 2, 3]))]
    if rng.random() < 0.15:
        factors.append(factors[0])  # x & x = x
    return f"{space(rng)}&{space(rng)}".join(factors)


def direct_side(rng, names) -> str:
    if rng.random() < 0.2:
        return rng.choice("01")
    products = [product(rng, names) for _ in range(rng.choice([1, 2, 3, 4, 7]))]
    if rng.random() < 0.2:
        products.append(products[0])  # a repeated monomial cancels
    rng.shuffle(products)
    return f"{space(rng)}^{space(rng)}".join(products)


def fallback_side(rng, names) -> str:
    side = direct_side(rng, names)
    kind = rng.randrange(6)
    if kind == 0:
        return f"~{side}" if rng.random() < 0.5 else f"{side}'"
    if kind == 1:
        return " | ".join([side] + rng.sample(names, rng.randint(1, len(names))))
    if kind == 2:
        return f"({side})"
    if kind == 3:
        return f"{side} ^ {rng.choice('01')}"  # a constant inside a sum
    if kind == 4:
        return f"{rng.choice(names)} & {rng.choice('01')} ^ {side}"
    return f"{side} ^ " + " ^ ".join(rng.choice(names) for _ in range(anf.BUDGET + 1))


def corrupt(rng, line: str) -> str:
    i = rng.randrange(len(line) + 1)
    piece = rng.choice(["&", "^", "=", "(", ")", "~", "'", "1", "0", " x", "9",
                        "ñ", "#", ""] + NOT_TOKENS)
    j = i + rng.choice([0, 0, 1])
    return line[:i] + piece + line[j:]


def random_text(rng) -> str:
    names = rng.sample(NAMES, rng.randint(1, 5))
    # a quarter of the texts are mostly units and ORs, which have more
    # monomials than expression nodes and so stay on the trees
    units = 0.7 if rng.random() < 0.25 else 0.3
    lines = []
    for _ in range(rng.randint(1, 6)):
        r = rng.random()
        if r < 0.08:
            lines.append(rng.choice(["", "   ", "# a comment", "  # x ^ y = 1"]))
        elif r < units:
            if rng.random() < 0.7:
                lines.append(f"{rng.choice(names)} = {rng.choice('01')}")
            else:
                lines.append(" | ".join(rng.sample(names, rng.randint(1, len(names))))
                             + " = 1")
        elif r < units + 0.08:
            header = rng.sample(NAMES + NOT_TOKENS[:2], rng.randint(1, 3))
            if rng.random() < 0.1:
                header.append("0bad")
            lines.append(rng.choice(["vars: ", "VARS:", "vars:  "]) + ", ".join(header))
        else:
            sides = [direct_side(rng, names), direct_side(rng, names)]
            if rng.random() < 0.3:
                k = rng.randrange(2)
                sides[k] = fallback_side(rng, names)
            line = f"{space(rng)}{sides[0]}{space(rng)}={space(rng)}{sides[1]}"
            if rng.random() < 0.1:
                line = corrupt(rng, line)
            if rng.random() < 0.1:
                line += "  # trailing"
            lines.append(line)
    return "\n".join(lines) + rng.choice(["", "\n"])


def cli_run(text: str, mode: str, *flags) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([mode, "-", *flags])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


class TestDifferential:
    """Seeded texts mixing direct lines, fallback lines, comments,
    headers, ``x & x``, cancelling monomials, sides over the budget,
    non-ASCII names and malformed lines."""

    # at a budget of 6 many sides are over it, and many systems too
    @pytest.mark.parametrize("budget", [anf.BUDGET, 6])
    def test_reader_agrees_with_the_expression_parser(self, budget, monkeypatch):
        monkeypatch.setattr(anf, "BUDGET", budget)
        rng = random.Random(2021 + budget)
        seen = {"error": 0, "direct": 0, "fallback": 0, "anf": 0, "trees": 0, "cli": 0}
        for i in range(1500):
            text = random_text(rng)
            got = parsed(parse_system, text)
            want = parsed(reference_parse_system, text)
            if isinstance(want[0], str):
                assert got == want, text
                seen["error"] += 1
                continue
            (system, table), (ref, ref_table) = got, want
            assert table.names == ref_table.names, text
            assert system.root_vars == ref.root_vars, text
            for _, _, e in system.source.lines:
                seen["fallback" if e is None else "direct"] += 1
            polys = polynomials(system)
            assert polys == reference_polynomials(ref), text
            seen["trees" if polys is None else "anf"] += 1
            assert system.equations == ref.equations, text
            if i % 3 == 0:
                for mode, flags in (("solve", ()), ("enumerate", ("--n0", "2"))):
                    new = cli_run(text, mode, *flags)
                    with monkeypatch.context() as m:
                        m.setattr(solver, "parse_system", reference_parse_system)
                        old = cli_run(text, mode, *flags)
                    assert new == old, text
                seen["cli"] += 1
        # every kind of text came up often
        assert min(seen.values()) >= 50, seen

    def test_parse_errors_match_on_malformed_lines(self):
        texts = [
            "a & = 1", "a b = 1", " = 1", "a = ", "a = b = c", "(a = 1", "a ^ ^ b = 0",
            "a", "a & 0bad = 1", "ñu = 1", "a ^ Ωx = 0", "x1 & ²x = 1", "a = 1\nb |",
            "vars: a, ñu\nñu = 1", "a & b ^ = 1", "a =\n", "x & x ^ 1 ^ = 0",
        ]
        for text in texts:
            want = parsed(reference_parse_system, text)
            assert isinstance(want[0], str), text
            assert parsed(parse_system, text) == want, text


class TestNames:
    """A header, a direct line and a parsed line take the same names."""

    @pytest.mark.parametrize("text, error", [
        ("vars: ñu", "line 1: bad variable name 'ñu'"),
        ("vars: a·b", "line 1: bad variable name 'a·b'"),
        ("ñu = 1", "line 1: unexpected token 'ñ'"),
        ("a·b = 1", "line 1: unexpected token '·'"),
    ])
    def test_a_name_the_tokenizer_does_not_cut_whole_is_refused(self, text, error):
        assert parsed(parse_system, text) == (error, 1)

    def test_a_word_character_after_the_first_makes_a_name(self):
        for text in ("x² = 1", "vars: x²", "vars: x²\nx² ^ yΩ = 1", "~x² = 0"):
            system, table = parse_system(text)
            assert table.names[0] == "x²", text
            assert system.root_vars == set(range(len(table))), text
        assert parse_system("x² = 1")[0].source.lines[0][2] is not None


class TestDirectRoute:
    def test_direct_lines_build_no_expressions_on_the_anf_route(self, monkeypatch):
        built = []
        equations = _SystemFile.equations
        monkeypatch.setattr(_SystemFile, "equations",
                            lambda self: built.append(1) or equations(self))
        text = "vars: a, b, c, d\na & b ^ c = 1\nb ^ c & d ^ a = 0\na | d = 1\n"
        system, table = parse_system(text)
        assert [e is None for _, _, e in system.source.lines] == [False, False, True]
        assert cli_run(text, "enumerate")[0] == 10
        out = solver.bool_solve(system, SolverConfig(mode="enumerate"))
        assert out.sat and not built
        # the tree search reads the equations, built once
        assert system.equations == reference_parse_system(text)[0].equations
        assert system.equations is system.equations and built == [1]

    def test_names_are_interned_left_to_right_and_a_fallback_interns_nothing_first(self):
        system, table = parse_system("q & p ^ r = s\nz ^ (y) = x\n")
        assert table.names == ["q", "p", "r", "s", "z", "y", "x"]
        # the right side is direct and the left is not: the parser reads
        # the line whole, the left side's names first
        system, table = parse_system("~c ^ d = b ^ a\n")
        assert table.names == ["c", "d", "b", "a"]

    def test_polynomials_cancel_and_fold_x_and_x(self):
        system, table = parse_system("a & a ^ b ^ a = a & b ^ b & a ^ 1\n")
        (e,) = polynomials(system)
        # a ^ b ^ a on the left, ab ^ ab ^ 1 on the right: b ^ 1
        assert e == frozenset({1 << table.id_of("b"), 0})
        assert system.root_vars == {0, 1}

    def test_three_times_a_equals_one_stays_on_the_trees(self, monkeypatch):
        # 6 monomials from 4 nodes: three var nodes and the shared constant
        text = "a = 1\na = 1\na = 1\n"
        system, _ = parse_system(text)
        assert polynomials(system) is None
        assert reference_polynomials(reference_parse_system(text)[0]) is None
        visited = []
        visit = _TreeSearch.visit
        monkeypatch.setattr(_TreeSearch, "visit",
                            lambda self, node: visited.append(node) or visit(self, node))
        out = solver.bool_solve(system, SolverConfig(mode="enumerate"))
        assert [s.assignment for s in out.solutions] == [((0, 1),)] and visited
        # twice is 4 monomials from 3 nodes, still the trees; with b, ANF
        assert polynomials(parse_system("a = 1\na = 1\n")[0]) is None
        assert polynomials(parse_system("a ^ b = 1\na = 1\n")[0]) is not None

    def test_a_name_dropped_by_folding_is_interned_but_not_in_the_universe(self,
                                                                           monkeypatch):
        text = "vars: z\nw & 0 ^ a & b = 1\na ^ c = 0\n"
        system, table = parse_system(text)
        ref, ref_table = reference_parse_system(text)
        assert table.names == ref_table.names == ["z", "w", "a", "b", "c"]
        assert system.root_vars == ref.root_vars == {0, 2, 3, 4}
        # the ANF bits skip w, so the direct line's monomials are moved
        assert polynomials(system) == reference_polynomials(ref) is not None
        new = cli_run(text, "enumerate")
        monkeypatch.setattr(solver, "parse_system", reference_parse_system)
        assert new == cli_run(text, "enumerate") and new[0] == 10
