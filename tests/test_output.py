"""What ``onsat solve|enumerate`` prints, and when.

Both paths hand their solutions out as cubes, dicts of fixed values
whose missing root variables are don't-cares, and the CLI writes each
cube's line from per-variable fragments as the search reaches its
leaf.  ``old_rendering`` is the rendering those lines must reproduce
byte for byte: one dict per cube, encoded by
``json.JSONEncoder(sort_keys=True)``, over the ``solve_sat`` or
``bool_solve`` solution list.  With
``--expand-dont-cares`` enumerate mode prints every total assignment
and decide mode only the witness's first one, its don't-cares at 0.
"""

import contextlib
import io
import itertools
import json
import random
import tracemalloc

import pytest

from onsat.boolalg import CONST, cofactor
from onsat.cli import _Cubes, main
from onsat.cnf import parse_dimacs, solve_sat
from onsat.solver import DECIDE, ENUMERATE, Solution, SolverConfig, bool_solve, parse_system


def old_rendering(outcome, names: list, expand: bool, dimacs_style: bool,
                  decide: bool) -> str:
    solutions = outcome.solutions
    if expand:
        solutions = [Solution.make(total, ())
                     for s in solutions for total in s.expand()]
        if decide:
            solutions = solutions[:1]
    lines = []
    if dimacs_style:
        lines.append("s SATISFIABLE" if outcome.sat else "s UNSATISFIABLE")
        for s in solutions:
            lits = [(v + 1) if b else -(v + 1) for v, b in s.assignment]
            lines.append(" ".join(["v", *map(str, sorted(lits, key=abs)), "0"]))
    else:
        encode = json.JSONEncoder(sort_keys=True).encode
        for s in solutions:
            lines.append(encode({
                "assignment": {names[v]: b for v, b in s.assignment},
                "dont_care": [names[v] for v in s.dont_care],
            }))
    return "".join(line + "\n" for line in lines)


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# (flags, n0, split_depth)
FLAG_SETS = [([], 16, 3), (["--split-depth", "1", "--n0", "2"], 2, 1), (["--n0", "4"], 4, 3)]


def check_cnf(path, text: str) -> None:
    """Every mode and output style of one CNF file against the oracle."""
    path.write_text(text)
    problem = parse_dimacs(text)
    names = [f"x{v + 1}" for v in range(problem.num_vars)]
    for flags, n0, depth in FLAG_SETS:
        for command, mode in (("solve", DECIDE), ("enumerate", ENUMERATE)):
            outcome = solve_sat(problem, SolverConfig(n0=n0, split_depth=depth, mode=mode))
            for extra in ([], ["--format", "json"], ["--expand-dont-cares"]):
                dimacs_style = mode == DECIDE and "--format" not in extra
                expected = old_rendering(outcome, names, "--expand-dont-cares" in extra,
                                         dimacs_style, mode == DECIDE)
                code, out, _ = run_cli([command, str(path), *flags, *extra])
                assert code == (10 if outcome.sat else 20)
                assert out == expected, (command, flags, extra)


class TestFormatterMatchesJsonEncoder:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_cnfs_over_ten_variables(self, tmp_path, seed):
        # with more than 9 variables "x10" sorts before "x2"; header
        # variables beyond the used ones are don't-cares
        rng = random.Random(seed)
        for i in range(6):
            n = rng.randint(11, 14)
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1), 3)]
                       for _ in range(rng.randint(n, 3 * n))]
            declared = n + rng.randint(0, 2)
            text = f"p cnf {declared} {len(clauses)}\n" + "".join(
                " ".join(map(str, c)) + " 0\n" for c in clauses)
            check_cnf(tmp_path / f"r{seed}-{i}.cnf", text)

    def test_empty_assignment(self, tmp_path):
        # no clauses: every variable is a don't-care
        check_cnf(tmp_path / "free.cnf", "p cnf 12 0\n")

    def test_empty_dont_care(self, tmp_path):
        # every variable fixed by a unit clause
        units = "".join(f"{v if v % 3 else -v} 0\n" for v in range(1, 13))
        check_cnf(tmp_path / "fixed.cnf", f"p cnf 12 12\n{units}")

    @pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["positive", "mixed"])
    def test_monotone_clauses(self, tmp_path, signs):
        # clauses of one sign each: their literals are pure (at once, or
        # after the split when both signs occur), so enumerate branches on
        # pure chains down to leaves where no variable occurs
        rng = random.Random(len(signs))
        clauses = [[s * v for v in rng.sample(range(1, 13), 3)]
                   for s in signs for _ in range(8)]
        text = f"p cnf 12 {len(clauses)}\n" + "".join(
            " ".join(map(str, c)) + " 0\n" for c in clauses)
        check_cnf(tmp_path / "monotone.cnf", text)

    def test_unsatisfiable(self, tmp_path):
        check_cnf(tmp_path / "unsat.cnf", "p cnf 11 3\n1 0\n-1 11 0\n-11 0\n")

    def test_system_names_out_of_id_order(self, tmp_path):
        # ids follow first mention; names sort otherwise, and the
        # don't-care list stays in id order; a non-ASCII name is escaped
        # (a name starts with an ASCII letter or _, as in an equation)
        text = ("vars: zeta, b10, b2, alpha, spare, Q, _u, u\u00f1\n"
                "zeta ^ b2 = alpha\n"
                "b10 | Q = 1\n"
                "alpha & _u = 0\n")
        path = tmp_path / "names.sys"
        path.write_text(text)
        system, table = parse_system(text)
        for flags, n0, depth in FLAG_SETS:
            for command, mode in (("solve", DECIDE), ("enumerate", ENUMERATE)):
                outcome = bool_solve(system, SolverConfig(n0=n0, split_depth=depth, mode=mode))
                for expand in (False, True):
                    extra = ["--expand-dont-cares"] if expand else []
                    code, out, _ = run_cli([command, str(path), *flags, *extra])
                    assert code == 10
                    assert out == old_rendering(outcome, table.names, expand, False,
                                                mode == DECIDE)


class TestOnePointBlocks:
    """A cube is one line: its dict as ``json.JSONEncoder(sort_keys=True)``
    encodes it, or the DIMACS ``v`` line of its literals by variable,
    which reads no names."""

    NAMES = ["x1", "x2", "x10", "\u00f1u", "x3", "b"]  # "x10" sorts before "x2"

    @pytest.mark.parametrize("dimacs", [True, False], ids=["dimacs", "json"])
    @pytest.mark.parametrize("fixed, v_line", [
        ({}, "v 0\n"),
        ({0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 1}, "v 1 -2 3 -4 5 6 0\n"),
        ({5: 1, 2: 0, 3: 1}, "v -3 4 6 0\n"),
        ({1: 1, 2: 1, 0: 0}, "v -1 2 3 0\n"),
    ], ids=["empty", "all fixed", "names out of id order", "some fixed"])
    def test_matches_general_path(self, dimacs, fixed, v_line):
        names = None if dimacs else self.NAMES
        direct = _Cubes(names, range(len(self.NAMES)), dimacs).text(fixed)
        assert direct.count("\n") == 1
        if dimacs:
            assert direct == v_line
        else:
            encode = json.JSONEncoder(sort_keys=True).encode
            assert direct == encode({
                "assignment": {self.NAMES[v]: b for v, b in fixed.items()},
                "dont_care": [self.NAMES[v] for v in range(len(self.NAMES))
                              if v not in fixed],
            }) + "\n"


class LineCounter:
    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


class ShortOutput(io.StringIO):
    """Keeps what is written; fails as soon as it exceeds two lines."""

    def write(self, text):
        n = super().write(text)
        assert self.getvalue().count("\n") <= 2, "more than one witness line"
        return n


def test_decide_expands_one_witness(tmp_path):
    # 40 don't-cares: 2^40 totals; decide prints the first, all at 0
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 41 1\n1 0\n")
    for extra in ([], ["--format", "json"]):
        out = ShortOutput()
        with contextlib.redirect_stdout(out):
            code = main(["solve", str(path), "--expand-dont-cares", *extra])
        assert code == 10
        if extra:
            record = json.loads(out.getvalue())
            assert record["assignment"] == {f"x{v}": int(v == 1) for v in range(1, 42)}
            assert record["dont_care"] == []
        else:
            assert out.getvalue() == "s SATISFIABLE\nv 1 " + "".join(
                f"-{v} " for v in range(2, 42)) + "0\n"


class TestStreaming:
    def test_dimacs_decide_memory_is_not_by_declared_variables(self, tmp_path):
        # the v line lists the witness's literals and nothing else, so a
        # large header costs no per-variable name or fragment
        path = tmp_path / "wide_header.cnf"
        path.write_text("p cnf 200000 1\n1 0\n")
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(["solve", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out.getvalue()) == (10, "s SATISFIABLE\nv 1 0\n")
        assert peak < 2 << 20

    @staticmethod
    def pairs_peaks(tmp_path, fmt: str, flags: list) -> tuple:
        """The tracemalloc peaks of ``onsat enumerate`` on 12 and on 16
        pairs a_i = ~b_i (4,096 and 65,536 cubes), after one warm-up run
        that fills the first-call caches."""
        peaks = []
        for pairs in (12, 12, 16):
            if fmt == "cnf":
                clauses = []
                for i in range(pairs):
                    a, b = 2 * i + 1, 2 * i + 2
                    clauses += [f"{a} {b} 0", f"-{a} -{b} 0"]
                text = f"p cnf {2 * pairs} {len(clauses)}\n" + "\n".join(clauses) + "\n"
            else:
                text = "".join(f"a{i} = ~b{i}\n" for i in range(pairs))
            path = tmp_path / f"pairs{pairs}.{fmt}"
            path.write_text(text)
            sink = LineCounter()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    code = main(["enumerate", str(path), *flags])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (code, sink.lines) == (10, 1 << pairs)
        return peaks[1:]

    # 16 times the cubes of 12 pairs, and the peak grows with the tree's
    # depth only.  Measured peaks (Python 3.11): CNF at n0 8 27 KB and
    # 35 KB, system 34 KB and 43 KB, a ratio of 1.3 at most; holding the
    # cubes would take the ratio toward 16.

    def test_cnf_enumerate_memory_is_bounded_by_depth(self, tmp_path):
        # 16 pairs a = ~b: 65,536 cubes of 32 variables over 4,096 leaves
        # (n0 = 8), each printed when its leaf is reached instead of being
        # gathered in a list of solutions first
        small, large = self.pairs_peaks(tmp_path, "cnf", ["--n0", "8"])
        assert large < 2 << 20
        assert large < 2 * small, (small, large)

    def test_system_enumerate_memory_is_bounded_by_depth(self, tmp_path):
        # 16 lines a_i = ~b_i: one leaf whose 16 bindings lift to 65,536
        # one-point cubes, each printed as it is lifted
        small, large = self.pairs_peaks(tmp_path, "sys", [])
        assert large < 2 << 20
        assert large < 2 * small, (small, large)


class TestCapAfterOutput:
    """A later leaf over the 2^24 cap ends an enumeration already printing."""

    @pytest.fixture
    def late_wide_leaf(self, tmp_path):
        # x1 = 0 leaves an alternating chain over x2..x28 (2 solutions,
        # reached first); x1 = 1 leaves one over x29..x53: 25 variables,
        # no unit or pure literal, so a leaf over the cap at --n0 26
        clauses = []
        for lo, hi, s in ((2, 28, 1), (29, 53, -1)):
            for x in range(lo, hi):
                clauses += [(s, x, x + 1), (s, -x, -(x + 1))]
        path = tmp_path / "late.cnf"
        path.write_text(f"p cnf 53 {len(clauses)}\n" + "".join(
            " ".join(map(str, c)) + " 0\n" for c in clauses))
        return path, clauses

    def test_enumerate_keeps_the_complete_lines_before_the_error(self, late_wide_leaf):
        path, clauses = late_wide_leaf
        code, out, err = run_cli(["enumerate", str(path), "--n0", "26"])
        assert code == 1
        assert err.startswith("onsat: 2^25 evaluations exceed the cap")
        assert out.endswith("\n")
        lines = out.splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            fixed = {int(name[1:]): b for name, b in record["assignment"].items()}
            # a true cube: every clause has a literal made true by it
            for clause in clauses:
                assert any(fixed.get(abs(l)) == (l > 0) for l in clause), (clause, line)

    def test_decide_stops_before_the_wide_leaf(self, late_wide_leaf):
        path, _ = late_wide_leaf
        code, out, _ = run_cli(["solve", str(path), "--n0", "26"])
        assert code == 10
        assert out.startswith("s SATISFIABLE\nv -1 ")

    @pytest.fixture
    def late_wide_system(self, tmp_path):
        # the root splits on c (in 29 monomials): c = 0 leaves z1 | z2 = 1
        # (2 cubes, reached first), c = 1 a sum of 24 products over
        # y1..y25: one 25-variable ANF leaf, over the cap at --n0 26
        chain = " ^ ".join(f"y{i} & y{i + 1}" for i in range(1, 25))
        text = f"c & ({chain}) = c\n~c & (z1 | z2) = ~c\n"
        path = tmp_path / "late.sys"
        path.write_text(text)
        return path, text

    def test_system_enumerate_keeps_the_complete_lines_before_the_error(
            self, late_wide_system):
        path, text = late_wide_system
        system, table = parse_system(text)
        code, out, err = run_cli(["enumerate", str(path), "--n0", "26", "--split-depth", "1"])
        assert code == 1
        assert err.startswith("onsat: 2^25 evaluations exceed the cap")
        assert out.endswith("\n")
        lines = out.splitlines()
        # the Shannon cubes of z1 | z2: z1 = 0 with z2 = 1, then z1 = 1
        assert len(lines) == 2
        z = []
        for line in lines:
            record = json.loads(line)
            fixed = {table.id_of(name): b for name, b in record["assignment"].items()}
            assert fixed[table.id_of("c")] == 0
            # a true cube: every equation folds to a true constant one
            for l, r in system.equations:
                l, r = cofactor(l, fixed), cofactor(r, fixed)
                assert l.kind == r.kind == CONST and l.value == r.value, line
            free = [n for n in ("z1", "z2") if n in record["dont_care"]]
            for bits in itertools.product((0, 1), repeat=len(free)):
                point = {**record["assignment"], **dict(zip(free, bits))}
                z.append((point["z1"], point["z2"]))
        assert sorted(z) == [(0, 1), (1, 0), (1, 1)]

    def test_system_decide_stops_before_the_wide_leaf(self, late_wide_system):
        path, _ = late_wide_system
        code, out, _ = run_cli(["solve", str(path), "--n0", "26", "--split-depth", "1"])
        assert code == 10
        assert len(out.splitlines()) == 1 and '"c": 0' in out
