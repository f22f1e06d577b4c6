import ast
import contextlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import onsat
from onsat import boolalg, expansion
from onsat.anf import Index, OverBudget, from_expr
from onsat.boolalg import DEFAULT_CAP, MAX_NESTING, VarTable, const, parse_expr
from onsat.cli import _build_parser, main
from conftest import shannon_cubes


EXAMPLE_A_DIMACS = """c worked example
p cnf 8 5
1 -3 6 0
2 -3 5 6 7 0
1 2 -3 -5 -6 8 0
-2 4 -7 -8 0
-4 8 0
"""


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "example.cnf"
    path.write_text(EXAMPLE_A_DIMACS)
    return str(path)


class TestSolve:
    def test_sat_dimacs_exit_ten(self, run, cnf_file):
        code, out, _ = run("solve", cnf_file)
        assert code == 10
        lines = out.splitlines()
        assert lines[0] == "s SATISFIABLE"
        assert lines[1].startswith("v ") and lines[1].endswith(" 0")

    def test_unsat_exit_twenty(self, run, tmp_path):
        path = tmp_path / "unsat.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run("solve", str(path))
        assert code == 20
        assert out.splitlines()[0] == "s UNSATISFIABLE"

    @pytest.mark.parametrize("text", [
        "",
        "p cnf 3 0\n",
        "p cnf 3 3\n1 0\n-2 0\n1 -2 3 0\n",  # the root's units satisfy all
    ], ids=["empty file", "no clauses", "no clause left"])
    def test_no_clause_left_is_sat(self, run, tmp_path, text):
        path = tmp_path / "empty.cnf"
        path.write_text(text)
        code, out, _ = run("solve", str(path), "--format", "dimacs")
        assert code == 10
        assert out.splitlines()[0] == "s SATISFIABLE"
        code, out, _ = run("enumerate", str(path), "--format", "dimacs")
        assert code == 10
        assert len(out.splitlines()) == 1

    def test_system_format_autodetected(self, run, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("a = 1\na ^ b = 0\n")
        code, out, _ = run("solve", str(path))
        assert code == 10
        record = json.loads(out.splitlines()[0])
        assert record["assignment"] == {"a": 1, "b": 1}

    def test_system_whose_first_variable_is_p(self, run, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("p ^ q = 1\n")
        code, out, _ = run("solve", str(path))
        assert code == 10
        record = json.loads(out)
        point = dict.fromkeys(record["dont_care"], 0)
        point.update(record["assignment"])
        assert point["p"] ^ point["q"] == 1

        path.write_text("p = 1\n")
        code, out, _ = run("enumerate", str(path))
        assert code == 10
        assert [json.loads(line) for line in out.splitlines()] == [
            {"assignment": {"p": 1}, "dont_care": []}]

    def test_spaced_problem_line_is_dimacs(self, run, tmp_path):
        path = tmp_path / "spaced.cnf"
        path.write_text("c header with two spaces\np  cnf 2 1\n1 -2 0\n")
        code, out, _ = run("solve", str(path))
        assert code == 10
        assert out.splitlines()[0] == "s SATISFIABLE"

    def test_header_mismatch_is_reported_on_every_run(self, run, tmp_path):
        """One stderr line per mismatch, on each call in one process;
        stdout and the exit code as without it."""
        path = tmp_path / "mismatch.cnf"
        path.write_text("p cnf 3 5\n1 -2 0\n2 3 0\n")
        clean = tmp_path / "clean.cnf"
        clean.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
        for _ in range(2):
            assert run("solve", str(path)) == (
                10, run("solve", str(clean))[1],
                "onsat: warning: header declares 5 clauses but 2 found\n")
        path.write_text("p cnf 1 3\n1 -2 0\n")
        code, out, err = run("enumerate", str(path))
        assert code == 10 and out and err == (
            "onsat: warning: header declares 1 variables but 2 are used\n"
            "onsat: warning: header declares 3 clauses but 1 found\n")
        code, out, err = run("solve", str(path), "--strict-dimacs")
        assert (code, out) == (1, "")
        assert err == "onsat: header declares 1 variables but 2 are used\n"

    def test_negative_header_counts_are_refused(self, run, tmp_path):
        path = tmp_path / "negative.cnf"
        path.write_text("p cnf -3 -1\n1 0\n")
        for flags in ((), ("--strict-dimacs",)):
            assert run("enumerate", str(path), *flags) == (
                1, "", "onsat: line 1: bad problem line 'p cnf -3 -1'\n")

    def test_digit_separators_are_refused(self, run, tmp_path):
        path = tmp_path / "separator.cnf"
        path.write_text("p cnf 1_0 1\n1_0 -2 0\n")
        for mode in ("solve", "enumerate"):
            assert run(mode, str(path)) == (
                1, "", "onsat: line 1: bad problem line 'p cnf 1_0 1'\n")

    def test_enumerate_json_lines(self, run, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: a, b\na | b = 1\n")
        code, out, _ = run("enumerate", str(path))
        assert code == 10
        records = [json.loads(line) for line in out.splitlines()]
        points = []
        for rec in records:
            assert set(rec) == {"assignment", "dont_care"}
            free = rec["dont_care"]
            for bits in itertools.product((0, 1), repeat=len(free)):
                point = {**rec["assignment"], **dict(zip(free, bits))}
                points.append((point["a"], point["b"]))
        # one line per Shannon cube of the three points: a = 0 with b = 1,
        # then a = 1 with b free
        assert sorted(points) == [(0, 1), (1, 0), (1, 1)]
        assert len(records) == len(shannon_cubes(frozenset(points), 2)) == 2

    def test_expand_dont_cares(self, run, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: a, b\na = 1\n")
        code, out, _ = run("enumerate", str(path), "--expand-dont-cares")
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        assert all(rec["dont_care"] == [] for rec in records)

    def test_expand_dont_cares_streams(self, tmp_path):
        # one cube with 16 don't-cares: 65,536 lines, printed as they are
        # expanded rather than gathered first
        path = tmp_path / "wide.sys"
        path.write_text(
            "vars: a, " + ", ".join(f"s{i}" for i in range(16)) + "\na = 1\n")

        class LineCounter:
            lines = 0

            def write(self, text):
                self.lines += text.count("\n")
                return len(text)

            def flush(self):
                pass

        sink = LineCounter()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["enumerate", str(path), "--expand-dont-cares"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sink.lines) == (10, 1 << 16)
        assert peak < 4 << 20

    def test_json_output_for_cnf(self, run, cnf_file):
        code, out, _ = run("solve", cnf_file, "--format", "json")
        record = json.loads(out.splitlines()[0])
        assert record["assignment"]["x1"] == 1
        assert record["assignment"]["x3"] == 0

    def test_cnf_enumerate_emits_json_lines(self, run, tmp_path):
        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        code, out, _ = run("enumerate", str(path))
        assert code == 10
        records = [json.loads(line) for line in out.splitlines()]
        assert all("dont_care" in rec for rec in records)

    def test_enumerate_prints_the_most_constrained_variable_first(self, run, tmp_path):
        # x3 is in both clauses: x3, and x1 x2 x3', five models
        path = tmp_path / "three.cnf"
        path.write_text("p cnf 3 2\n1 3 0\n2 3 0\n")
        code, out, _ = run("enumerate", str(path))
        assert code == 10 and [json.loads(line) for line in out.splitlines()] == [
            {"assignment": {"x1": 1, "x2": 1, "x3": 0}, "dont_care": []},
            {"assignment": {"x3": 1}, "dont_care": ["x1", "x2"]}]
        code, out, _ = run("enumerate", str(path), "--expand-dont-cares")
        assert code == 10 and len(set(out.splitlines())) == 5

    def test_huge_variable_ids_decide_in_time_linear_in_the_input(self, run, tmp_path):
        # the trail renumbers ids 1, 2 and 10^6 to 1, 2, 3, so nothing
        # it builds or scans grows with the highest id
        path = tmp_path / "huge.cnf"
        path.write_text("p cnf 1000000 2\n1000000 1 0\n-1 2 0\n")
        start = time.process_time()
        code, out, _ = run("solve", str(path))
        assert time.process_time() - start < 2
        assert (code, out) == (10, "s SATISFIABLE\nv 2 1000000 0\n")

    def test_deterministic_output_single_worker(self, run, cnf_file):
        first = run("enumerate", cnf_file)
        second = run("enumerate", cnf_file)
        assert first == second

    def test_strict_dimacs_flag(self, run, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 1 1\n1 2 0\n")
        code, _, err = run("solve", str(path), "--strict-dimacs")
        assert code == 1
        assert "onsat:" in err

    def test_parse_error_exit_one(self, run, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a | b\n")
        code, _, err = run("solve", str(path))
        assert code == 1

    def test_missing_file_exit_one(self, run):
        code, _, err = run("solve", "/nonexistent/file.cnf")
        assert code == 1


class TestWorkersAndJson:
    @pytest.fixture
    def sys_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("a = 1\na ^ b = 0\n")
        return str(path)

    def test_workers_flag_is_ignored(self, run, cnf_file, sys_file):
        for path in (cnf_file, sys_file):
            assert run("solve", path, "--workers", "4") == run("solve", path)

    def test_json_keys_sort_as_strings(self, run, tmp_path):
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 11 2\n1 0\n10 0\n")
        code, out, _ = run("enumerate", str(path))
        assert code == 10
        rest = ", ".join(f'"x{v}"' for v in (2, 3, 4, 5, 6, 7, 8, 9, 11))
        assert out == (
            '{"assignment": {"x1": 1, "x10": 1}, "dont_care": [' + rest + "]}\n"
        )


class TestEnumerationCap:
    """A leaf over the 2^24-point cap exits 1 before building its masks."""

    WIDE = 26  # the masks alone would take 2^26 bits = 8 MB

    def run_traced(self, run, path):
        tracemalloc.start()
        try:
            code, out, err = run("solve", str(path), "--n0", "30")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, out, err, peak

    def test_cnf_leaf(self, run, tmp_path):
        # every variable occurs in both polarities, so no unit or pure
        # literal shrinks the 26-variable leaf
        path = tmp_path / "wide.cnf"
        clauses = []
        for v in range(1, self.WIDE):
            clauses += [f"{v} {v + 1} 0", f"-{v} -{v + 1} 0"]
        path.write_text(f"p cnf {self.WIDE} {len(clauses)}\n"
                        + "\n".join(clauses) + "\n")
        code, out, err, peak = self.run_traced(run, path)
        assert (code, out) == (1, "")
        assert err.startswith("onsat: 2^26 evaluations exceed the cap")
        assert peak < 2 << 20

    def check_system_leaf(self, run, path, line):
        path.write_text(line + " = 1\n")
        code, out, err, peak = self.run_traced(run, path)
        assert (code, out) == (1, "")
        assert err.startswith("onsat: 2^26 evaluations exceed the cap")
        assert peak < 2 << 20

    def test_system_leaf(self, run, tmp_path):
        # a sum of products: no affine equation to eliminate, so the
        # whole system is one ANF leaf
        pairs = [f"x{v} & x{v + 1}" for v in range(0, self.WIDE, 2)]
        self.check_system_leaf(run, tmp_path / "wide.sys", " ^ ".join(pairs))

    def test_system_tree_leaf(self, run, tmp_path):
        # a wide OR is over the ANF budget and reaches an expression-tree leaf
        line = " | ".join(f"x{v}" for v in range(self.WIDE))
        self.check_system_leaf(run, tmp_path / "wide.sys", line)


    def test_expanding_a_cube_over_the_cap_is_refused(self, run, tmp_path):
        # one cube fixing x1 leaves 2^29 total assignments to print
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 30 1\n1 0\n")
        code, out, err = run("enumerate", str(path), "--expand-dont-cares")
        assert (code, out) == (1, "")
        assert err.startswith("onsat: 2^29 evaluations exceed the cap")
        # decide mode prints one total assignment
        code, out, _ = run("solve", str(path), "--expand-dont-cares")
        assert code == 10
        assert out.splitlines() == [
            "s SATISFIABLE", "v 1 " + " ".join(f"-{v}" for v in range(2, 31)) + " 0"]

    @pytest.mark.parametrize("num_vars", [DEFAULT_CAP + 1, 10 ** 12])
    def test_a_universe_over_the_cap_is_refused_before_naming_it(
            self, run, tmp_path, num_vars):
        # JSON and expanded lines name every variable of the header
        path = tmp_path / "huge.cnf"
        path.write_text(f"p cnf {num_vars} 1\n1 0\n")
        for argv in (["enumerate"], ["solve", "--format", "json"],
                     ["solve", "--expand-dont-cares"],
                     ["enumerate", "--expand-dont-cares"]):
            tracemalloc.start()
            try:
                code, out, err = run(*argv, str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (1, ""), argv
            assert err == (f"onsat: {num_vars} variables exceed the cap of "
                           f"{DEFAULT_CAP}\n"), argv
            assert peak < 2 << 20, argv
        # the s/v lines name only the cube's variables
        assert run("solve", str(path)) == (10, "s SATISFIABLE\nv 1 0\n", "")


class TestNesting:
    """Deep nesting exits 1 with a message instead of a RecursionError."""

    @pytest.mark.parametrize("line", [
        "(" * 3000 + "a" + ")" * 3000 + " = 1",
        "~" * 5000 + "a = 1",
        "(" * MAX_NESTING + "~" + "a" + ")" * MAX_NESTING + " = 1",
    ])
    def test_too_deep_is_a_parse_error(self, run, tmp_path, line):
        path = tmp_path / "deep.sys"
        path.write_text(line + "\n")
        code, out, err = run("solve", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("onsat: line 1: ")
        assert "nested too deeply" in err

    def test_at_the_bound_solves_on_the_tree_path(self, run, tmp_path):
        # x0 | (x1 | (... (x99 | x100))): one OR per level, over the ANF
        # budget, so truth tables and cofactors recurse through every level
        depth = MAX_NESTING
        expr = "".join(f"(x{i} | " for i in range(depth)) + f"x{depth}" + ")" * depth
        with pytest.raises(OverBudget):
            table = VarTable()
            from_expr(parse_expr(expr, table), {v: 1 << v for v in range(len(table))},
                      Index(), {})
        path = tmp_path / "deep.sys"
        path.write_text(f"{expr} = 1\n")
        code, out, _ = run("solve", str(path), "--n0", "4")
        assert code == 10
        assert 1 in json.loads(out)["assignment"].values()


class TestVerify:
    def test_random_suite_passes(self, run):
        code, out, _ = run("verify", "--n", "4", "--trials", "100", "--seed", "3")
        assert code == 0
        assert all(line.startswith("ok ") for line in out.splitlines())

    def test_user_supplied_pair(self, run):
        code, out, _ = run(
            "verify", "--func", "a & b | c", "--onset", "chain: a, ~c"
        )
        assert code == 0

    def test_usage_error(self, run):
        code, _, err = run("verify", "--func", "a")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("--func", "a & b | c", "--onset", "chain: a, ~c"),
        ("--n", "3", "--trials", "5", "--seed", "1"),
    ])
    def test_wrong_coefficients_fail(self, run, monkeypatch, argv):
        def all_zero(f, base, choice=None):
            return expansion.OnExpansion(f, base, [const(0)] * base.order)

        monkeypatch.setattr(expansion, "expand", all_zero)
        code, out, _ = run("verify", *argv)
        assert code == 1
        failed = {line.split()[1] for line in out.splitlines()
                  if line.startswith("FAIL ")}
        assert {"reconstruction", "coefficient-range"} <= failed

    @pytest.mark.parametrize("identity, module, name, broken", [
        ("dual-star", boolalg, "dual", lambda f: const(0)),
        ("eliminant-projection", expansion, "eliminant", lambda f, x: const(1)),
        ("minterm-consistency", expansion, "minterm_consistency",
         lambda f, x1, _real=expansion.minterm_consistency: not _real(f, x1)),
    ])
    def test_each_broken_identity_fails_alone(self, run, monkeypatch,
                                              identity, module, name, broken):
        monkeypatch.setattr(module, name, broken)
        code, out, _ = run("verify", "--n", "3", "--trials", "5", "--seed", "1")
        assert code == 1
        status = {line.split()[1]: line.split()[0] for line in out.splitlines()}
        assert len(status) == 7 and status.pop(identity) == "FAIL"
        assert set(status.values()) == {"ok"}

    @pytest.mark.parametrize("argv", [
        ("--n", "0"),
        ("--n", "-2"),
        ("--func", "x", "--onset", "funcs: x, x"),  # not orthogonal
        ("--func", "x", "--onset", "funcs: x"),  # not normal
    ])
    def test_bad_input_is_one_line_of_error(self, run, argv):
        code, _, err = run("verify", *argv)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("onsat: ")
        assert "Traceback" not in err

    def test_n_over_the_cap_is_refused_before_anything_is_built(self, run):
        tracemalloc.start()
        try:
            code, out, err = run("verify", "--n", "200000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == "onsat: 2^200000 evaluations exceed the cap of 16777216\n"
        assert peak < 1 << 20

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_is_an_error(self, run, trials):
        code, out, err = run("verify", "--n", "2", "--trials", trials)
        assert code == 1
        assert out == ""
        assert err == "onsat: --trials must be at least 1\n"


class TestCurve:
    def test_field_method(self, run):
        code, out, _ = run(
            "curve", "--modulus", "0xb", "--a1", "1", "--a2", "3",
            "--a4", "7", "--a6", "2",
        )
        assert code == 0
        assert len(out.splitlines()) == 13
        assert out.splitlines()[0] == "0x0 0x6"

    def test_methods_agree(self, run):
        args = ("--modulus", "0xb", "--a1", "1", "--a2", "3", "--a6", "2")
        direct = run("curve", *args, "--method", "field")
        boolean = run("curve", *args, "--method", "boolean")
        assert direct[1] == boolean[1]

    def test_bad_modulus(self, run):
        code, _, err = run("curve", "--modulus", "0xf")
        assert code == 1

    @pytest.mark.parametrize("method", ["boolean", "field"])
    def test_negative_modulus_is_refused(self, run, method):
        # "--modulus -0xb" reads as a missing value, so the sign needs "="
        code, out, err = run("curve", "--modulus=-0xb", "--a1", "1", "--a6", "1",
                             "--method", method)
        assert (code, out) == (1, "")
        assert err == "onsat: modulus -0xb is negative\n"

    @pytest.mark.parametrize("argv", [
        ("--modulus", "0x1_3"),
        ("--modulus", "0xb", "--a1", "\u0661"),  # ARABIC-INDIC DIGIT ONE
        ("--modulus", "\uff10xb"),  # FULLWIDTH DIGIT ZERO
        ("--modulus", "0xb", "--a6", "1_0"),
    ])
    @pytest.mark.parametrize("method", ["boolean", "field"])
    def test_hex_numbers_are_ascii_without_separators(self, run, method, argv):
        code, out, err = run("curve", *argv, "--method", method)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("onsat: not a plain ASCII number")


class TestUsage:
    def test_no_command_is_usage_error(self, run):
        code, _, _ = run()
        assert code == 1

    def test_unknown_flag(self, run):
        code, _, _ = run("solve", "--frobnicate")
        assert code == 1

    def test_mode_flag_is_gone(self, run, cnf_file):
        # the subcommand is the mode
        for command in ("solve", "enumerate"):
            code, out, _ = run(command, cnf_file, "--mode", "enumerate")
            assert code == 1 and out == ""

    def test_repeated_calls_match_first_calls(self, run, cnf_file):
        """One process, one parser: each call prints and exits as it does
        when it is the process's first call."""
        calls = [
            (("solve", cnf_file), 10),
            (("solve", cnf_file, "--n0", "x"), 1),
            (("--help",), 0),
            (("enumerate", cnf_file), 10),
            (("curve", "--modulus", "0xb", "--a1", "1", "--a6", "1"), 0),
        ]
        first = {}
        for argv, code in calls:
            _build_parser.cache_clear()
            first[argv] = run(*argv)
            assert first[argv][0] == code, argv
        assert first[("--help",)][1].startswith("usage: onsat")
        assert "invalid int value: 'x'" in first[("solve", cnf_file, "--n0", "x")][2]
        _build_parser.cache_clear()
        for _ in range(2):
            for argv, _ in calls:
                assert run(*argv) == first[argv], argv
        assert _build_parser.cache_info().misses == 1


# Run in a fresh ``python -I``: import onsat, then solve and enumerate a
# DIMACS and a system file and enumerate a curve, printing what was
# loaded before and during the runs.
_STARTUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import io
import onsat, onsat.cli
at_import = sorted({"dataclasses", "inspect"} & sys.modules.keys())
before = set(sys.modules)
sys.stdout = sys.stderr = io.StringIO()
codes = [onsat.cli.main(argv) for argv in (
    ["solve", sys.argv[2]], ["enumerate", sys.argv[2]],
    ["solve", sys.argv[3]], ["enumerate", sys.argv[3]],
    ["curve", "--modulus", "0xb", "--a1", "1", "--a6", "1", "--method", "boolean"],
)]
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(repr((at_import, codes, sorted(set(sys.modules) - before))))
"""


class TestStartup:
    def test_import_loads_no_dataclasses_and_runs_import_nothing_of_onsat(self, tmp_path):
        """``dataclasses`` pulls in ``inspect`` (and ``ast``, ``dis``,
        ``tokenize``), about 10 ms, more than onsat's own modules take;
        and what a run needs is imported with onsat, not during a run."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(onsat.__file__)))
        dimacs = tmp_path / "sat.cnf"
        dimacs.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
        system = tmp_path / "quad.sys"
        system.write_text("x & y ^ z = 1\n")
        done = subprocess.run(
            [sys.executable, "-I", "-c", _STARTUP_CHILD, src, str(dimacs), str(system)],
            capture_output=True, text=True, timeout=60, check=True)
        at_import, codes, during = ast.literal_eval(done.stdout)
        assert at_import == []
        assert codes == [10, 10, 10, 10, 0]
        assert [m for m in during if m.startswith(("onsat", "json"))] == []

    def test_no_function_imports(self):
        """What a run needs is imported with its module, as the README
        says: no function, method or lambda in onsat holds an import."""
        pkg = os.path.dirname(os.path.abspath(onsat.__file__))
        found = []
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    found += [(name, node.lineno) for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert found == []
