"""Tests of the benchmark itself: its schema, its oracles and a smoke run.

Run with ``python -m pytest perfbench``.  Nothing here asserts a timing.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import passes  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load(path):
    with open(path) as fh:
        return json.load(fh)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
SPEC = load(os.path.join(HERE, "spec.json"))


def onsat(argv):
    from onsat import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# schema

def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    names = [w["name"] for w in BENCH["workloads"]]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCH["end_to_end"])}]
    assert len(json.dumps(BENCH)) <= 64 * 1024


def test_spec_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(SPEC["workloads"])
    for w in BENCH["workloads"]:
        assert w["why"] == SPEC["workloads"][w["name"]]["why"]
    expected = [f"{layer}.{kind}" for layer in SPEC["layers"]
                for kind in ("calls", "self_s")]
    expected += list(SPEC["ratios"]) + ["other.self_s", "trace.overhead_s",
                                        "trace.absent"]
    assert [m["name"] for m in BENCH["per_layer"]] == expected
    for move in SPEC["moves"]:
        assert move["workload"] in SPEC["workloads"]
        for layer in move["layers"]:
            assert layer in SPEC["layers"] or layer in SPEC["ratios"]


def test_every_traced_name_resolves():
    tracer = passes.Tracer()
    undo, absent = tracer.install(SPEC["layers"])
    tracer.uninstall(undo)
    assert absent == []


# ---------------------------------------------------------------------------
# oracles against brute force

def brute_models(clauses, n):
    return sum(
        all(any((l > 0) == bool(bits[abs(l) - 1]) for l in c) for c in clauses)
        for bits in itertools.product((0, 1), repeat=n))


@pytest.mark.parametrize("seed", range(6))
def test_reference_dpll_and_count(seed):
    rng = random.Random(seed)
    n = 10
    clauses = workloads.random_3sat(rng, n, rng.choice([20, 35, 45, 60]))
    count = brute_models(clauses, n)
    assert oracles.reference_count(clauses, n, brute_below=4) == count
    assert oracles.reference_count(clauses, n) == count
    model = oracles.reference_model(clauses)
    assert (model is not None) == (count > 0)
    if model is not None:
        assert oracles.clauses_hold(clauses, model)


def test_mq_mask_curve_points_and_twists_by_brute_force():
    rng = random.Random(3)
    n = 8
    planted, equations = workloads.random_mq(rng, n, 6, 3, 1)
    mask = oracles.mq_solution_mask(equations, n)
    for j in range(1 << n):
        point = {i: (j >> i) & 1 for i in range(n)}
        assert bool(mask >> j & 1) == oracles.mq_holds(equations, point)
    assert oracles.mq_holds(equations, dict(enumerate(planted)))

    modulus, coeffs = workloads.random_curve(rng, 4)
    size = 16
    naive = {(x, y) for x in range(size) for y in range(size)
             if oracles.curve_holds(coeffs, modulus, x, y)}
    assert oracles.curve_points(coeffs, modulus) == naive
    twist = workloads.quadratic_twist(modulus, coeffs)
    assert len(naive) + len(oracles.curve_points(twist, modulus)) == 2 * size


def test_cubes_disjoint():
    assert oracles.cubes_disjoint([{1: True}, {1: False, 2: True}, {1: False, 2: False}])
    assert not oracles.cubes_disjoint([{1: True}, {2: True}])
    assert not oracles.cubes_disjoint([{1: True, 2: False}, {1: True, 2: False}])


# ---------------------------------------------------------------------------
# the checks reject broken outputs

def test_decide_check_rejects_a_flipped_witness(tmp_path):
    clauses = [(1, 2), (-1, 2), (-2, 3), (-3, -4)]  # forces 2, 3 and -4
    path = tmp_path / "f.cnf"
    path.write_text(workloads.dimacs(4, clauses))
    rc, out = onsat(["solve", str(path), "--workers", "1"])
    check = workloads.check_decide(clauses, expect_sat=True)
    assert check(rc, out, None) is None
    flipped = out.replace(" 2 ", " -2 ")
    assert flipped != out
    assert check(rc, flipped, None) == "witness falsifies a clause"
    assert workloads.check_decide(clauses, expect_sat=False)(rc, out, None)


def test_enumerate_check_rejects_a_dropped_or_repeated_cube(tmp_path):
    rng = random.Random(7)
    n = 12
    clauses = workloads.random_3sat(rng, n, 30)
    path = tmp_path / "e.cnf"
    path.write_text(workloads.dimacs(n, clauses))
    rc, out = onsat(["enumerate", str(path), "--workers", "1"])
    lines = out.splitlines()
    assert len(lines) > 2
    check = workloads.check_enumerate(clauses, n, brute_models(clauses, n))
    assert check(rc, out, None) is None
    dropped = "\n".join(lines[1:]) + "\n"
    assert check(rc, dropped, None).startswith("cubes cover")
    repeated = "\n".join(lines[1:] + lines[:2]) + "\n"
    assert check(rc, repeated, None) == "cubes overlap"


def test_sink_digest_ignores_order_and_write_boundaries():
    a, b = passes.Sink(), passes.Sink()
    for piece in ["one", " line", "\n", "two\nthree", "\n"]:
        a.write(piece)
    b.write("three\ntwo\none line\n")
    assert a.result() == b.result() == passes.text_digest("one line\ntwo\nthree\n")
    assert a.result()[0] == 3


def test_tracer_reports_absent_names_and_restores_functions():
    tracer = passes.Tracer()
    undo, absent = tracer.install({"cnf.reduce": ["cnf.assign_and_reduce"],
                                   "cnf.units": ["cnf.propagate_units"],
                                   "gone": ["cnf.no_such_function",
                                            "no_such_module.f"]})
    try:
        rc, _ = onsat(["solve", os.devnull, "--format", "dimacs", "--workers", "1"])
    finally:
        tracer.uninstall(undo)
    assert absent == ["cnf.no_such_function", "no_such_module.f"]
    assert rc == 10
    assert tracer.calls == {"cnf.units": 1}
    from onsat import cnf
    assert not hasattr(cnf.assign_and_reduce, "__wrapped__")


def test_end_to_end_divides_each_time_by_its_own_reference():
    import run

    nominal = run.NOMINAL_REFERENCE_S
    # the host ran at half speed during the second pass: every time doubled
    timed = [{"instances": [{"s": 1.0, "ref_s": nominal}, {"s": 3.0, "ref_s": nominal}]},
             {"instances": [{"s": 2.0, "ref_s": 2 * nominal},
                            {"s": 6.0, "ref_s": 2 * nominal}]}]
    result = {"timed": timed, "peak_rss_kb": 2048,
              "setup_s": [(0.02, nominal), (0.08, 2 * nominal), (0.03, nominal)]}
    values, raw, _ = run.end_to_end(result, solution_lines=5)
    assert values["wall_s"] == pytest.approx(4.0)
    assert values["instance_s_p50"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(0.03)
    assert values["peak_rss_mb"] == 2.0 and values["cubes_out"] == 5
    assert raw["wall_s_raw"][0] == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# smoke runs of the whole benchmark

def run_bench(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "3",
         "--seconds", "0.2", *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    return out.stdout.splitlines()


def test_smoke_end_to_end_all_workloads():
    lines = run_bench("--workload", "all")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w['name']}/{m['name']}" for w in BENCH["workloads"]
                for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert sum("fail_frac 0 " in line for line in lines) == len(BENCH["workloads"])


def test_smoke_trace_repeats_call_counts():
    first = json.loads(run_bench("--workload", "gf2k-curve", "--trace", "1")[-1])
    second = json.loads(run_bench("--workload", "gf2k-curve", "--trace", "1")[-1])
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    calls = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls["boolalg.cofactor.calls"]["value"] > 0
    assert first["metrics"]["trace.absent"]["value"] == 0
