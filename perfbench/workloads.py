"""Seeded instance generators and output checks for each workload.

``build(name, params, seed, workdir)`` writes a workload's instance
files and returns its ``Instance`` list.  Each instance knows the onsat
command line that solves it and how to check onsat's output with the
reference code in ``oracles``.  onsat itself only ever sees the files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracles


@dataclass
class Instance:
    name: str
    argv: list
    # check(rc, stdout, cross_stdout) -> failure reason or None
    check: Callable
    # a second command run only in the verified pass, whose output the
    # check compares against
    cross_argv: Optional[list] = None


# ---------------------------------------------------------------------------
# CNF

def random_3sat(rng: random.Random, n: int, m: int) -> list:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def dimacs(n: int, clauses: list) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {n} {len(clauses)}\n{body}"


def parse_witness(stdout: str):
    """(status, literals) from `s`/`v` lines."""
    status, lits = None, []
    for line in stdout.splitlines():
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v "):
            lits.extend(int(t) for t in line[2:].split() if t != "0")
    return status, lits


def parse_cubes(stdout: str) -> list:
    """JSON solution lines -> [(fixed {var: bool}, [dont-care vars])].

    Variables are named x<number>; the number is the variable.
    """
    cubes = []
    for line in stdout.splitlines():
        obj = json.loads(line)
        fixed = {int(k[1:]): bool(b) for k, b in obj["assignment"].items()}
        cubes.append((fixed, [int(k[1:]) for k in obj["dont_care"]]))
    return cubes


def check_decide(clauses, expect_sat: bool):
    def check(rc, stdout, cross):
        status, lits = parse_witness(stdout)
        want = "SATISFIABLE" if expect_sat else "UNSATISFIABLE"
        if status != want or rc != (10 if expect_sat else 20):
            return f"verdict {status!r} (exit {rc}), reference says {want}"
        if expect_sat and not oracles.clauses_hold(clauses, lits):
            return "witness falsifies a clause"
        return None

    return check


def check_enumerate(clauses, n: int, count: int):
    def check(rc, stdout, cross):
        cubes = parse_cubes(stdout)
        if rc != (10 if count else 20):
            return f"exit {rc} with {count} models"
        got = 0
        for fixed, free in cubes:
            if len(fixed) + len(free) != n or set(fixed) & set(free):
                return "cube does not cover every variable exactly once"
            if not oracles.cube_satisfies_clauses(clauses, fixed):
                return "cube falsifies a clause"
            got += 1 << len(free)
        if not oracles.cubes_disjoint([fixed for fixed, _ in cubes]):
            return "cubes overlap"
        if got != count:
            return f"cubes cover {got} models, reference count is {count}"
        return None

    return check


def build_cnf_decide(p: dict, rng: random.Random, workdir: str) -> list:
    """For each n, draw instances until the SAT and UNSAT quotas are full."""
    out = []
    for n in p["n"]:
        m = int(p["ratio"] * n)
        need = {True: p["sat"], False: p["unsat"]}
        while need[True] or need[False]:
            clauses = random_3sat(rng, n, m)
            sat = oracles.reference_model(clauses) is not None
            if not need[sat]:
                continue
            need[sat] -= 1
            path = os.path.join(workdir, f"d{len(out):03d}-n{n}.cnf")
            with open(path, "w") as fh:
                fh.write(dimacs(n, clauses))
            out.append(Instance(
                name=os.path.basename(path),
                argv=[p["command"], path] + p["flags"],
                check=check_decide(clauses, sat),
                ))
    return out


def build_cnf_enumerate(p: dict, rng: random.Random, workdir: str) -> list:
    """Draw instances until enough have a model count inside the band.

    The band keeps the output per instance, and so the time, within a
    small factor; unbanded counts span three orders of magnitude.
    """
    n = p["n"]
    m = int(p["ratio"] * n)
    out = []
    while len(out) < p["instances"]:
        clauses = random_3sat(rng, n, m)
        count = oracles.reference_count(clauses, n)
        if not p["models_min"] <= count <= p["models_max"]:
            continue
        path = os.path.join(workdir, f"e{len(out):03d}-n{n}.cnf")
        with open(path, "w") as fh:
            fh.write(dimacs(n, clauses))
        out.append(Instance(
            name=os.path.basename(path),
            argv=[p["command"], path] + p["flags"],
            check=check_enumerate(clauses, n, count),
        ))
    return out


# ---------------------------------------------------------------------------
# GF(2^k) curves

COEFFS = ("a1", "a2", "a3", "a4", "a6")


def random_curve(rng: random.Random, k: int):
    while True:
        modulus = (1 << k) | rng.getrandbits(k) | 1
        if oracles.is_irreducible(modulus):
            break
    coeffs = {a: rng.randrange(1 << k) for a in COEFFS}
    coeffs["a1"] = coeffs["a1"] or 1  # ordinary curves only
    return modulus, coeffs


def parse_points(stdout: str) -> set:
    return {tuple(int(t, 16) for t in line.split()) for line in stdout.splitlines()}


def check_curve(modulus: int, coeffs: dict):
    expected = oracles.curve_points(coeffs, modulus)

    def check(rc, stdout, cross):
        points = parse_points(stdout)
        if rc != 0:
            return f"exit {rc}"
        if any(not oracles.curve_holds(coeffs, modulus, x, y) for x, y in points):
            return "a point is off the curve"
        if points != parse_points(cross):
            return "boolean route and field route disagree"
        if points != expected:
            return f"{len(points)} points, reference has {len(expected)}"
        return None

    return check


def quadratic_twist(modulus: int, coeffs: dict) -> dict:
    """The twist by the least delta of trace 1.

    Substituting y -> y + w (a1 x + a3) with w^2 + w = delta changes a2
    by delta a1^2 and a6 by delta a3^2.  Over GF(q) a curve and its twist
    have 2q affine points between them.
    """
    delta = next(d for d in range(1, modulus) if oracles.gf_trace(d, modulus))
    twist = dict(coeffs)
    twist["a2"] ^= oracles.gf_mul(delta, oracles.gf_mul(coeffs["a1"], coeffs["a1"], modulus), modulus)
    twist["a6"] ^= oracles.gf_mul(delta, oracles.gf_mul(coeffs["a3"], coeffs["a3"], modulus), modulus)
    return twist


def build_gf2k_curve(p: dict, rng: random.Random, workdir: str) -> list:
    """Random curves, each followed by its quadratic twist.

    Twist pairs hold exactly 2^(k+1) points, so the output size does not
    depend on the seed.
    """
    out = []
    for k, pairs in sorted((int(k), c) for k, c in p["twist_pairs"].items()):
        for _ in range(pairs):
            modulus, coeffs = random_curve(rng, k)
            for curve in (coeffs, quadratic_twist(modulus, coeffs)):
                argv = [p["command"], "--modulus", hex(modulus)]
                for a in COEFFS:
                    argv += [f"--{a}", hex(curve[a])]
                out.append(Instance(
                    name=f"c{len(out):03d}-k{k}",
                    argv=argv + p["flags"],
                    cross_argv=argv + ["--method", "field"],
                    check=check_curve(modulus, curve),
                ))
    return out


# ---------------------------------------------------------------------------
# planted quadratic systems over GF(2)

def random_mq(rng: random.Random, n: int, neq: int, quad: int, lin: int):
    planted = [rng.getrandbits(1) for _ in range(n)]
    equations = []
    for _ in range(neq):
        pairs = set()
        while len(pairs) < quad:
            a, b = sorted(rng.sample(range(n), 2))
            pairs.add((a, b))
        pairs = sorted(pairs)
        singles = sorted(rng.sample(range(n), lin))
        rhs = (sum(planted[a] & planted[b] for a, b in pairs)
               + sum(planted[a] for a in singles)) % 2
        equations.append((pairs, singles, rhs))
    return planted, equations


def system_text(n: int, equations: list) -> str:
    lines = ["vars: " + ", ".join(f"x{i}" for i in range(n))]
    for pairs, singles, rhs in equations:
        terms = [f"x{a} & x{b}" for a, b in pairs] + [f"x{a}" for a in singles]
        lines.append(" ^ ".join(terms) + f" = {rhs}")
    return "\n".join(lines) + "\n"


def check_mq(n: int, equations: list, planted: list, count: int):
    def check(rc, stdout, cross):
        cubes = parse_cubes(stdout)
        if rc != 10:
            return f"exit {rc} on a system with a planted solution"
        got, has_planted = 0, False
        for fixed, free in cubes:
            if len(fixed) + len(free) != n or set(fixed) & set(free):
                return "cube does not cover every variable exactly once"
            if not oracles.mq_cube_holds(equations, fixed, free):
                return "cube violates an equation"
            got += 1 << len(free)
            has_planted = has_planted or all(
                planted[v] == b for v, b in fixed.items())
        if not has_planted:
            return "planted solution missing"
        if not oracles.cubes_disjoint([fixed for fixed, _ in cubes]):
            return "cubes overlap"
        if got != count:
            return f"cubes cover {got} solutions, reference count is {count}"
        return None

    return check


def build_system_mq(p: dict, rng: random.Random, workdir: str) -> list:
    out = []
    n = p["vars"]
    for i in range(p["systems"]):
        planted, equations = random_mq(
            rng, n, p["equations"], p["quadratic"], p["linear"])
        count = oracles.mq_solution_mask(equations, n).bit_count()
        path = os.path.join(workdir, f"q{i:03d}.sys")
        with open(path, "w") as fh:
            fh.write(system_text(n, equations))
        out.append(Instance(
            name=os.path.basename(path),
            argv=[p["command"], path] + p["flags"],
            check=check_mq(n, equations, planted, count),
        ))
    return out


GENERATORS = {
    "cnf-decide": build_cnf_decide,
    "cnf-enumerate": build_cnf_enumerate,
    "gf2k-curve": build_gf2k_curve,
    "system-mq": build_system_mq,
}


def build(name: str, params: dict, seed: int, workdir: str) -> list:
    # the workload name is mixed into the seed so workloads never share draws
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](params, rng, workdir)
