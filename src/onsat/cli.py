"""Command line interface.

Subcommands:

* ``solve`` decides a problem file (DIMACS CNF or the equation-per-line
  system format, auto-detected).  Exit code 10 means satisfiable, 20
  unsatisfiable, 1 usage or parse error, or a brute-force leaf over the
  enumeration cap.
* ``enumerate`` prints every solution of a problem file, with the
  same flags and exit codes.
* ``verify`` runs the expansion identity suite on random functions and
  ON sets, or on a user-supplied pair.  Exit 0 when every identity
  holds.
* ``curve`` enumerates the points of a Weierstrass curve over GF(2^k)
  by either method.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import warnings
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

from . import boolalg, cnf, expansion, gf2k, onset, solver
from .boolalg import BoolAlgError, VarTable


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Building it costs about a millisecond, a fifth of a small decide run
    made in-process; parsing keeps no state between calls, and argparse
    looks ``sys.stdout`` and ``sys.stderr`` up when it prints, so
    redirecting them between calls still works.
    """
    parser = argparse.ArgumentParser(
        prog="onsat",
        description="Boolean equation and CNF solver based on orthonormal-term decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("input", nargs="?", default="-",
                       help="problem file, - for stdin")
        p.add_argument("--n0", type=int, default=16,
                       help="brute-force threshold (variables)")
        p.add_argument("--split-depth", type=int, default=3,
                       help="variables per decomposition chain")
        p.add_argument("--workers", type=int, default=None,
                       help="ignored: the search is serial")
        p.add_argument("--format",
                       choices=["auto", "dimacs", "system", "json"],
                       default="auto",
                       help="input format / output flavor")
        p.add_argument("--strict-dimacs", action="store_true",
                       help="treat DIMACS header mismatches as errors")
        p.add_argument("--expand-dont-cares", action="store_true",
                       help="emit every total assignment instead of cubes")

    p_solve = sub.add_parser("solve", help="decide satisfiability")
    add_solver_flags(p_solve)
    p_enum = sub.add_parser("enumerate", help="enumerate all solutions")
    add_solver_flags(p_enum)

    p_verify = sub.add_parser("verify", help="check expansion identities")
    p_verify.add_argument("--n", type=int, default=4,
                          help="number of variables for random cases")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--func", default=None,
                          help="check one expression instead of random ones")
    p_verify.add_argument("--onset", default=None,
                          help="ON set: 'chain: x1,~x2' or 'funcs: <e>, <e>'")

    p_curve = sub.add_parser("curve", help="enumerate curve points over GF(2^k)")
    p_curve.add_argument("--modulus", required=True,
                         help="irreducible modulus bits in hex, e.g. 0xb")
    for name in ("a1", "a2", "a3", "a4", "a6"):
        p_curve.add_argument(f"--{name}", default="0",
                             help=f"curve coefficient {name} in hex")
    p_curve.add_argument("--method",
                         choices=[gf2k.FIELD_DIRECT, gf2k.BOOLEAN_SOLVER],
                         default=gf2k.FIELD_DIRECT)
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _looks_like_dimacs(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        return line.split()[:2] == ["p", "cnf"]
    return False


class _Cubes:
    """Output lines of solution cubes, one line per cube.

    Built once per solve.  A cube is a dict of fixed values; the
    variables of ``universe`` (sorted) that it leaves out are its
    don't-cares.  A DIMACS ``v`` line lists the cube's literals ``-k``
    and ``k`` by variable, so it reads neither names nor the universe;
    a decide run prints one such line at most.  In JSON lines every
    variable has its two value fragments, ``"name": 0`` and
    ``"name": 1``, and ``order`` lists the variables in the order of
    their fragments in a line: keys sort as strings, as ``json`` does
    with ``sort_keys`` (so "x10" comes before "x2").  The JSON
    ``dont_care`` list is in variable order.
    """

    def __init__(self, names: Optional[list], universe, dimacs: bool):
        self.dimacs = dimacs
        if not dimacs:
            self.universe = universe
            # what json.dumps gives a str, without its per-call set-up
            self.quoted = [encode_basestring_ascii(name) for name in names]
            self.frags = [(q + ": 0", q + ": 1") for q in self.quoted]
            self.order = sorted(range(len(names)), key=names.__getitem__)

    def text(self, cube: dict) -> str:
        """The line of one cube."""
        if self.dimacs:
            lits = [f"{v + 1}" if cube[v] else f"-{v + 1}" for v in sorted(cube)]
            return " ".join(["v", *lits, "0\n"])
        frags = self.frags
        body = ", ".join([frags[v][cube[v]] for v in self.order if v in cube])
        free = ", ".join([self.quoted[v] for v in self.universe if v not in cube])
        return '{"assignment": {' + body + '}, "dont_care": [' + free + "]}\n"


def _expanded(cubes, universe, decide: bool) -> Iterator[dict]:
    """Each cube's total assignments over ``universe`` (sorted), first
    don't-care most significant; decide mode takes only the first, with
    every don't-care at 0.  In enumerate mode a cube with more
    don't-cares than the enumeration cap allows raises
    TooManyVariables, as a leaf over the cap does."""
    for cube in cubes:
        if not decide:
            boolalg._check_cap(len(universe) - len(cube))
        free = [v for v in universe if v not in cube]
        for idx in range(1 if decide else 1 << len(free)):
            yield {**cube, **boolalg._point(idx, free)}


def _emit_solutions(cubes, printer: _Cubes) -> bool:
    """Print each cube's line as it comes; True when there was a cube.

    DIMACS style starts with the ``s`` status line, so it waits for the
    first cube (or the end) before printing anything.
    """
    write = sys.stdout.write
    sat = False
    for cube in cubes:
        if printer.dimacs and not sat:
            write("s SATISFIABLE\n")
        sat = True
        write(printer.text(cube))
    if printer.dimacs and not sat:
        write("s UNSATISFIABLE\n")
    return sat


def _run_solve(args, mode: str) -> int:
    text = _read_input(args.input)
    if args.format in ("dimacs", "system"):
        input_fmt = args.format
    else:
        input_fmt = "dimacs" if _looks_like_dimacs(text) else "system"
    cfg = solver.SolverConfig(n0=args.n0, split_depth=args.split_depth, mode=mode)
    if input_fmt == "dimacs":
        # a header mismatch is reported on every run, as one line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", cnf.HeaderMismatch)
            problem = cnf.parse_dimacs(text, strict=args.strict_dimacs)
        for w in caught:
            print(f"onsat: warning: {w.message}", file=sys.stderr)
        # decide mode speaks the usual s/v protocol, which names no
        # variable; enumerate mode reports solution cubes as JSON lines
        dimacs_style = args.format != "json" and mode == solver.DECIDE
        if (not dimacs_style or args.expand_dont_cares) and (
                problem.num_vars > boolalg.DEFAULT_CAP):
            # such lines name every variable; refuse before naming them
            raise boolalg.TooManyVariables(
                f"{problem.num_vars} variables exceed the cap of {boolalg.DEFAULT_CAP}")
        names = None if dimacs_style else [f"x{v + 1}" for v in range(problem.num_vars)]
        universe = range(problem.num_vars)
        cubes = cnf.leaf_blocks(problem, cfg)
    else:
        system, table = solver.parse_system(text)
        dimacs_style = False
        names, universe = table.names, sorted(system.root_vars)
        cubes = solver.leaf_blocks(system, cfg)
    if args.expand_dont_cares:
        cubes = _expanded(cubes, universe, mode == solver.DECIDE)
    # printed leaf by leaf as the search reaches them
    sat = _emit_solutions(cubes, _Cubes(names, universe, dimacs_style))
    return 10 if sat else 20


def _expansion_holds(f, e, over) -> tuple:
    """(reconstruction, coefficient-range) for an expansion e of f.

    The reconstruction must equal f, and each coefficient a of a member
    phi must lie between f phi and f + phi'.
    """
    recon = boolalg.semantically_equal(e.reconstruct(), f, over=over)
    in_range = all(
        boolalg.semantically_equal(f & phi & a, f & phi, over=over)
        and boolalg.semantically_equal(a & (f | ~phi), a, over=over)
        for a, phi in zip(e.coefficients, e.base.members)
    )
    return recon, in_range


def _verify_identities(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    # every identity is checked over all 2^n points: refuse before
    # building anything n long
    boolalg._check_cap(args.n)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rng = random.Random(args.seed)
    table = VarTable()
    failures = []

    def report(name: str, ok: bool) -> None:
        print(f"{'ok' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    if args.func or args.onset:
        if not (args.func and args.onset):
            print("verify: --func and --onset go together", file=sys.stderr)
            return 1
        f = boolalg.parse_expr(args.func, table)
        base = onset.parse_onset_spec(args.onset, table)
        recon, in_range = _expansion_holds(
            f, expansion.expand(f, base), f.vars | base.vars)
        report("reconstruction", recon)
        report("coefficient-range", in_range)
        return 1 if failures else 0

    n = args.n
    ids = [table.intern(f"x{i + 1}") for i in range(n)]

    def random_func():
        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                choice = rng.random()
                if choice < 0.1:
                    return boolalg.const(rng.randint(0, 1))
                v = boolalg.var(rng.choice(ids))
                return v if rng.random() < 0.5 else ~v
            op = rng.choice(["and", "or", "xor", "not"])
            if op == "not":
                return ~build(depth - 1)
            a, b = build(depth - 1), build(depth - 1)
            return {"and": a & b, "or": a | b, "xor": a ^ b}[op]

        return build(3)

    def random_base():
        depth = rng.randint(1, min(3, n))
        lits = [(v, rng.random() < 0.5)
                for v in rng.sample(ids, depth)]
        return onset.term_chain(lits)

    names = [
        "reconstruction", "coefficient-range", "combine-ops",
        "composition", "dual-star", "eliminant-projection",
        "minterm-consistency",
    ]
    ok = dict.fromkeys(names, True)
    for _ in range(args.trials):
        f, g = random_func(), random_func()
        base = random_base()
        over = f.vars | g.vars | base.vars | set(ids)
        ef = expansion.expand(f, base)
        eg = expansion.expand(g, base)
        recon, in_range = _expansion_holds(f, ef, over)
        ok["reconstruction"] &= recon
        ok["coefficient-range"] &= in_range
        for op, pyop in (("and", lambda x, y: x & y),
                         ("or", lambda x, y: x | y),
                         ("xor", lambda x, y: x ^ y)):
            got = expansion.combine(ef, eg, op)
            if not boolalg.semantically_equal(
                    got.reconstruct(), pyop(f, g), over=over):
                ok["combine-ops"] = False
        if not boolalg.semantically_equal(
                expansion.negate(ef).reconstruct(), ~f, over=over):
            ok["combine-ops"] = False
        outer = boolalg.var(0) ^ boolalg.var(1)
        comp = expansion.compose(outer, [ef, eg])
        if not boolalg.semantically_equal(comp.reconstruct(), f ^ g, over=over):
            ok["composition"] = False
        if not boolalg.semantically_equal(
                boolalg.dual(boolalg.dual(f)), f, over=over):
            ok["dual-star"] = False
        if f.vars:
            x = min(f.vars)
            elim = expansion.eliminant(f, x)
            zeros = {tuple(sorted(a.items()))
                     for a in boolalg.zero_set(elim, over=f.vars - {x})}
            projected = set()
            for a in boolalg.zero_set(f, over=f.vars):
                projected.add(tuple(sorted(
                    (v, b) for v, b in a.items() if v != x)))
            if zeros != projected:
                ok["eliminant-projection"] = False
            x1 = {x}
            consistent = expansion.minterm_consistency(f, x1)
            truly = len(boolalg.zero_set(f, over=f.vars)) > 0
            if consistent != truly:
                ok["minterm-consistency"] = False
    for name in names:
        report(f"{name} ({args.trials} trials)", ok[name])
    return 1 if failures else 0


def _run_curve(args) -> int:
    # hex numbers are read as DIMACS numbers are: ASCII, no separators
    hexa = functools.partial(cnf._ascii_int, base=16)
    field = gf2k.Field(hexa(args.modulus))
    curve = gf2k.Curve(
        a1=hexa(args.a1), a2=hexa(args.a2), a3=hexa(args.a3),
        a4=hexa(args.a4), a6=hexa(args.a6),
    )
    points = gf2k.enumerate_curve(curve, field, args.method)
    for x, y in sorted(points):
        print(f"{x:#x} {y:#x}")
    print(f"c {len(points)} points", file=sys.stderr)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "solve":
            return _run_solve(args, solver.DECIDE)
        if args.command == "enumerate":
            return _run_solve(args, solver.ENUMERATE)
        if args.command == "verify":
            return _verify_identities(args)
        if args.command == "curve":
            return _run_curve(args)
    except (BoolAlgError, OSError, ValueError) as exc:
        print(f"onsat: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
