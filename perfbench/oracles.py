"""Reference answers and output checks that share no code with onsat.

Every function here works on plain Python data (clause lists, cube
dicts, integer bitmasks, field elements as ints) and imports nothing
from the ``onsat`` package, so a defect in onsat cannot hide itself by
also breaking its own check.

Literals follow DIMACS: ``+v`` is variable v true, ``-v`` false,
variables numbered from 1.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# CNF: a small DPLL for verdicts and a counting DPLL for model counts

def _simplify(clauses: list, lit: int):
    """Clauses after setting lit true; None if a clause becomes empty."""
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = tuple(l for l in c if l != -lit)
            if not c:
                return None
        out.append(c)
    return out


def _propagate(clauses: list, fixed: list):
    """Unit propagation; appends forced literals to fixed.  None on conflict."""
    while clauses is not None:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            return clauses
        fixed.append(unit)
        clauses = _simplify(clauses, unit)
    return None


def _branch_literal(clauses: list) -> int:
    """Jeroslow-Wang style choice: literals of short clauses weigh most."""
    score: dict = {}
    for c in clauses:
        w = 4.0 ** -len(c)
        for l in c:
            score[l] = score.get(l, 0.0) + w
    return max(score, key=lambda l: (score[l] + score.get(-l, 0.0), score[l], -l))


def reference_model(clauses) -> list | None:
    """A satisfying list of literals, or None when the clauses are UNSAT."""

    def solve(cls, fixed):
        fixed = list(fixed)
        cls = _propagate(cls, fixed)
        if cls is None:
            return None
        if not cls:
            return fixed
        lit = _branch_literal(cls)
        for choice in (lit, -lit):
            sub = _simplify(cls, choice)
            if sub is not None:
                got = solve(sub, fixed + [choice])
                if got is not None:
                    return got
        return None

    return solve([tuple(c) for c in clauses], [])


def _point_patterns(k: int) -> list:
    """Bit j of pattern i is bit i of j, over the 2^k points j."""
    total = 1 << k
    pats = []
    for i in range(k):
        half = 1 << i
        pat = ((1 << half) - 1) << half
        width = half << 1
        while width < total:
            pat |= pat << width
            width <<= 1
        pats.append(pat)
    return pats


def _brute_count(clauses: list, occ: list) -> int:
    pos = {v: i for i, v in enumerate(occ)}
    pats = _point_patterns(len(occ))
    full = (1 << (1 << len(occ))) - 1
    sat = full
    for c in clauses:
        true_somewhere = 0
        for l in c:
            p = pats[pos[abs(l)]]
            true_somewhere |= p if l > 0 else full ^ p
        sat &= true_somewhere
    return sat.bit_count()


def reference_count(clauses, num_vars: int, brute_below: int = 12) -> int:
    """Number of total assignments of variables 1..num_vars satisfying clauses."""

    def count(cls, free):
        fixed: list = []
        cls = _propagate(cls, fixed)
        if cls is None:
            return 0
        free -= len(fixed)
        if not cls:
            return 1 << free
        occ = sorted({abs(l) for c in cls for l in c})
        if len(occ) <= brute_below:
            return _brute_count(cls, occ) << (free - len(occ))
        lit = _branch_literal(cls)
        total = 0
        for choice in (lit, -lit):
            sub = _simplify(cls, choice)
            if sub is not None:
                total += count(sub, free - 1)
        return total

    return count([tuple(c) for c in clauses], num_vars)


def clauses_hold(clauses, literals) -> bool:
    """Every clause has a literal made true by the given literals."""
    true = set(literals)
    return all(any(l in true for l in c) for c in clauses)


def cube_satisfies_clauses(clauses, fixed: dict) -> bool:
    """Every completion of the cube satisfies every clause."""
    true = {v if b else -v for v, b in fixed.items()}
    return not any(map(true.isdisjoint, clauses))


def cubes_disjoint(cubes: list) -> bool:
    """No point lies in two cubes.  Each cube maps variable -> bool.

    Two cubes are disjoint exactly when some variable is fixed in both
    to different values.  The check splits the set on a variable fixed
    in every cube of a group when there is one (the usual case for the
    output of a search tree), else on the most often fixed variable,
    copying the cubes free on it into both halves.
    """
    keys = [frozenset(c) for c in cubes]
    stack = [(list(range(len(cubes))), frozenset())]
    while stack:
        group, used = stack.pop()
        if len(group) < 2:
            continue
        common = frozenset.intersection(*[keys[i] for i in group]) - used
        if common:
            v = min(common)
        else:
            tally: dict = {}
            for i in group:
                for u in cubes[i]:
                    if u not in used:
                        tally[u] = tally.get(u, 0) + 1
            if not tally:
                return False  # two cubes with no fixed variable left
            v = min(tally, key=lambda u: (-tally[u], u))
        halves = ([], [])
        for i in group:
            b = cubes[i].get(v)
            if b is None:
                halves[0].append(i)
                halves[1].append(i)
            else:
                halves[b].append(i)
        used = used | {v}
        stack.append((halves[0], used))
        stack.append((halves[1], used))
    return True


# ---------------------------------------------------------------------------
# GF(2^k) by carry-less arithmetic

def is_irreducible(modulus: int) -> bool:
    """True when the binary polynomial has no factor of degree 1..k/2."""
    k = modulus.bit_length() - 1
    if k < 1 or not modulus & 1:
        return False

    def rem(a: int, d: int) -> int:
        while a and a.bit_length() >= d.bit_length():
            a ^= d << (a.bit_length() - d.bit_length())
        return a

    return all(rem(modulus, d) for d in range(2, 1 << (k // 2 + 1)))


def gf_mul(a: int, b: int, modulus: int) -> int:
    """Carry-less product of a and b reduced by the modulus."""
    k = modulus.bit_length() - 1
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= modulus
    return acc


def gf_trace(a: int, modulus: int) -> int:
    """a + a^2 + a^4 + ... + a^(2^(k-1)), which is 0 or 1."""
    acc = t = a
    for _ in range(modulus.bit_length() - 2):
        t = gf_mul(t, t, modulus)
        acc ^= t
    return acc


def curve_holds(coeffs: dict, modulus: int, x: int, y: int) -> bool:
    """y^2 + a1 x y + a3 y + x^3 + a2 x^2 + a4 x + a6 == 0 in the field."""
    m = lambda a, b: gf_mul(a, b, modulus)
    x2 = m(x, x)
    lhs = m(y, y) ^ m(m(coeffs["a1"], x), y) ^ m(coeffs["a3"], y)
    rhs = m(x2, x) ^ m(coeffs["a2"], x2) ^ m(coeffs["a4"], x) ^ coeffs["a6"]
    return lhs == rhs


def curve_points(coeffs: dict, modulus: int) -> set:
    """Every affine point, by trying all (x, y)."""
    size = 1 << (modulus.bit_length() - 1)
    m = lambda a, b: gf_mul(a, b, modulus)
    squares = [m(y, y) for y in range(size)]
    points = set()
    for x in range(size):
        x2 = m(x, x)
        rhs = m(x2, x) ^ m(coeffs["a2"], x2) ^ m(coeffs["a4"], x) ^ coeffs["a6"]
        lin = m(coeffs["a1"], x) ^ coeffs["a3"]
        for y in range(size):
            if squares[y] ^ m(lin, y) == rhs:
                points.add((x, y))
    return points


# ---------------------------------------------------------------------------
# quadratic systems over GF(2)
#
# An equation is (pairs, singles, rhs): the XOR of x_a x_b over pairs
# and x_a over singles equals rhs.  Variables are numbered from 0.

def mq_holds(equations, point: dict) -> bool:
    return all(
        (sum(point[a] & point[b] for a, b in pairs)
         + sum(point[a] for a in singles)) % 2 == rhs
        for pairs, singles, rhs in equations
    )


def mq_cube_holds(equations, fixed: dict, free: list) -> bool:
    """Every completion of the cube (free variables in any value) solves all."""
    pats = dict(zip(free, _point_patterns(len(free))))
    full = (1 << (1 << len(free))) - 1
    bits = {v: (full if b else 0) for v, b in fixed.items()}
    bits.update(pats)
    for pairs, singles, rhs in equations:
        acc = full if rhs else 0
        for a, b in pairs:
            acc ^= bits[a] & bits[b]
        for a in singles:
            acc ^= bits[a]
        if acc:
            return False
    return True


def mq_solution_mask(equations, n: int) -> int:
    """Bit j set when point j (bit i of j is x_i) solves every equation.

    All 2^n points are evaluated at once, one integer bit per point.
    """
    pats = _point_patterns(n)
    full = (1 << (1 << n)) - 1
    ok = full
    for pairs, singles, rhs in equations:
        acc = full if rhs else 0
        for a, b in pairs:
            acc ^= pats[a] & pats[b]
        for a in singles:
            acc ^= pats[a]
        ok &= full ^ acc
    return ok
