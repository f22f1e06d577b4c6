"""A seeded mutation corpus through the command line.

System texts and DIMACS texts are mutated by truncating them, repeating
a line or a token, inserting tokens, wrapping a side in deep
parentheses and putting in huge ids.  Each mutant goes through
``cli.main`` in both modes: it must exit 1, 10 or 20 without a
traceback, and the two modes must agree on whether it is satisfiable.
A system mutant that parses must also convert, in ANF or not at all,
as the same text read line by line through the expression parser.
"""

import random
import re

from onsat.boolalg import MAX_NESTING
from onsat.solver import parse_system
from test_system_reader import (
    cli_run,
    parsed,
    polynomials,
    reference_parse_system,
    reference_polynomials,
)


SYSTEMS = [
    "x & y ^ z = 1\n(x | z) = 1\n",
    "# a comment\nvars: a, b, c, spare\na & b ^ c = 1  # direct\nb ^ c = a\na | c = 1\n",
    "x ^ y = 1\nx & z ^ y = 0\n",
    "x & y & z ^ a = 1\na & b & c ^ x & b = 0\nx ^ b & c & y = a\ny & z ^ c ^ d = 1\n",
    "a = ~b\nc' = a | b\nd ^ a & c = 0\n",
    "a = 1\na = 0\n",
    "a | b | c = 1\nb | ~c = 1\nc = a\n",
    "a | b | c | d = 1\n~a | ~b = 1\nc & d = 0\n",
    # q folds away, so the direct line's names move down a bit
    "q & 0 ^ a & b = 1\nb ^ a & c = 1\n",
]
SYSTEM_TOKENS = ["&", "^", "|", "~", "'", "(", ")", "=", "0", "1", "#", "vars:", ",",
                 " a", " x", " b & c", " ^ d", " & 0", "\n", "ñ", "x" + "9" * 40,
                 "\na | b | c = 1\n", "\na = 1\n", "\nb ^ c = 0\n", "\nb & d = 1\n"]

DIMACS = [
    "p cnf 3 2\n1 -2 0\n2 3 0\n",
    "p cnf 1 2\n1 0\n-1 0\n",
    "c worked example\np cnf 8 5\n1 -3 6 0\n2 -3 5 6 7 0\n1 2 -3 -5 -6 8 0\n"
    "-2 4 -7 -8 0\n-4 8 0\n",
    "p cnf 4 7\n1 2 3 0\n1 2 -3 0\n1 -2 4 0\n1 3 -4 0\n-3 4 2 0\n-4 3 -1 0\n-1 2 0\n",
]
DIMACS_TOKENS = ["0", " 0", "-", " -2", " 3", "+1", "1_0", " ", "\n", "p", "cnf",
                 "c ", "%", "x", "(", "p cnf 2 1\n", "\n1 2 0\n", "\n-1 0\n", "\n-2 -3 0\n",
                 "\n2 0\n", "\n-3 0\n"]
# past the enumeration cap (2^24), a trillion and 10^30
HUGE_IDS = ["16777217", "1000000000000", str(10 ** 30)]


def _repeat(rng, text: str) -> str:
    lines = text.splitlines(keepends=True)
    if lines and rng.random() < 0.5:
        i = rng.randrange(len(lines))
        return "".join(lines[:i] + [lines[i]] * rng.randint(2, 20) + lines[i:])
    tokens = text.split(" ")
    i = rng.randrange(len(tokens))
    return " ".join(tokens[:i] + [tokens[i]] * rng.randint(2, 5) + tokens[i:])


def _nest(rng, text: str) -> str:
    """One side of one line inside k parentheses, k about the bound."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    lhs, eq, rhs = lines[i].partition("=")
    k = rng.choice([1, 40, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 3000])
    if eq and rng.random() < 0.5:
        rhs = "(" * k + rhs + ")" * k
    else:
        lhs = "(" * k + lhs + ")" * k
    lines[i] = lhs + eq + rhs
    return "\n".join(lines) + "\n"


def _huge(rng, text: str, system: bool) -> str:
    """Every copy of one name of a system, or one number of a DIMACS
    text, as a huge id."""
    found = re.findall(r"[a-z]\w*" if system else r"\d+", text)
    if not found:
        return text
    old, huge = rng.choice(found), rng.choice(HUGE_IDS)
    if system:
        return re.sub(rf"\b{old}\b", "x" + huge, text)
    return re.sub(rf"\b{old}\b", huge, text, count=1)


def mutate(rng, text: str, system: bool) -> str:
    tokens = SYSTEM_TOKENS if system else DIMACS_TOKENS
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(5)
        if kind == 0:
            cut = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:  # at a line's end
                cut = text.find("\n", cut) + 1 or len(text)
            text = text[:cut]
        elif kind == 1 and text:
            text = _repeat(rng, text)
        elif kind == 2:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(tokens) + text[i:]
        elif kind == 3 and text.strip():
            text = _nest(rng, text) if system else "(" * 3000 + text
        elif text:
            text = _huge(rng, text, system)
    return text


def corpus(seed: int, seeds: list, system: bool, count: int) -> list:
    rng = random.Random(seed)
    return [mutate(rng, rng.choice(seeds), system) for _ in range(count)]


def run_both_modes(text: str, fmt: str, n0: str) -> tuple:
    """The exit codes of deciding and enumerating a text."""
    codes = []
    for mode in ("solve", "enumerate"):
        code, out, err = cli_run(text, mode, "--format", fmt, "--n0", n0)
        assert code in (1, 10, 20), (mode, text)
        assert "Traceback" not in err, (mode, text)
        if code == 1:
            assert err.startswith("onsat: "), (mode, text)
        codes.append(code)
    if 1 not in codes:
        assert codes[0] == codes[1], text
    return tuple(codes)


class TestFuzzCorpus:
    def test_system_mutants(self):
        seen = {"error": 0, "anf": 0, "trees": 0, "sat": 0, "unsat": 0}
        for i, text in enumerate(corpus(2801, SYSTEMS, True, 600)):
            codes = run_both_modes(text, "system", ("16", "2")[i % 2])
            if 20 in codes:
                seen["unsat"] += 1
            elif 10 in codes:
                seen["sat"] += 1
            got = parsed(parse_system, text)
            want = parsed(reference_parse_system, text)
            if isinstance(want[0], str):
                assert got == want, text
                seen["error"] += 1
                continue
            (system, _), (ref, _) = got, want
            polys = polynomials(system)
            # the direct lines' route, the converter on the parsed root,
            # and each equation converted on its own agree
            assert polys == polynomials(ref) == reference_polynomials(ref), text
            seen["trees" if polys is None else "anf"] += 1
        assert min(seen.values()) >= 15, seen

    def test_dimacs_mutants(self):
        seen = {1: 0, 10: 0, 20: 0}
        for i, text in enumerate(corpus(2802, DIMACS, False, 600)):
            for code in set(run_both_modes(text, "dimacs", ("16", "1")[i % 2])):
                seen[code] += 1
        assert min(seen.values()) >= 15, seen
