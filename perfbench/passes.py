"""Runs one workload's instances through ``onsat.cli.main`` in this process.

Started by ``run.py`` as a fresh interpreter, so that its peak resident
memory is onsat's and not the instance generator's or the oracles'.

    python3 passes.py MANIFEST RESULT

The manifest names the onsat source directory, the instances (argv
lists), the capture directory, the measuring time and whether to trace.
The run is:

1. a verified pass: each instance's stdout goes to a file that ``run.py``
   checks afterwards (this also warms up lazy set-up);
2. timed passes while they fit in the measuring time, stdout going to a
   ``Sink`` that keeps only a line count and an order-independent digest;
3. with tracing on, one untraced pass and then traced passes, at least
   two, each reporting calls, self time and outcomes per layer.

Without tracing, set-up time (importing onsat and onsat.cli in a fresh
interpreter) is sampled between instances, spread over the timed passes.

In every pass after the first, each instance is bracketed by runs of
``reference_work``, a fixed piece of interpreter work.  The host's speed
drifts by up to 1.8x over seconds to minutes (a shared machine), and
onsat's time divided by the reference time next to it does not: that
quotient is what ``run.py`` reports as normalised time.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib
import json
import resource
import subprocess
import sys
import time

MASK = (1 << 64) - 1
REFERENCE_ROUNDS = 30_000  # a few milliseconds


def line_digest(line: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(line.encode(), digest_size=8).digest(), "little")


def text_digest(text: str) -> tuple:
    """(line count, order-independent digest) of a whole output."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return len(lines), sum(map(line_digest, lines)) & MASK


class Sink:
    """A write-only stream that keeps a line count and a digest of the lines.

    The digest is the sum of per-line hashes, so it does not depend on
    the order the lines arrive in.
    """

    def __init__(self):
        self.lines = 0
        self.digest = 0
        self._tail = ""

    def write(self, s: str) -> int:
        if "\n" not in s:
            self._tail += s
            return len(s)
        parts = (self._tail + s).split("\n")
        self._tail = parts.pop()
        self.lines += len(parts)
        self.digest = (self.digest + sum(map(line_digest, parts))) & MASK
        return len(s)

    def flush(self) -> None:
        pass

    def result(self) -> tuple:
        lines, digest = self.lines, self.digest
        if self._tail:
            lines, digest = lines + 1, (digest + line_digest(self._tail)) & MASK
        return lines, digest


class Tracer:
    """Calls, self time and outcomes per layer, from rebound functions.

    A layer's self time is the time inside its functions minus the time
    inside layer functions they call.  Spans are folded into the totals
    as they close, so memory stays flat however many calls a pass makes.
    """

    def __init__(self):
        self._open: list = []  # child time of each open span, innermost last
        self.reset()

    def reset(self) -> None:
        self.calls: dict = {}
        self.self_s: dict = {}
        self.conflicts: dict = {}
        self.sat: dict = {}

    def wrap(self, layer: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            tracer._open.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "Conflict":
                    tracer.conflicts[layer] = tracer.conflicts.get(layer, 0) + 1
                raise
            finally:
                span = clock() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += span
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + span - child[0]
            if getattr(result, "sat", False) is True:
                tracer.sat[layer] = tracer.sat.get(layer, 0) + 1
            return result

        return traced

    def install(self, layers: dict) -> tuple:
        """Rebind every listed name; returns (undo list, absent names).

        A name is ``module.attr`` or ``module.Class.attr`` inside the
        onsat package.  A name that no longer resolves is reported as
        absent instead of failing the run.
        """
        undo, absent = [], []
        for layer, names in layers.items():
            for name in names:
                module, *path = name.split(".")
                try:
                    owner = importlib.import_module(f"onsat.{module}")
                    for attr in path[:-1]:
                        owner = getattr(owner, attr)
                    fn = getattr(owner, path[-1])
                except (ImportError, AttributeError):
                    absent.append(name)
                    continue
                undo.append((owner, path[-1], fn))
                setattr(owner, path[-1], self.wrap(layer, fn))
        return undo, absent

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


def reference_work(rounds: int = REFERENCE_ROUNDS) -> int:
    """Fixed interpreter work: integer arithmetic and dict stores.

    Of the loops tried, its time tracked onsat's most closely as the
    host's speed drifted.
    """
    acc, table = 0, {}
    for i in range(rounds):
        acc += i * i % 7
        table[i % 1000] = acc
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import onsat, onsat.cli\n"
    "print(time.perf_counter() - t)\n"
)


class SetupProbes:
    """Import times of onsat in fresh interpreters, spread over a time window.

    The host's speed drifts over seconds, so probes taken back to back
    would all see the speed of one moment.  ``due`` runs the next probe
    once its share of the window has passed; ``finish`` runs any left.
    Each sample is (import seconds, mean of the reference runs just
    before and after the probe).
    """

    def __init__(self, src: str, runs: int, seconds: float):
        self.src, self.runs, self.seconds = src, runs, seconds
        self.samples: list = []
        self.probe()  # compiled bytecode exists for a user after the first start
        self.samples.clear()
        self.start = time.perf_counter()

    def probe(self) -> None:
        ref_before = reference_seconds()
        out = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, self.src],
            capture_output=True, text=True, check=True, timeout=60)
        ref_after = reference_seconds()
        self.samples.append((float(out.stdout), (ref_before + ref_after) / 2))

    def due(self) -> bool:
        elapsed = time.perf_counter() - self.start
        if len(self.samples) < self.runs and (
                elapsed >= len(self.samples) * self.seconds / self.runs):
            self.probe()
            return True
        return False

    def finish(self) -> list:
        while len(self.samples) < self.runs:
            self.probe()
        return self.samples


def run_instance(main, argv, stdout, stderr) -> dict:
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        error = None
    except Exception as exc:  # reported as a failed instance, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return {"rc": rc, "error": error, "s": time.perf_counter() - start}


def verified_pass(main, instances: list, capture_dir: str) -> list:
    out = []
    for inst in instances:
        entry = {}
        for key, argv in (("main", inst["argv"]), ("cross", inst.get("cross_argv"))):
            if argv is None:
                continue
            with open(f"{capture_dir}/{inst['name']}.{key}.out", "w") as fh:
                entry[key] = run_instance(main, argv, fh, Sink())
        out.append(entry)
    return out


def sink_pass(main, instances: list, between=None) -> dict:
    """One pass over every instance, output to sinks.

    ``wall_s`` is the sum of the instance times, so it leaves out the
    reference runs, the collections and ``between`` (called after each
    instance; true if it did work).  Each record's ``ref_s`` is the mean
    of the reference runs just before and after it.
    """
    records = []
    ref_before = reference_seconds()
    for inst in instances:
        gc.collect()  # garbage of the previous instance is not this one's cost
        sink = Sink()
        rec = run_instance(main, inst["argv"], sink, Sink())
        ref_after = reference_seconds()
        rec["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        if between is not None and between():
            ref_before = reference_seconds()
        rec["lines"], rec["digest"] = sink.result()
        records.append(rec)
    return {"wall_s": sum(rec["s"] for rec in records), "instances": records}


def main() -> int:
    with open(sys.argv[1]) as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    from onsat import cli

    instances = manifest["instances"]
    seconds = manifest["seconds"]
    result = {"verified": verified_pass(cli.main, instances, manifest["capture_dir"]),
              "timed": [], "traced": []}
    probes = None if manifest["trace"] else SetupProbes(
        manifest["src"], manifest["setup_runs"], seconds)
    start = time.perf_counter()
    # another untraced pass only if it should still end within the measuring time
    while (not result["timed"] or (time.perf_counter() - start)
           * (len(result["timed"]) + 1) / len(result["timed"]) <= seconds):
        result["timed"].append(sink_pass(cli.main, instances,
                                         probes and probes.due))
        if manifest["trace"]:
            break
    result["setup_s"] = probes.finish() if probes else []
    tracer = Tracer()
    while manifest["trace"] and (len(result["traced"]) < 2
                                 or time.perf_counter() - start < seconds):
        tracer.reset()
        undo, absent = tracer.install(manifest["layers"])
        try:
            traced = sink_pass(cli.main, instances)
        finally:
            tracer.uninstall(undo)
        traced.update(absent=absent, calls=tracer.calls, self_s=tracer.self_s,
                      conflicts=tracer.conflicts, sat=tracer.sat)
        result["traced"].append(traced)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
