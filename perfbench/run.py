"""The onsat benchmark: seeded workloads, end-to-end timings, layer traces.

    python3 perfbench/run.py --workload cnf-decide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each run generates the workload's instances from the seed, runs them
through ``onsat.cli.main`` in a fresh interpreter (``passes.py``) with
``--workers 1``, checks every output against the reference code in
``oracles.py``, and prints a summary followed, on the last line, by one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
their times normalised to a fixed reference speed (see ``end_to_end``);
with ``--trace 1`` they are its per-layer ones, from traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 150
# Normalised times are in seconds at the speed where the reference work
# (passes.reference_work) takes this long: about its time on a 2-vCPU
# x86-64 VM at full speed.  Only ratios of normalised times matter.
NOMINAL_REFERENCE_S = 0.004

sys.path.insert(0, HERE)
import passes  # noqa: E402
import workloads  # noqa: E402


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_passes(instances: list, workdir: str, seconds: float, trace: bool,
               spec: dict) -> dict:
    manifest = {
        "src": SRC,
        "capture_dir": workdir,
        "seconds": seconds,
        "trace": trace,
        "layers": spec["layers"],
        "setup_runs": spec["setup_runs"],
        "instances": [{"name": i.name, "argv": i.argv, "cross_argv": i.cross_argv}
                      for i in instances],
    }
    manifest_path = os.path.join(workdir, "manifest.json")
    result_path = os.path.join(workdir, "result.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "passes.py"), manifest_path,
         result_path],
        check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return load_json(result_path)


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def verify(instances: list, workdir: str, result: dict) -> tuple:
    """Check the verified pass with the oracles and every later pass by digest.

    Returns (failure reasons by instance name, solution lines emitted).
    """
    failures, solution_lines = {}, 0
    runs = result["timed"] + result["traced"]
    for idx, (inst, got) in enumerate(zip(instances, result["verified"])):
        base = os.path.join(workdir, inst.name)
        main = got["main"]
        stdout = read(base + ".main.out")
        cross = read(base + ".cross.out") if inst.cross_argv else None
        errors = [e for e in (main["error"], got.get("cross", {}).get("error")) if e]
        reason = errors[0] if errors else inst.check(main["rc"], stdout, cross)
        if reason is None:
            expected = passes.text_digest(stdout)
            for run in runs:
                rec = run["instances"][idx]
                if rec["error"] or rec["rc"] != main["rc"] or (
                        (rec["lines"], rec["digest"]) != expected):
                    reason = "a timed pass gave other output than the verified pass"
                    break
        if reason is not None:
            failures[inst.name] = reason
        solution_lines += sum(
            1 for line in stdout.splitlines() if not line.startswith(("s ", "c ")))
    return failures, solution_lines


def end_to_end(result: dict, solution_lines: int) -> tuple:
    """End-to-end values, plus raw timings and notes for the printed summary.

    Times are normalised: each measured time is multiplied by
    NOMINAL_REFERENCE_S over the time of the reference work run next to
    it (see ``passes.py``).  The host's speed drifts by up to 1.8x over
    seconds to minutes, and the normalised times do not follow it.  The
    times as measured are printed too.
    """
    timed = result["timed"]
    count = len(timed[0]["instances"])

    def summarise(time_of) -> tuple:
        """(median pass total, median over instances of the median over passes)"""
        table = [[time_of(rec) for rec in run["instances"]] for run in timed]
        return (statistics.median(sum(row) for row in table),
                statistics.median(statistics.median(row[i] for row in table)
                                  for i in range(count)))

    wall, instance = summarise(
        lambda rec: rec["s"] * NOMINAL_REFERENCE_S / rec["ref_s"])
    wall_raw, instance_raw = summarise(lambda rec: rec["s"])
    setup = [s * NOMINAL_REFERENCE_S / ref for s, ref in result["setup_s"]]
    values = {"wall_s": wall, "instance_s_p50": instance,
              "peak_rss_mb": result["peak_rss_kb"] / 1024,
              "cubes_out": solution_lines, "setup_s": statistics.median(setup)}
    refs = [rec["ref_s"] for run in timed for rec in run["instances"]]
    raw = {"wall_s_raw": (wall_raw, "s"), "instance_s_p50_raw": (instance_raw, "s"),
           "setup_s_raw": (statistics.median(s for s, _ in result["setup_s"]), "s"),
           "reference_ms_p50": (statistics.median(refs) * 1e3, "ms"),
           "reference_ms_min": (min(refs) * 1e3, "ms")}
    notes = {"instance_s_p50": f"normalised; {count} instances, "
                               f"median of {len(timed)} timed passes each",
             "wall_s": f"normalised; median of {len(timed)} timed passes",
             "setup_s": f"normalised; median of {len(setup)} fresh-interpreter "
                        "imports spread over the timed passes"}
    return values, raw, notes


def per_layer(result: dict, spec: dict) -> tuple:
    traced = result["traced"]
    values, notes = {}, {}
    for layer in spec["layers"]:
        values[f"{layer}.calls"] = traced[0]["calls"].get(layer, 0)
        values[f"{layer}.self_s"] = statistics.median(
            run["self_s"].get(layer, 0.0) for run in traced)
    for name, (layer, outcome) in spec["ratios"].items():
        calls = traced[0]["calls"].get(layer, 0)
        values[name] = traced[0][outcome].get(layer, 0) / calls if calls else 0.0
    traced_wall = statistics.median(run["wall_s"] for run in traced)
    values["other.self_s"] = traced_wall - sum(
        values[f"{layer}.self_s"] for layer in spec["layers"])
    values["trace.overhead_s"] = traced_wall - statistics.median(
        run["wall_s"] for run in result["timed"])
    absent = traced[0]["absent"]
    values["trace.absent"] = len(absent)
    if absent:
        notes["trace.absent"] = "names not found, layer reported as absent: " + ", ".join(absent)
    repeat = all(run["calls"] == traced[0]["calls"] for run in traced)
    return values, notes, repeat


def run_workload(name: str, args, spec: dict, bench: dict) -> dict:
    wl = spec["workloads"][name]
    params = wl["smoke" if args.smoke else "params"]
    workdir = os.path.join(WORK, f"{name}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    t0 = time.perf_counter()
    instances = workloads.build(name, params, args.seed, workdir)
    gen_s = time.perf_counter() - t0
    result = run_passes(instances, workdir, args.seconds, bool(args.trace), spec)
    t0 = time.perf_counter()
    failures, solution_lines = verify(instances, workdir, result)
    check_s = time.perf_counter() - t0

    correct = not failures
    if args.trace:
        values, notes, repeat = per_layer(result, spec)
        raw = {}
        if not repeat:
            correct = False
            notes["calls"] = "traced passes disagree on call counts"
        wanted = bench["per_layer"]
    else:
        values, raw, notes = end_to_end(result, solution_lines)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"# {name} seed {args.seed}: {len(instances)} instances, "
          f"{len(result['timed'])} timed and {len(result['traced'])} traced passes; "
          f"generate+reference {gen_s:.1f} s, check {check_s:.1f} s; "
          f"nproc {len(os.sched_getaffinity(0))}, cpu_count {os.cpu_count()}, "
          f"Python {platform.python_version()}")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{name} {key} {value['value']:.6g} {value['unit']}{note}")
    for key, (value, unit) in raw.items():
        print(f"{name} {key} {value:.6g} {unit}  (as measured)")
    print(f"{name} fail_frac {len(failures) / len(instances):.6g} "
          f"({len(failures)} of {len(instances)})")
    for key in sorted(set(notes) - set(metrics)):
        print(f"{name} {key}: {notes[key]}")
    for inst_name, reason in sorted(failures.items()):
        print(f"{name} FAILED {inst_name}: {reason}")
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": correct, "attempted": len(instances),
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "onsat", "cli.py")):
        print(f"run.py: no onsat sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in spec["workloads"] for n in names):
        parser.error(f"unknown workload {args.workload!r}")

    results = {n: run_workload(n, args, spec, bench) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
