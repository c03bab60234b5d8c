#!/usr/bin/env python3
"""Benchmark quatgenus end to end and, in a separate traced run, layer by layer.

Run from the root of a checkout; the program is imported from its src/:

    python3 perfbench/run.py --workload tower-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload queries --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --record

Workloads (see rationale.json for why each exists):
  tower-deep   one alternating-truncation script, 19 levels deep
  tower-batch  39 short scripts over families of 1-3 division algebras
  queries      3,298 one-shot form and algebra queries, as the CLI makes them

A run times whole passes over the workload's items for --seconds and
reports medians over the passes. Each pass runs in a fresh interpreter
(worker.py), in its own seeded order (traced passes all take the first
order, so their counts compare), each item after the previous one finishes.
Times are reference seconds, scaled by the machine's speed as calibration.py
measures it during the pass. --trace 0 prints every end-to-end metric;
--trace 1 makes one untraced pass and then traced passes, and prints the
per-layer metrics. Every item's output digest is checked against
checksums.json; a differing digest, a failed replay or a failed answer check
prints "correct": false and exits 1. --record rewrites checksums.json from
the current program, which is a deliberate change to the recorded answers.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKSUMS = HERE / "checksums.json"
WORKLOADS = ("tower-deep", "tower-batch", "queries")
SETUP_RUNS = 11
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "report_s": "s",
    "verify_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics in the result line. A layer's self time is listed only
# where every workload enters the layer: tower.self_s, certificates.self_s,
# runner.self_s and runner.render_s read exactly 0 on queries, so they are
# printed with the other layer lines but left out of the result line.
PER_LAYER = {
    "arith.factor.calls": "count",
    "arith.squarefree_part.calls": "count",
    "arith.self_s": "s",
    "symbols.hilbert_symbol.calls": "count",
    "symbols.self_s": "s",
    "forms.invariants.calls": "count",
    "forms.invariants.useful_ratio": "ratio",
    "forms.is_isotropic.calls": "count",
    "forms.witt_decompose.calls": "count",
    "forms.self_s": "s",
    "search.calls": "count",
    "search.found_ratio": "ratio",
    "search.self_s": "s",
    "quaternion.connecting_algebra.calls": "count",
    "quaternion.connecting_algebra.useful_ratio": "ratio",
    "quaternion.is_division.calls": "count",
    "quaternion.is_linked.calls": "count",
    "quaternion.witness.calls": "count",
    "quaternion.self_s": "s",
    "tower.derive_status.calls": "count",
    "tower.levels_walked": "count",
    "tower.trivialized_below.calls": "count",
    "certificates.replay.calls": "count",
    "certificates.replay.nodes": "count",
    "certificates.replay.useful_ratio": "ratio",
    "runner.report_bytes": "bytes",
}
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in PER_LAYER))


class Abort(Exception):
    """The run cannot produce a result; no result line is printed."""


def measure_setup() -> tuple[float, float]:
    """Median (reference, measured) time for a fresh interpreter to `import quatgenus`.

    Each interpreter times the import, then the calibration loop, which
    converts the import time to reference seconds. The first is a warm-up.
    """
    code = (
        "import sys, time; t = time.perf_counter(); import quatgenus; "
        "took = time.perf_counter() - t; sys.path.append('perfbench'); import calibration; "
        "print(took, sum(calibration.loop_seconds() for _ in range(10)) / 10)"
    )
    measured, reference = [], []
    for _ in range(SETUP_RUNS + 1):
        done = python("-c", code)
        if done.returncode != 0:
            raise Abort(f"import quatgenus failed:\n{done.stderr}")
        took, loop = (float(x) for x in done.stdout.split())
        measured.append(took)
        reference.append(took * calibration.REFERENCE_S / loop)
    return statistics.median(reference[1:]), statistics.median(measured[1:])


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in the checkout with the program's src/ on its path."""
    try:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise Abort(f"no result within {WORKER_TIMEOUT_S} s from {args[0]}") from error


def run_worker(spec: dict) -> dict:
    done = python(str(HERE / "worker.py"), json.dumps(spec))
    if done.returncode != 0:
        raise Abort(f"worker failed on {spec}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten items beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check(passes: list[dict], recorded: list[str]) -> list[str]:
    """Everything that makes the run incorrect, as readable lines."""
    errors = []
    for number, result in enumerate(passes, 1):
        for index, digest in result["items"]:
            if index >= len(recorded) or recorded[index] != digest:
                errors.append(f"pass {number}: item {index} output digest {digest} differs from checksums.json")
        for index, problem in result["problems"]:
            errors.append(f"pass {number}: item {index}: {problem}")
    if len({result["digest"] for result in passes}) > 1:
        errors.append("passes over the same items produced different outputs")
    return errors


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def describe(first: dict, args: argparse.Namespace, passes: int, recorded: str) -> None:
    kinds: dict[str, int] = {}
    for kind in first["kinds"]:
        kinds[kind] = kinds.get(kind, 0) + 1
    mix = ", ".join(f"{kind} {count}" for kind, count in kinds.items())
    print(f"workload: {args.workload}  seed: {args.seed}  size: {args.size}  seconds: {args.seconds}  passes: {passes}")
    print(f"inputs: {first['attempted']} items per pass ({mix}), drawn from a corpus built from seed {inputs.CORPUS_SEED}")
    print(f"backend: {first['backend']}  python: {first['python']}  nproc: {nproc()}")
    match = "matches checksums.json" if first["digest"] == recorded else "a subset or differs; items checked one by one"
    print(f"checksum: sha256 {first['digest']} ({match})")
    if args.workload != "queries":
        levels = first["levels"]
        print(f"levels: {sum(levels) / len(levels):.2f} on average over {len(levels)} scripts")


def item_latencies(passes: list[dict]) -> list[float]:
    """Each item's latency: its median over the passes, which take the items in different orders."""
    by_index = [dict(zip((index for index, _digest in r["items"]), r["latencies_s"])) for r in passes]
    return [statistics.median(latencies[index] for latencies in by_index) for index in sorted(by_index[0])]


def end_to_end(args: argparse.Namespace, passes: list[dict]) -> dict:
    setup, setup_measured = measure_setup()
    latencies = item_latencies(passes)
    percentile_ms, percentile = tail(latencies)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(r["report_s"] + r["verify_s"] for r in passes),
        "report_s": statistics.median(r["report_s"] for r in passes),
        "verify_s": statistics.median(r["verify_s"] for r in passes),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": percentile_ms * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    item = "query answered" if args.workload == "queries" else "script, reported and verified"
    measured = ", ".join(f"{r['measured_wall_s']:.3f} s at speed {r['scale']:.3f}" for r in passes)
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters; measured {setup_measured:.4f} s",
        "wall_s": f"median pass; measured {measured}",
        "report_s": "producing the outputs",
        "verify_s": "re-verifying them from their JSON alone",
        "item_p50_ms": f"per {item}, each item's median over the passes",
        "item_tail_ms": f"p{percentile:.1f}, N={len(latencies)}, per {item}",
        "peak_rss_mb": "worker process",
    }
    print("times are reference seconds: measured seconds scaled by the machine's speed (see calibration.py)")
    for name, unit in END_TO_END.items():
        print(f"{name}: {values[name]:.6g} {unit}  ({notes[name]})")
    return values


def per_layer(untraced: dict, traced: list[dict]) -> dict:
    metrics = [result["layers"] for result in traced]
    counts = {k: v for k, v in metrics[0].items() if not k.endswith("_s")}
    for other in metrics[1:]:
        if {k: v for k, v in other.items() if not k.endswith("_s")} != counts:
            raise Abort("traced passes over the same items counted different work")
    values = dict(counts)
    for key in metrics[0]:
        if key.endswith("_s"):
            values[key] = statistics.median(m[key] * r["scale"] for m, r in zip(metrics, traced))
    traced_wall = statistics.median(r["report_s"] + r["verify_s"] for r in traced)
    plain = untraced["report_s"] + untraced["verify_s"]
    print("times are reference seconds: measured seconds scaled by the machine's speed (see calibration.py)")
    print(f"trace overhead: traced wall_s {traced_wall:.3f} s against untraced {plain:.3f} s ({traced_wall / plain - 1:+.0%})")
    # Self times use each traced pass's mean speed; so does the wall_s they are a share of.
    wall = statistics.median(r["measured_wall_s"] * r["scale"] for r in traced)
    for layer in LAYERS:
        self_s = values[f"{layer}.self_s"]
        print(f"{layer}.self_s: {self_s:.6g} s  ({self_s / wall:.1%} of the traced wall_s)")
    outside = wall - values["traced_s"]
    print(f"outside every layer (benchmark, json, interpreter): {outside:.4f} s, {outside / wall:.1%}")
    for key, value in values.items():
        if key != "traced_s" and not key.endswith(".self_s"):
            print(f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}")
    return values


def record() -> int:
    """Rewrite checksums.json from the current program's outputs on every corpus item."""
    recorded = {}
    for workload in WORKLOADS:
        result = run_worker({"workload": workload, "seed": 0, "size": "corpus"})
        if result["problems"]:
            raise Abort(f"{workload}: {result['problems'][:5]}")
        items = [digest for _index, digest in result["items"]]
        full = sorted(index for index, _item in inputs.draw(workload, 0, "full"))
        digest = hashlib.sha256("".join(items[i] for i in full).encode()).hexdigest()
        recorded[workload] = {"digest": digest, "items": items}
        print(f"{workload}: {len(items)} items, sha256 {result['digest']}, {result['measured_wall_s']:.1f} s")
    CHECKSUMS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test size")
    parser.add_argument("--perturb", action="store_true", help="alter one output to prove the checksum gate trips")
    parser.add_argument("--record", action="store_true", help="rewrite checksums.json")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt: subprocess.run then kills the
    # running worker and waits for it before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "quatgenus" / "__init__.py").is_file():
        print(f"error: no quatgenus package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        recorded = json.loads(CHECKSUMS.read_text())[args.workload]
        spec = {"workload": args.workload, "seed": args.seed, "size": args.size, "perturb": args.perturb}
        deadline = time.perf_counter() + args.seconds
        untraced = run_worker(spec)
        passes = [untraced]
        if args.trace:
            passes.append(run_worker({**spec, "trace": True}))
            while time.perf_counter() < deadline:
                passes.append(run_worker({**spec, "trace": True}))
        else:
            while time.perf_counter() < deadline:
                passes.append(run_worker({**spec, "order": len(passes)}))
        describe(untraced, args, len(passes), recorded["digest"])
        errors = check(passes, recorded["items"])
        if args.trace:
            values = per_layer(untraced, passes[1:])
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            values = end_to_end(args, passes)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    except Abort as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    refusals: dict[str, int] = {}
    for result in passes:
        for kind, count in result["refusals"].items():
            refusals[kind] = refusals.get(kind, 0) + count
    print(f"failed_frac: {failed / attempted:.6g}  ({failed} of {attempted} operations; refusals {refusals or 'none'})")
    for error in errors[:20]:
        print(f"INCORRECT: {error}")
    print(f"checksum gate: {'FAILED' if errors else 'passed'}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
