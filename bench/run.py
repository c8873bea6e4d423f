"""Benchmark of the contrastner command line, one workload per run.

    python3 bench/run.py --workload ner-train --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one after another

Run from the root of a source checkout; the library is imported from its
`src/`. A run writes its seeded inputs under `.bench_work/<workload>/` (the
set-up, timed, and repeated between rounds), then calls `contrastner.cli.run`
in-process in a closed loop, one round after another, for `--seconds`, and
checks the last round's outputs. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it wraps the library's layer functions and reports
per-layer self times and counts instead. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import ROOT as ROOT_SPAN, Clock, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SETUPS = 3
# Set-up is repeated between rounds while its total stays under this share of
# the phase, so its samples span the same window as the rounds: the machine's
# slow and fast spells then weigh on setup_s as they do on throughput.
SETUP_SHARE = 0.2
SETUPS_PER_GAP = 5   # at most this many set-ups between two rounds
SEGMENTS = 8         # a round is cut into this many segments of equal work
DEFAULT_SECONDS = 25


def import_library():
    """Import contrastner from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import contrastner
    except ImportError as e:
        sys.exit(f"error: cannot import contrastner from {SRC}: {e}")
    if Path(contrastner.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: contrastner was imported from {contrastner.__file__}, not {SRC}")


def blas_info() -> dict:
    import ctypes

    import numpy as np
    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    info["blas_threads"] = int(getattr(handle, sym)())
                    return info
    except OSError:
        pass
    return info


def machine_record() -> dict:
    import numpy as np
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, **blas_info(), "src_lines": lines}


def fingerprint(workload, stdouts: list) -> str:
    h = hashlib.sha256("\0".join(stdouts).encode())
    for name in workload.outputs:
        h.update(Path(workload.path(name)).read_bytes())
    return h.hexdigest()


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def cut_round(t0: float, ticks: list, t1: float) -> tuple:
    """(tick count, time stamps at the segment cuts) of one round.

    The round, from t0 to t1, is cut at evenly spaced ones of its clock
    ticks into SEGMENTS segments, or into fewer when it ticked fewer times.
    """
    stamps = [t0, *ticks, t1]
    last = len(stamps) - 1
    segments = min(last, SEGMENTS)
    return len(ticks), [stamps[round(j * last / segments)] for j in range(segments + 1)]


def typical_round(rounds: list) -> tuple:
    """(round time, segment count), robust to the machine's speed spells.

    rounds[r] is `cut_round` of round r. When every round made the same
    number of ticks, its segments match from round to round, and the round
    time is the sum of each segment's median over the rounds. Otherwise it
    is the median round time. A fast or slow spell of a shared machine then
    moves only the segments it covers in a minority of rounds.
    """
    cuts = [c for _, c in rounds]
    if len({n for n, _ in rounds}) != 1 or len(cuts[0]) < 3:
        return statistics.median(c[-1] - c[0] for c in cuts), 1
    return (sum(statistics.median(c[j + 1] - c[j] for c in cuts)
                for j in range(len(cuts[0]) - 1)), len(cuts[0]) - 1)


def measure(workload, seconds: float, setup_times: list, tracer=None) -> dict:
    """Closed loop of whole rounds until they have taken `seconds` in all.

    Untraced, set-up runs again between rounds (see SETUP_SHARE) and its
    times are appended to `setup_times`; round times exclude it. `failed`
    here counts non-zero exit codes only.
    """
    from workloads import run_cli
    argvs = workload.round()
    call = run_cli if tracer is None else tracer.timed(ROOT_SPAN, run_cli)
    clock = Clock(*workload.clock)
    times, cuts, prints = [], [], set()
    attempted = failed = 0
    clock.install()
    try:
        while True:
            clock.ticks.clear()
            t0 = time.perf_counter()
            codes, stdouts = call(argvs)
            t1 = time.perf_counter()
            times.append(t1 - t0)
            cuts.append(cut_round(t0, clock.ticks, t1))
            attempted += len(codes)
            failed += sum(code != 0 for code in codes)
            if not failed:
                prints.add(fingerprint(workload, stdouts))
            if sum(times) >= seconds:
                break
            for _ in range(SETUPS_PER_GAP if tracer is None else 0):
                if sum(setup_times) > SETUP_SHARE * sum(times):
                    break
                setup_times.append(timed_setup(workload))
    finally:
        clock.remove()
    round_s, segments = typical_round(cuts)
    return {"times": times, "round_s": round_s, "segments": segments,
            "attempted": attempted, "failed": failed,
            "stdouts": stdouts, "deterministic": len(prints) <= 1,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work, seed)

    setup_times = [timed_setup(workload)]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        m = measure(workload, seconds, setup_times, tracer)
    finally:
        if tracer:
            tracer.remove()
    while len(setup_times) < MIN_SETUPS:
        setup_times.append(timed_setup(workload))

    rounds = len(m["times"])
    throughput = workload.items / m["round_s"]
    problems, faults = [], []
    if not m["failed"]:
        try:
            problems = workload.check(m["stdouts"])
            faults = workload.faults(m["stdouts"])
        except Exception:  # unreadable output counts as incorrect, not a crash
            problems = ["check raised: " + traceback.format_exc()]
    if not m["deterministic"]:
        problems.append("rounds produced different outputs")
    # Every round wrote the same outputs, so a fault seen in the last round
    # fails the same invocation in every round.
    failed = m["failed"] + rounds * len(faults)
    correct = not problems and not m["failed"]

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": rounds, "items_per_round": workload.items, "item": workload.item,
              "attempted": m["attempted"], "failed": failed,
              "round_s": m["times"], "typical_round_s": m["round_s"],
              "segments": m["segments"], "clock": ".".join(workload.clock),
              "setup_s": setup_times, "round": workload.round(),
              **machine_record(), "problems": problems, "faults": faults}
    if tracer:
        values = tracer.metrics(rounds)
        values["traced_throughput"] = throughput
        record["absent"] = tracer.absent
        record["unattributed_s"] = tracer.self_times().get(ROOT_SPAN, 0.0)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        with open(WORK / f"{name}.trace.json", "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    else:
        metrics = {
            "items_per_s": {"value": throughput, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        }
    with open(WORK / f"{name}.record.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"# {name}: {rounds} rounds of {workload.items} {workload.item}, seed {seed}")
    for problem in problems:
        print(f"# check failed: {problem}")
    for fault in faults:
        print(f"# failed in every round (known fault): {fault}")
    for key in record.get("absent", ()):
        print(f"# absent: {key} (reported as 0)")
    for key, metric in metrics.items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": m["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer_unit(key: str) -> str:
    if key == "traced_throughput":
        return "items/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_calls"):
        return "calls/op"
    return "ratio"


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]
                                 if not line.startswith("record ")))
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        if proc.returncode or results[name] is None:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    import_library()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.workload is None:
        return run_all(ns.seed, ns.seconds, ns.trace)
    return run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    sys.exit(main())
