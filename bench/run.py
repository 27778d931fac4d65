"""Benchmark of the diffchain command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold passes over the workload's corpus, one fresh interpreter per pass
(``one_pass.py``), one after another, until S seconds have been spent, then
prints the metrics named in ``BENCHMARK.json`` by name with their units and,
as the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones, from a pass with every traced function
wrapped.  Times are medians over the passes of the run.

``--workload all`` runs every workload in turn.  ``--write-pins`` runs one
untraced pass of every workload and records the canonical outputs of the
decided cases in ``pins.json``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from check import DECIDED
from corpus import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.json"
# A run must end within 180 s; no pass may start that could end past this.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: a pass did not end within the run's time limit")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload}: pass exited with {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Passes, one after another, until ``seconds`` have been spent."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, trace, deadline))
    return passes


def apply_pins(workload: str, passes: list[dict]) -> None:
    """A decided case whose canonical output differs from its pin is a
    mismatch."""
    pins = json.loads(PINS.read_text()).get(workload, {}) if PINS.exists() else {}
    for p in passes:
        for case in p["cases"]:
            want = pins.get(case["id"])
            if case["outcome"] in DECIDED and want and case["pin"] != want:
                case["outcome"] = "mismatch"
                case["detail"] = "canonical output differs from pins.json"


def summarize(workload: str, passes: list[dict], trace: int, spec: dict) -> dict:
    cases = [c for p in passes for c in p["cases"]]
    attempted = len(cases)
    decided = sum(c["outcome"] in DECIDED for c in cases)
    if trace:
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median(p["layers"][m["name"]] for p in passes)
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "decided_frac": decided / attempted,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
        }
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError("reported metrics differ from BENCHMARK.json")

    outcomes = Counter(c["outcome"] for c in cases)
    print(f"{workload}: {len(passes)} passes of {len(passes[0]['cases'])} cases; "
          f"outcomes {dict(outcomes)}")
    undecided = Counter((c["id"], c["outcome"], c["detail"][:200])
                        for c in cases if c["outcome"] not in DECIDED)
    for (case_id, outcome, detail), times in undecided.items():
        print(f"  undecided {case_id} in {times} passes: {outcome} {detail}")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    raw = statistics.median(p["raw_wall_s"] for p in passes)
    print(f"  (wall time as measured, not scaled to the reference speed: {raw:.6g} s)")
    return {
        "correct": not any(c["outcome"] == "mismatch" for c in cases),
        "attempted": attempted,
        "failed": attempted - decided,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def write_pins() -> None:
    pins = {}
    for workload in WORKLOADS:
        p = run_pass(workload, 0, 0, time.perf_counter() + RUN_LIMIT_S)
        pins[workload] = {c["id"]: c["pin"] for c in p["cases"]
                          if c["pin"] and c["outcome"] in DECIDED}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not args.write_pins and args.workload is None:
        parser.error("give --workload or --write-pins")

    if not (ROOT / "src" / "diffchain").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Byte-compile once, outside every timed region, so that no pass pays
    # for compiling and the first run in a fresh checkout is not an outlier.
    for tree in (ROOT / "src", BENCH):
        compileall.compile_dir(tree, quiet=1)
    try:
        if args.write_pins:
            write_pins()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            passes = run_workload(workload, args.seed, args.seconds, args.trace)
            apply_pins(workload, passes)
            result = summarize(workload, passes, args.trace, spec)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
