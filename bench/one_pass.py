"""One cold pass over a workload's corpus, in a fresh interpreter.

    python3 bench/one_pass.py --workload NAME --seed N --trace 0|1

Imports the library from ``src/`` of the checkout, writes the seeded inputs,
checks that no library cache is warm, then calls ``diffchain.cli.main`` on
every case in order with stdout and stderr captured, each case under a
wall-clock guard.  Outputs are checked after the timed loop.  Prints one
JSON object; ``run.py`` starts this script once per pass.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Case times are scaled to the speed at which the reference loop takes
# PROBE_NOMINAL_S, its time on a 2-vCPU Xeon VM with no other load; see
# README.md for why.
PROBE_ITERATIONS = 40_000
PROBE_REPEAT = 5
PROBE_NOMINAL_S = 0.008


class GuardTimeout(BaseException):
    """Raised by the per-case alarm; a BaseException so no handler in the
    library swallows it."""


def _alarm(signum, frame):
    raise GuardTimeout


def import_library():
    sys.path.insert(0, str(SRC))
    mods = {}
    for name in ("cli", "oracle", "automata", "poset", "chains", "closure"):
        mods[name] = importlib.import_module(f"diffchain.{name}")
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"diffchain was imported from {where}, not from {SRC}")
    return mods


def warm_caches(package: str = "diffchain") -> list[str]:
    """Library caches that already hold something: the pass is not cold."""
    warm = []
    for name, mod in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info):
                stats = info()
                if stats.hits or stats.misses or stats.currsize:
                    warm.append(f"{name}.{attr}")
            elif attr.endswith("_CACHE") and value:
                warm.append(f"{name}.{attr}")
    return warm


def pinned_cache(oracle):
    fn = getattr(oracle, "_accepts_some_pinned", None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def reference_loop() -> float:
    """The machine's speed right now: the median time of a few runs of a
    fixed pure-Python loop, times their count.  Runs between cases, never
    inside a timed region."""
    times = []
    for _ in range(PROBE_REPEAT):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i
        times.append(time.perf_counter() - start)
    times.sort()
    return times[PROBE_REPEAT // 2] * PROBE_REPEAT


def run_cases(cases, cli, tracer):
    """The timed loop.  Returns per-case (code, stdout, stderr, failure,
    seconds, scale) and the reference loop's time before the first case;
    ``scale`` is the reference loop's nominal time over its mean time just
    before and just after the case."""
    results = []
    signal.signal(signal.SIGALRM, _alarm)
    before = first = reference_loop()
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        code, failure = None, None
        if tracer is not None:
            tracer.begin_case()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, corpus.GUARD_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(case.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except GuardTimeout:
            failure = "timeout"
        except Exception as exc:  # the CLI lets it escape; record and go on
            failure = f"exception:{type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        after = reference_loop()
        results.append((code, out.getvalue(), err.getvalue(), failure, seconds,
                        PROBE_NOMINAL_S * 2 / (before + after)))
        before = after
    return results, first


def layer_metrics(tracer, oracle, scale: float) -> dict:
    """Per-layer totals; times are scaled to the reference speed like the
    end-to-end wall time, by the pass's mean scale."""

    def g(name, quantity):
        value = tracer.get(name, quantity)
        return value * scale if quantity.endswith("_s") else value

    hits, misses = pinned_cache(oracle)
    m_in = g("automata.minimize", "states_in")
    c_calls = g("closure.pi1_closure", "calls")
    return {
        "automata.forward_lp_image.self_s": g("automata.forward_lp_image", "self_s"),
        "automata.forward_lp_image.calls": g("automata.forward_lp_image", "calls"),
        "automata.forward_lp_image.raw_states": g("automata.forward_lp_image", "raw_states"),
        "automata.minimize.self_s": g("automata.minimize", "self_s"),
        "automata.minimize.calls": g("automata.minimize", "calls"),
        "automata.minimize.states_in": m_in,
        "automata.minimize.states_out": g("automata.minimize", "states_out"),
        "automata.minimize.kept_frac":
            g("automata.minimize", "states_out") / m_in if m_in else 0.0,
        "automata.product.self_s": g("automata.product", "self_s"),
        "automata.product.states": g("automata.product", "states"),
        "automata.tensor.total_s": g("automata.tensor", "total_s"),
        "automata.forall_adjoint.total_s": g("automata.forall_adjoint", "total_s"),
        "automata.transition_monoid.self_s": g("automata.transition_monoid", "self_s"),
        "closure.pi1_closure.total_s": g("closure.pi1_closure", "total_s"),
        "closure.pi1_closure.calls": c_calls,
        "closure.pi1_closure.states_out": g("closure.pi1_closure", "states_out"),
        "closure.pi1_closure.repeat_calls": g("closure.pi1_closure", "repeat_calls"),
        "closure.pi1_closure.repeat_frac":
            g("closure.pi1_closure", "repeat_calls") / c_calls if c_calls else 0.0,
        "closure.chain_trace.total_s": g("closure.chain_trace", "total_s"),
        "closure.chain_trace.calls": g("closure.chain_trace", "calls"),
        "poset.from_covers.total_s": g("poset.from_covers", "total_s"),
        "chains.canonical_chain.total_s": g("chains.canonical_chain", "total_s"),
        "chains.canonical_chain.calls": g("chains.canonical_chain", "calls"),
        "chains.degrees.total_s": g("chains.degrees", "total_s"),
        "chains.evaluate.total_s": g("chains.evaluate", "total_s"),
        "oracle.brute_pi1_closure_member.total_s":
            g("oracle.brute_pi1_closure_member", "total_s"),
        "oracle.brute_pi1_closure_member.calls":
            g("oracle.brute_pi1_closure_member", "calls"),
        "oracle.brute_degree.total_s": g("oracle.brute_degree", "total_s"),
        "oracle.pinned_hits": hits,
        "oracle.pinned_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "cli.main.self_s": g("cli.main", "self_s"),
        "cases.decided": 0,  # filled in after the checks
        "trace.wall_s": g("cli.main", "total_s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.environ["DIFFCHAIN_STATE_CAP"] = str(corpus.STATE_CAP)
    mods = import_library()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        cases = corpus.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - SETUP_START
        warm = warm_caches()
        if warm:
            raise SystemExit(f"pass does not start cold: {', '.join(warm)} already filled")
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        results, first_probe = run_cases(cases, mods["cli"], tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw_wall = sum(r[4] for r in results)
        wall = sum(r[4] * r[5] for r in results)
        layers = None
        if tracer is not None:
            # Read the cache before the checks below use the oracle too.
            layers = layer_metrics(tracer, mods["oracle"], wall / raw_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    dfa_cls = mods["automata"].Dfa
    poset_cls = mods["poset"].FinPoset
    report = []
    for case, (code, out, err, failure, seconds, scale) in zip(cases, results):
        outcome, pin, detail = check.judge(
            case, code, out, err, failure, mods["oracle"], dfa_cls, poset_cls)
        report.append({"id": case.id, "outcome": outcome, "seconds": seconds * scale,
                       "pin": pin if case.pinned else None, "detail": detail})
    decided = sum(r["outcome"] in check.DECIDED for r in report)
    if layers is not None:
        layers["cases.decided"] = decided
    print(json.dumps({
        "wall_s": wall, "raw_wall_s": raw_wall,
        "setup_s": setup_s * PROBE_NOMINAL_S / first_probe, "raw_setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb, "cases": report, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
