"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` replaces each traced function in every ``diffchain``
module that binds it (``closure`` imports the automata functions by name,
``oracle`` imports ``transition_monoid``, ``from_covers`` is a classmethod),
so nested calls open nested spans.  A span's self time is its duration
minus the time of the spans it encloses.  Spans are folded into per-function
totals as they close; nothing is written until the pass ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import canon

perf_counter = time.perf_counter


def _as_tuple(d) -> tuple:
    return d.alphabet, d.delta, d.start, d.accepting


class Tracer:
    def __init__(self):
        self.totals: dict[str, defaultdict] = {}
        self._open: list[float] = []  # per open span: time of enclosed spans
        self._closure_keys: set = set()

    # ----- spans ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        stats = self.totals.setdefault(name, defaultdict(float))
        open_spans = self._open

        def traced(*args, **kwargs):
            if before is not None:
                # Bookkeeping counts as enclosed time, so it is not charged
                # to the caller's self time.
                t = perf_counter()
                before(stats, args, kwargs)
                if open_spans:
                    open_spans[-1] += perf_counter() - t
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = open_spans.pop()
                stats["calls"] += 1
                stats["total_s"] += took
                stats["self_s"] += took - inner
                if open_spans:
                    open_spans[-1] += took
            if after is not None:
                after(stats, args, result)
            return result

        return traced

    def begin_case(self) -> None:
        """Closure repeats are counted within one CLI invocation."""
        self._closure_keys.clear()

    # ----- counters ------------------------------------------------------

    def _closure_before(self, stats, args, kwargs):
        d = args[0] if args else kwargs["d"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        key = (canon.key(_as_tuple(d)), k)
        if key in self._closure_keys:
            stats["repeat_calls"] += 1
        self._closure_keys.add(key)

    @staticmethod
    def _closure_after(stats, args, result):
        stats["states_out"] += result.n_states

    @staticmethod
    def _minimize_after(stats, args, result):
        stats["states_in"] += args[0].n_states
        stats["states_out"] += result.n_states

    @staticmethod
    def _raw_after(stats, args, result):
        stats["raw_states"] += result.n_states

    @staticmethod
    def _product_after(stats, args, result):
        stats["states"] += result.n_states

    # ----- installation --------------------------------------------------

    def targets(self):
        """(module, attribute, span name, before, after) for each traced
        function."""
        return [
            ("automata", "forward_lp_image", "automata.forward_lp_image", None, self._raw_after),
            ("automata", "minimize", "automata.minimize", None, self._minimize_after),
            ("automata", "_product", "automata.product", None, self._product_after),
            ("automata", "tensor", "automata.tensor", None, None),
            ("automata", "forall_adjoint", "automata.forall_adjoint", None, None),
            ("automata", "transition_monoid", "automata.transition_monoid", None, None),
            ("closure", "pi1_closure", "closure.pi1_closure",
             self._closure_before, self._closure_after),
            ("closure", "chain_trace", "closure.chain_trace", None, None),
            ("chains", "canonical_chain", "chains.canonical_chain", None, None),
            ("chains", "degrees", "chains.degrees", None, None),
            ("chains", "evaluate", "chains.evaluate", None, None),
            ("oracle", "brute_pi1_closure_member", "oracle.brute_pi1_closure_member", None, None),
            ("oracle", "brute_degree", "oracle.brute_degree", None, None),
            ("cli", "main", "cli.main", None, None),
        ]

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "diffchain" or n.startswith("diffchain.")]
        for mod_name, attr, name, before, after in self.targets():
            module = sys.modules.get(f"diffchain.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # gone from the library: its metrics read 0
            traced = self.wrap(name, fn, before, after)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, traced)
        poset_cls = getattr(sys.modules.get("diffchain.poset"), "FinPoset", None)
        raw = vars(poset_cls).get("from_covers") if poset_cls else None
        if isinstance(raw, classmethod):
            traced = self.wrap("poset.from_covers", raw.__func__)
            poset_cls.from_covers = classmethod(traced)

    def get(self, name: str, quantity: str) -> float:
        return self.totals.get(name, {}).get(quantity, 0.0)
