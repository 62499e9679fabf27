"""Span tracing of zdkit's public functions, for the traced run only.

Tracer.installed() patches a wrapper over each traced function in every
zdkit namespace that holds it (callers look the name up there, e.g.
zdkit.design.power_limit and zdkit.markov.power_limit), and over traced
methods on their classes; leaving the block restores the originals.  Each
call records a span [name, start, end, parent].  A layer's self time is its
spans' time minus the time covered by their child spans.  Hooks count the
work each call did.  All calls run in one thread with no queues, so there
is no waiting to record.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("cli", "games", "stp", "markov", "design", "network", "montecarlo")


def _kappa(m):
    return getattr(m, "kappa", None) or len(m)


def _power_limit(t, args, res):
    t.counts["markov.power_limit.calls"] += 1
    t.counts["markov.power_limit.squarings"] += int(math.log2(res.steps))
    t.counts["markov.power_limit.converged"] += res.converged


def _is_primitive(t, args, res):
    t.counts["markov.is_primitive.calls"] += 1
    flag, witness = res
    # the check multiplies patterns until one is positive, or up to the
    # Wielandt bound when none is
    t.counts["markov.pattern_products"] += (
        witness - 1 if flag else (_kappa(args[0]) - 1) ** 2 + 1)


def _count(key):
    def hook(t, args, res):
        t.counts[key] += 1
    return hook


def _simulate(t, args, res):
    t.counts["montecarlo.steps"] += res.length


def _compare(t, args, res):
    t.counts["montecarlo.z_checks"] += 1
    t.counts["montecarlo.z_pass"] += res["pass"]


def _network(t, args, res):
    t.counts["network.edges"] += len(args[0].edges)


def _reduce(t, args, res):
    t.maxima["network.reduced_kappa_max"] = max(
        t.maxima.get("network.reduced_kappa_max", 0), res.game.kappa)


def _rational(t, args, res):
    t.counts["design.rationality_checks"] += 1
    t.counts["design.rational"] += res.verdict


def _effective(t, args, res):
    t.counts["design.verifications"] += 1
    t.counts["design.effective"] += res.effective


# (module, function) -> hook; wrapped wherever the function object is bound
FUNCTIONS = {
    ("stp", "khatri_rao"): _count("stp.khatri_rao.calls"),
    ("markov", "build_rule"): None,
    ("markov", "build_pee"): None,
    ("markov", "is_primitive"): _is_primitive,
    ("markov", "rank_defect"): _count("markov.dense_solves"),
    ("markov", "nullspace_stationary"): _count("markov.dense_solves"),
    ("markov", "stationary_distribution"): None,
    ("markov", "power_limit"): _power_limit,
    ("markov", "analyze"): None,
    ("design", "design_row"): None,
    ("design", "feasible_mu_interval"): None,
    ("design", "rationality_check"): _rational,
    ("design", "verify_effectiveness"): _effective,
    ("montecarlo", "simulate"): _simulate,
    ("montecarlo", "compare_empirical_vs_exact"): _compare,
    ("network", "reduce_to_fop"): _reduce,
}

# (module, class, method) -> hook; patched on the class
METHODS = {
    ("games", "GameSpec", "from_json"): None,
    ("games", "GameSpec", "__post_init__"): None,
    ("games", "GameSpec", "indexer"): None,
    ("games", "GameSpec", "to_json"): None,
    ("games", "ProfileIndexer", "__post_init__"): _count("games.indexer_builds"),
    ("games", "ProfileIndexer", "xi"): _count("games.xi.calls"),
    ("games", "ProfileIndexer", "phi"): None,
    ("design", "ZDAssignment", "from_json"): None,
    ("design", "ZDAssignment", "as_rule"): None,
    ("design", "ZDAssignment", "to_json"): None,
    ("montecarlo", "Trajectory", "to_json"): None,
    ("network", "NetworkGame", "load"): None,
    ("network", "NetworkGame", "from_json"): None,
    ("network", "NetworkGame", "__post_init__"): _network,
}

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "markov.power_limit.self_s": ["markov.power_limit"],
    "markov.rank_defect.self_s": ["markov.rank_defect"],
    "markov.nullspace_stationary.self_s": ["markov.nullspace_stationary"],
    "markov.is_primitive.self_s": ["markov.is_primitive"],
    "markov.analyze.self_s": ["markov.analyze"],
    "markov.stationary_distribution.self_s": ["markov.stationary_distribution"],
    "markov.build_pee.self_s": ["markov.build_pee"],
    "stp.khatri_rao.self_s": ["stp.khatri_rao"],
    "montecarlo.simulate.self_s": ["montecarlo.simulate"],
    "montecarlo.compare.self_s": ["montecarlo.compare_empirical_vs_exact"],
    "network.load.self_s": ["network.NetworkGame.load",
                            "network.NetworkGame.from_json",
                            "network.NetworkGame.__post_init__"],
    "network.reduce_to_fop.self_s": ["network.reduce_to_fop"],
}
MODULE_SELF_TIMES = ("design", "games", "cli")
PER_OP_COUNTS = {  # metric -> which way is better
    "markov.dense_solves": "lower",
    "markov.power_limit.squarings": "lower",
    "markov.is_primitive.calls": "lower",
    "markov.pattern_products": "lower",
    "markov.errors": "lower",
    "stp.khatri_rao.calls": "lower",
    "montecarlo.steps": "higher",
    "network.edges": "higher",
    "games.xi.calls": "lower",
    "games.indexer_builds": "lower",
}
RATIOS = {  # metric -> (count of successes, count of attempts)
    "markov.power_limit.converged_ratio": ("markov.power_limit.converged",
                                           "markov.power_limit.calls"),
    "montecarlo.z_pass_ratio": ("montecarlo.z_pass", "montecarlo.z_checks"),
    "design.rational_ratio": ("design.rational", "design.rationality_checks"),
    "design.effective_ratio": ("design.effective", "design.verifications"),
}

# every per-layer metric the traced run reports: name -> (unit, better)
PER_LAYER = {
    **{m: ("s/op", "lower") for m in SELF_TIMES},
    **{f"{m}.self_s": ("s/op", "lower") for m in MODULE_SELF_TIMES},
    **{m: ("count/op", better) for m, better in PER_OP_COUNTS.items()},
    **{m: ("ratio", "higher") for m in RATIOS},
    "montecarlo.ns_per_step": ("ns", "lower"),
    "network.reduced_kappa_max": ("count", "higher"),
    "cli.out_bytes": ("bytes/op", "lower"),
    **{f"{m}.share": ("ratio", "lower") for m in MODULES},
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = {}
        self._stack = []
        self._last_error = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, in the innermost markov span it leaves
                if name.startswith("markov.") and exc is not self._last_error:
                    self.counts["markov.errors"] += 1
                self._last_error = exc
                raise
            finally:
                self._close()
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        import importlib

        mods = {m: importlib.import_module(f"zdkit.{m}") for m in MODULES}
        undo = []
        try:
            for (mod, fname), hook in FUNCTIONS.items():
                fn = getattr(mods[mod], fname)
                traced = self.wrap(f"{mod}.{fname}", fn, hook)
                for ns in mods.values():
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            undo.append((ns, attr, value))
                            setattr(ns, attr, traced)
            for (mod, cname, meth), hook in METHODS.items():
                cls = getattr(mods[mod], cname)
                desc = cls.__dict__[meth]
                name = f"{mod}.{cname}.{meth}"
                if isinstance(desc, classmethod):
                    new = classmethod(self.wrap(name, desc.__func__, hook))
                elif isinstance(desc, property):
                    new = property(self.wrap(name, desc.fget, hook))
                else:
                    new = self.wrap(name, desc, hook)
                undo.append((cls, meth, desc))
                setattr(cls, meth, new)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return dict(out)

    def module_self_times(self) -> dict:
        out = dict.fromkeys(MODULES, 0.0)
        for name, t in self.self_times().items():
            out[name.split(".")[0]] += t
        return out

    def metrics(self, ops: int, out_bytes: int, overhead: float) -> dict:
        """Every PER_LAYER metric, per op where the unit says so."""
        selfs = self.self_times()
        modules = self.module_self_times()
        wall = sum(modules.values())
        c = self.counts
        m = {k: sum(selfs.get(n, 0.0) for n in names) / ops
             for k, names in SELF_TIMES.items()}
        m.update({f"{k}.self_s": modules[k] / ops for k in MODULE_SELF_TIMES})
        m.update({k: c[k] / ops for k in PER_OP_COUNTS})
        m.update({k: c[a] / c[b] if c[b] else 0.0
                  for k, (a, b) in RATIOS.items()})
        steps = c["montecarlo.steps"]
        m["montecarlo.ns_per_step"] = (
            selfs.get("montecarlo.simulate", 0.0) / steps * 1e9 if steps else 0.0)
        m["network.reduced_kappa_max"] = self.maxima.get(
            "network.reduced_kappa_max", 0)
        m["cli.out_bytes"] = out_bytes / ops
        m.update({f"{k}.share": modules[k] / wall for k in MODULES})
        m["trace.overhead_frac"] = overhead
        assert m.keys() == PER_LAYER.keys()
        return m
