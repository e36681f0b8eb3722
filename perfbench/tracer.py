"""Span tracer that wraps odolab's layer functions from outside the library.

`Tracer.install()` replaces each listed function or method with a wrapper
that records how long the call took and which span called it, and puts the
originals back when the block ends.  Module-level functions are replaced in
every namespace that imported them (all loaded `odolab.*` modules plus the
extra modules passed in), so a name a module imported directly is traced
too.  Methods and constructors are replaced once on their class.

Every wrapped call records a count and a self time (its duration minus the
duration of the wrapped calls it made).  Calls of the hot leaf functions
(`LEAVES`) are aggregated per parent span; every other call is kept as a
span record `(name, parent, start, end)` in memory until `write()`.
An exception leaving a wrapped call counts once, as a failure of the layer
of the innermost wrapped call it left.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

from odolab import castles, classify, construction, formats, lattice, odometer, sampling, speedup

# (traced name, owner, attribute).  The owner is a class (the attribute is a
# method, static method or constructor) or a module (a module-level
# function, replaced in every namespace holding it).
TARGETS = (
    ("lattice.reduce", lattice.CosetSystem, "reduce"),
    ("lattice.hnf", lattice.IntegerLattice, "from_columns"),
    ("lattice.coset_system", lattice.CosetSystem, "__init__"),
    ("lattice.dual", lattice.RationalLattice, "dual"),
    ("lattice.intersect", lattice.RationalLattice, "intersect"),
    ("odometer.stage", odometer.OdometerChain, "stage"),
    ("odometer.cohomology_stage", odometer.OdometerChain, "cohomology_stage"),
    ("speedup.cone_contains", speedup.Cone, "contains"),
    ("speedup.permutation", speedup.PiecewiseCocycle, "permutation"),
    ("speedup.orbit_of_zero", speedup, "orbit_of_zero"),
    ("speedup.derived_stage", speedup, "derived_stage"),
    ("speedup.validate", speedup, "validate"),
    ("classify.fit_descriptor", classify, "fit_descriptor"),
    ("classify.descriptor_make", classify.SupergroupDescriptor, "make"),
    ("classify.member", classify.SupergroupDescriptor, "member"),
    ("classify.verdict", classify, "conjugate_test"),
    ("classify.verdict", classify, "isomorphism_test"),
    ("classify.verdict", classify, "continuous_oe_test"),
    ("classify.verdict", classify, "orbit_equivalence_test"),
    ("castles.atomspace_new", castles.AtomSpace, "__init__"),
    ("castles.translate", castles.AtomSpace, "translate"),
    ("castles.fibers", castles.AtomSpace, "fibers"),
    ("castles.minimal_cone_vector", castles, "minimal_cone_vector"),
    ("castles.refine_pure_columns", castles, "refine_pure_columns"),
    ("castles.castle_refinement_over", castles, "castle_refinement_over"),
    ("construction.run", construction.SpeedupConstruction, "run"),
    ("construction.audit", construction.SpeedupConstruction, "stage_invariants"),
    ("sampling.sample_cocycles", sampling, "sample_cocycles"),
) + tuple(
    ("formats.parse", formats, name)
    for name in sorted(vars(formats))
    if name.startswith(("parse_", "load_")) and callable(getattr(formats, name))
)

NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in NAMES))

# Aggregated per parent span instead of kept as span records: the hot leaf
# calls, plus chain stage lookups and atom-space builds, which run about a
# million times per construction (almost all of them cache hits).
LEAVES = frozenset({
    "lattice.reduce",
    "castles.translate",
    "speedup.cone_contains",
    "classify.member",
    "odometer.stage",
    "castles.atomspace_new",
})


class Tracer:
    """Collects spans, counts and self times while installed.

    Wrapped functions must run inside a span the benchmark opened with
    `open`, so every call has a parent."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.clock = time.perf_counter
        self.origin = self.clock()
        # one frame per active wrapped call: [start, child time, span index]
        self.stack: list[list] = []
        self.spans: list = []
        self.leaf_totals: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.failed: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self._patches: list = []
        # ratio counters
        self.perm_seen: set = set()
        self.perm_keep: list = []  # keeps cocycles alive so their ids stay unique
        self.perm_hits = 0
        self.second_calls = 0
        self.makes_in_fit = 0
        self.validates_in_sampling = 0
        self.sampled = 0
        self._before = {
            "speedup.permutation": self._on_permutation,
            "castles.minimal_cone_vector": self._on_minimal_cone_vector,
            "classify.descriptor_make": self._on_make,
            "speedup.validate": self._on_validate,
        }
        self._after = {"sampling.sample_cocycles": self._on_sampled}

    # -- spans opened by the benchmark itself --------------------------

    def open(self, name: str):
        """Open a span of the benchmark's own (a unit or a phase)."""
        parent = self.stack[-1][2] if self.stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, 0.0, 0.0))
        self.stack.append([self.clock(), 0.0, index])

    def close(self, name: str) -> float:
        end = self.clock()
        start, child, index = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][1] += duration
        self.spans[index] = (name, self.spans[index][1], start - self.origin, end - self.origin)
        return duration

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, clock = self.stack, self.clock
        calls, self_s, active = self.calls, self.self_s, self.active
        spans, leaf_totals = self.spans, self.leaf_totals
        leaf = name in LEAVES
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if leaf:
                frame = [clock(), 0.0, parent[2]]
            else:
                index = len(spans)
                spans.append(None)
                frame = [clock(), 0.0, index]
                active[name] += 1
                if before is not None:
                    before(args, kwargs)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._fail(name, err)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[name] += 1
                self_s[name] += duration - frame[1]
                parent[1] += duration
                if leaf:
                    total = leaf_totals[(parent[2], name)]
                    total[0] += 1
                    total[1] += duration
                else:
                    active[name] -= 1
                    spans[index] = (name, parent[2], frame[0] - self.origin, end - self.origin)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _fail(self, name: str, err: Exception) -> None:
        # an exception crossing several wrapped calls is one failure
        if getattr(err, "_perfbench_counted", False):
            return
        err._perfbench_counted = True
        self.failed[name.split(".")[0]] += 1

    # ratio hooks: called with the wrapped call's arguments or its result

    def _on_permutation(self, args, kwargs):
        cocycle, i, depth = args[0], args[1], args[2]
        key = (id(cocycle), i, depth)
        if key in self.perm_seen:
            self.perm_hits += 1
        else:
            self.perm_seen.add(key)
            self.perm_keep.append(cocycle)

    def _on_minimal_cone_vector(self, args, kwargs):
        if kwargs.get("second", args[4] if len(args) > 4 else False):
            self.second_calls += 1

    def _on_make(self, args, kwargs):
        if self.active["classify.fit_descriptor"]:
            self.makes_in_fit += 1

    def _on_validate(self, args, kwargs):
        if self.active["sampling.sample_cocycles"]:
            self.validates_in_sampling += 1

    def _on_sampled(self, result):
        self.sampled += len(result)

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every target with its wrapper; `uninstall` restores them."""
        modules = [
            m for n, m in sys.modules.items() if n == "odolab" or n.startswith("odolab.")
        ] + list(self.extra_modules)
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, replacement)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, self times, failures and ratios."""
        out: dict[str, float] = {}
        for name in NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer in LAYERS:
            out[f"{layer}.failed"] = self.failed[layer]
        out["speedup.permutation.hit_ratio"] = _ratio(self.perm_hits, self.calls["speedup.permutation"])
        out["castles.minimal_cone_vector.second_ratio"] = _ratio(
            self.second_calls, self.calls["castles.minimal_cone_vector"]
        )
        out["classify.candidates_per_fit"] = _ratio(self.makes_in_fit, self.calls["classify.fit_descriptor"])
        out["sampling.accept_ratio"] = _ratio(self.sampled, self.validates_in_sampling)
        return out

    def accounted_s(self) -> float:
        """Summed self time of every span, the benchmark's own included."""
        return sum(self.self_s.values())

    def write(self, path) -> None:
        """Write the span records and leaf aggregates as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for index, (name, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "parent": parent, "start": start, "end": end}) + "\n")
            for (parent, name), (count, total) in sorted(self.leaf_totals.items()):
                out.write(json.dumps({"parent": parent, "name": name, "calls": count, "total_s": total}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
