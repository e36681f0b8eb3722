"""Random generation of valid bounded speedup cocycles.

Sampling a compatible pair of generator tables by rejection alone almost
never succeeds, so the sampler seeds one table and propagates the other
along the first generator's cycles: the compatibility relation determines
the second table on a cycle once its value at one point is chosen, and
acceptance reduces to the cycle-closure and bijectivity checks.  Tables
are built as lists indexed by the chain's atom codes and keyed by
representative only for the returned cocycles.  Samples are
deterministic for a given seed.
"""

from __future__ import annotations

import random
from itertools import product as iter_product

from .odometer import OdometerChain
from .speedup import PiecewiseCocycle, validate

_DEPTH = 1         # the tables are constant on depth-1 cylinders
_BOX = 3           # table values have coordinates in 0.._BOX
_ATTEMPTS = 20000  # draws before `sample_cocycles` returns fewer than asked


def _quadrant_values(box: int, dim: int):
    return [v for v in iter_product(range(box + 1), repeat=dim) if any(v)]


def _propagate_second(space, lead, lead_images, seeds):
    """Second table from per-cycle seeds via the compatibility relation.

    Tables are lists indexed by atom code.  Walking x -> image of x under
    the seeded generator, the relation forces
    other(next x) = other(x) + lead(x + other(x)) - lead(x).  Returns None
    when a cycle fails to close.
    """
    table: list = [None] * space.size
    for start, seed in seeds:
        code, val = start, seed
        for _ in range(space.size + 1):
            if table[code] is not None:
                if table[code] != val:
                    return None  # cycle closure failed
                break
            table[code] = val
            stepped = space.translate(code, val)
            val = tuple(
                v + l2 - l1
                for v, l2, l1 in zip(val, lead[stepped], lead[code])
            )
            code = lead_images[code]
    return None if None in table else table


def _cycle_starts(images):
    """Least code of each cycle of a permutation, in increasing order."""
    seen = set()
    starts = []
    for start in range(len(images)):
        if start not in seen:
            starts.append(start)
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = images[cur]
    return starts


def sample_cocycles(chain: OdometerChain, count: int, rng: random.Random):
    """Up to `count` distinct validated cocycles with quadrant values.

    The lead table is constant on a random slice of samples (where the
    propagated table is free to vary per cycle) and fully random otherwise;
    both shapes occur in the output.
    """
    dim = chain.dim
    space = chain.kr_partition(_DEPTH)
    codes = space.atoms()
    reps = [space.decode(c) for c in codes]
    values = _quadrant_values(_BOX, dim)
    axis_values = [v for v in values if sum(1 for x in v if x) == 1]
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < _ATTEMPTS:
        attempts += 1
        mode = rng.random()
        if mode < 0.25:
            # axis-aligned slice: keeps the rigidity probe non-vacuous
            lead_axis = rng.randrange(dim)
            a = rng.randint(1, _BOX)
            lead = [tuple(a if i == lead_axis else 0 for i in range(dim)) for _ in codes]
            seed_pool = [v for v in axis_values if v[lead_axis] == 0] or values
        elif mode < 0.6:
            lead = [rng.choice(values) for _ in codes]
            seed_pool = values
        else:
            vec = rng.choice(values)
            lead = [vec for _ in codes]
            seed_pool = values
        lead_images = [space.translate(c, vec) for c, vec in zip(codes, lead)]
        if len(set(lead_images)) < space.size:
            continue
        seeds = [(start, rng.choice(seed_pool)) for start in _cycle_starts(lead_images)]
        other = _propagate_second(space, lead, lead_images, seeds)
        if other is None or len({space.translate(c, v) for c, v in zip(codes, other)}) < space.size:
            continue
        # propagation can wander out of the quadrant; keep cone-valued tables
        if any(min(v) < 0 or not any(v) for v in other):
            continue
        lead_first = rng.random() < 0.5
        key = (tuple(lead), tuple(other)) if lead_first else (tuple(other), tuple(lead))
        if key in seen:
            continue
        tables = tuple(dict(zip(reps, t)) for t in key)
        cocycle = PiecewiseCocycle(chain, 2, _DEPTH, tables)
        report = validate(cocycle, raise_on_error=False)
        if not report.ok:
            continue
        seen.add(key)
        out.append(cocycle)
    return out
