"""odolab benchmark: construction and classification workloads.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, in turn
    python3 perfbench/run.py --workload construct-quadrant --seed 1 --seconds 20 --trace 0

One workload runs in this interpreter, single-threaded, as a closed loop:
units of work (see workloads.py) run one after another, each from fresh
inputs, until one more unit would end further from `--seconds` than
stopping now; at least one unit always runs.  With `--trace 0` a speed probe
(speed.py) runs alongside, every interval is scaled to the reference speed,
and the wall time is the median over the units and the set-up time the
median over every set-up of the run.  With `--trace 1` one untraced unit
runs first as the reference, then
one unit runs with every layer function wrapped, and the per-layer metrics
come from that traced unit.  Without `--workload` each workload runs in a
fresh interpreter of its own, one after another.

Every unit's outputs are checked (published facts, invariants, frozen
digests).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A run also writes its
metadata, per-unit values and failed checks to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("construct-quadrant", "construct-derived", "derive-classify")

# Gated end-to-end metrics, reported by every workload.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Phase split of each workload: printed and recorded, not gated, because a
# phase of one workload does not exist (would read 0) on the others.
PHASES = {
    "construct-quadrant": ("build_s", "audit_s", "atoms_per_s"),
    "construct-derived": ("build_s", "audit_s", "atoms_per_s"),
    "derive-classify": ("derive_s", "fit_s", "verdict_s"),
}
PHASE_UNITS = {"build_s": "s", "audit_s": "s", "atoms_per_s": "1/s", "derive_s": "s", "fit_s": "s", "verdict_s": "s"}
CONSTRUCTION_COUNTS = ("construction.atoms", "construction.towers", "construction.f_atoms", "construction.r_atoms")
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}


def per_layer() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    import tracer as tracing

    names = [(name, _layer_unit(name)) for name in tracing.Tracer().metrics()]
    names += [(name, "count") for name in CONSTRUCTION_COUNTS]
    names += [(f"phase.{name}", unit) for name, unit in PHASE_UNITS.items()]
    return names + list(TRACE_METRICS.items())


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_fit")):
        return "ratio"
    return "count"


def load_library() -> list[tuple[float, float]]:
    """Import odolab from this checkout's src/; the interval of each import.

    The package is imported `SETUP_REPEATS` times, dropping it from
    `sys.modules` in between, so every import reads and runs the modules
    again.  Exits without a result when the sources are missing."""
    package = ROOT / "src" / "odolab" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no odolab sources at {package.parent}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    spans = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "odolab" or n.startswith("odolab.")]:
            del sys.modules[name]
        start = time.perf_counter()
        import odolab
        spans.append((start, time.perf_counter()))
    if Path(odolab.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: odolab was imported from {odolab.__file__}, not from this checkout")
    return spans


# ---------------------------------------------------------------- metadata

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        head = _read(ROOT / ".git" / head[5:])
    return head or "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "odolab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu() -> dict:
    model = None
    info = _read(Path("/proc/cpuinfo")) or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    return {"model": model or platform.processor() or "unknown", "caches": caches}


def metadata(args, units: int) -> dict:
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
        "setup_repeats": SETUP_REPEATS if not args.trace else 1,
        "stages": workloads.CONSTRUCT_STAGES.get(args.workload),
        "samples": {"axis": workloads.AXIS_SAMPLES, "probe": workloads.PROBE_SAMPLES}
        if args.workload == "derive-classify"
        else None,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
    }


# ---------------------------------------------------------------- one workload

def _phases(unit) -> dict[str, float]:
    out = {f"{name}_s": value for name, value in unit.phases.items()}
    if "construction.atoms" in unit.counts:
        out["atoms_per_s"] = unit.counts["construction.atoms"] / unit.work_s
    return out


def _run_unit(args, timer, repeats):
    import workloads

    run, check = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    unit = run(args.workload, args.seed, timer, repeats)
    checks = check(unit)
    unit.outputs = None  # free the castles before the next unit
    return unit, checks, time.perf_counter() - start


def measure(args, probe, import_spans):
    """Untraced units until the time budget; end-to-end metrics.

    Every interval is scaled to the reference speed by `probe` (see
    speed.py); the raw seconds are printed and recorded beside them."""
    import workloads

    begin = time.perf_counter()
    units = []
    while True:
        unit, checks, took = _run_unit(args, workloads.Timer(), SETUP_REPEATS)
        units.append((unit, checks))
        # stop where the run ends nearest to the budget
        if time.perf_counter() - begin + took / 2 >= args.seconds:
            break

    def scaled(spans):
        return [probe.scaled(start, end) for start, end in spans]

    import_s = statistics.median(scaled(import_spans))
    setups = [scaled(u.setup_spans) for u, _ in units]
    phases = []
    for u, _ in units:
        p = {f"{name}_s": sum(scaled(spans)) for name, spans in u.lap_spans.items()}
        p["work_s"] = sum(p.values())
        if "construction.atoms" in u.counts:
            p["atoms_per_s"] = u.counts["construction.atoms"] / p["work_s"]
        phases.append(p)
    raw_import_s = statistics.median(end - start for start, end in import_spans)
    values = {
        "wall_s": import_s
        + statistics.median(statistics.median(setup) + p["work_s"] for setup, p in zip(setups, phases)),
        "setup_s": import_s + statistics.median(t for setup in setups for t in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    extra = {
        name: (statistics.median(p[name] for p in phases), PHASE_UNITS[name]) for name in PHASES[args.workload]
    }
    extra["raw_wall_s"] = (raw_import_s + statistics.median(u.setup_s + u.work_s for u, _ in units), "s")
    extra["raw_setup_s"] = (raw_import_s + statistics.median(t for u, _ in units for t in u.setups), "s")
    extra["probe_ms"] = (1000 * statistics.median(probe.durations), "ms")
    return units, metrics, extra


def trace(args):
    """One untraced reference unit, then one traced unit; per-layer metrics."""
    import tracer as tracing
    import workloads

    reference, ref_checks, _ = _run_unit(args, workloads.Timer(), 1)
    run, check = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(extra_modules=[workloads])
    with tracer:
        tracer.open("unit")
        traced = run(args.workload, args.seed, workloads.Timer(tracer), 1)
        traced_wall = tracer.close("unit")
    checks = check(traced)
    traced.outputs = None
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    values = dict(tracer.metrics())
    values.update((name, traced.counts.get(name, 0)) for name in CONSTRUCTION_COUNTS)
    values.update((f"phase.{name}", value) for name, value in _phases(reference).items())
    untraced_wall = reference.setup_s + reference.work_s
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.accounted_share"] = tracer.accounted_s() / traced_wall
    metrics = {name: (values.get(name, 0), unit) for name, unit in per_layer()}
    return [(reference, ref_checks), (traced, checks)], metrics


def _load() -> list[tuple[float, float]]:
    try:
        return load_library()
    except ImportError as err:
        sys.exit(f"perfbench: cannot import odolab: {err}")


def run_workload(args) -> int:
    if args.trace:
        _load()
        units, metrics = trace(args)
        extra = {}
    else:
        with speed.SpeedProbe() as probe:
            units, metrics, extra = measure(args, probe, _load())
    attempted = sum(len(c.results) for _, c in units)
    failed = [(name, detail) for _, c in units for name, _, detail in c.failed]
    meta = metadata(args, len(units))

    print(f"workload {args.workload}  seed {args.seed}  units {len(units)}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'checks':<44} {attempted:>14d} count")
    print(f"  {'fail_ratio':<44} {len(failed) / attempted:>14.6g} ratio")
    for name, detail in failed:
        print(f"  FAILED {name}: {detail}")
    print("meta " + json.dumps(meta, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "extra": {k: v for k, (v, _) in extra.items()},
        "units": [{"setups": u.setups, "laps": u.laps} for u, _ in units],
        "checks": attempted,
        "failed": failed,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter; a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="odolab benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20210223)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
