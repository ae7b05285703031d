"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-haggle --seed 0 --seconds 10 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
separate traced run) with ``--trace 1``.  The full record of the run,
host details included, goes to ``.bench_out/``.  Exits 1 when an output
check fails, and non-zero without a result line when the program under
test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for checking the benchmark itself",
    )
    return parser.parse_args(argv)


def _load_program() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _number(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv=None) -> int:
    args = _parse(argv)
    _load_program()
    from perfbench.benchlib import catalog, common, envrec

    if args.workload not in catalog.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(catalog.WORKLOADS)}")
    common.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_path = str(common.OUT_DIR / f"spans-{stem}.jsonl") if args.trace else None

    host = envrec.HostRecord()
    if args.workload in catalog.SIM_WORKLOADS:
        from perfbench.benchlib import sims as module
    elif args.workload == "serve-fanout":
        from perfbench.benchlib import fanout as module
    else:
        from perfbench.benchlib import wire as module
    out = module.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        span_path=span_path, smoke=args.smoke,
    )
    env = host.finish()

    e2e_units = {name: spec[0] for name, spec in catalog.END_TO_END.items()}
    layer_units = {name: unit for name, unit, _b in catalog.per_layer_names()}
    if args.trace:
        units = layer_units
        metrics = {name: out.layers.get(name, 0) for name in layer_units}
    else:
        units = e2e_units
        metrics = dict(out.end_to_end)
    for name, value in {**out.end_to_end, **out.layers}.items():
        unit = e2e_units.get(name) or layer_units.get(name, "")
        print(f"{name:<40} {value!r:>24} {unit}")
    if "fingerprint" in out.info:
        print(f"fingerprint {out.info['fingerprint']}")
    for note in out.info.get("notes", []):
        print(f"NOTE: {note}")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    for key, value in sorted(env.items()):
        print(f"host.{key:<35} {value}")

    correct = out.failed == 0 and not out.problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": out.attempted, "failed": out.failed,
        "problems": out.problems, "end_to_end": out.end_to_end,
        "layers": out.layers, "info": out.info, "host": env,
    }
    with open(common.OUT_DIR / f"{stem}.json", "w") as sink:
        json.dump(record, sink, indent=1, sort_keys=True, default=_number)

    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": _number(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
