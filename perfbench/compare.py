"""Compare a parent checkout against a change, workload by workload.

    python3 perfbench/compare.py run --parent DIR --change DIR \\
        [--workload NAME ...] [--out pairs.json]
    python3 perfbench/compare.py verdict pairs.json

``run`` executes ``perfbench/run.py`` in both checkouts for ``PAIRS``
pairs, alternating which side goes first (pair *i* uses seed
``FIRST_SEED + i`` on both sides), saves every result, and prints the
verdicts.  ``verdict`` re-prints them from a saved file.  Each
(workload, end-to-end metric) gets improved / unchanged / regressed /
unresolved by the rule in ``perfbench/benchlib/verdict.py``, with the
bounds of this checkout's ``BENCHMARK.json``.  A change that fails an
output check its parent passed, or computes other outputs than its
parent (another ``fingerprint`` in the run record), in any pair is
regressed on every metric of that workload.  Both checkouts must carry
the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.benchlib.verdict import FIRST_SEED, PAIRS, verdict  # noqa: E402


def _bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as source:
        return json.load(source)


def _run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=str(checkout), capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False}
    result["exit"] = proc.returncode
    result["fingerprint"] = _fingerprint(checkout, workload, seed)
    return result


def _fingerprint(checkout: Path, workload: str, seed: int):
    """The output fingerprint in the run's record (sims only), or None."""
    path = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    try:
        return json.loads(path.read_text())["info"].get("fingerprint")
    except (OSError, ValueError, KeyError):
        return None


def run_pairs(parent: Path, change: Path, workloads) -> dict:
    bench = _bench()
    record = {"parent": str(parent), "change": str(change), "runs": {}}
    for workload in workloads:
        runs = record["runs"][workload] = {"parent": [], "change": []}
        for index in range(PAIRS):
            seed = FIRST_SEED + index
            order = [("parent", parent), ("change", change)]
            if index % 2:
                order.reverse()
            for side, checkout in order:
                result = _run_once(checkout, workload, seed,
                                   bench["run_seconds"])
                runs[side].append(result)
                print(f"{workload} pair {index} {side}: exit {result['exit']}",
                      file=sys.stderr, flush=True)
    return record


def _broken_pairs(runs: dict) -> int:
    """Pairs in which the change failed a check its parent passed, or
    computed other outputs than its parent."""
    return sum(
        1 for p, c in zip(runs["parent"], runs["change"])
        if p.get("correct") and (
            not c.get("correct") or p.get("fingerprint") != c.get("fingerprint")
        )
    )


def verdicts(record: dict) -> list:
    rows = []
    for metric in _bench()["end_to_end"]:
        name = metric["name"]
        for workload, runs in record["runs"].items():
            base = {"workload": workload, "metric": name}
            broken = _broken_pairs(runs)
            if broken:
                rows.append({**base, "verdict": "regressed",
                             "note": f"wrong outputs in {broken} pairs"})
                continue
            # A pair counts only when both of its runs passed their checks.
            pairs = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in zip(runs["parent"], runs["change"])
                if p.get("correct") and c.get("correct")
            ]
            if len(pairs) < PAIRS:
                rows.append({**base, "verdict": "unresolved",
                             "note": f"{len(pairs)} of {PAIRS} pairs passed their checks"})
                continue
            row = verdict([p for p, _c in pairs], [c for _p, c in pairs],
                          metric["better"], metric["bound"])
            row.update(base)
            rows.append(row)
    return rows


def _print(rows: list) -> None:
    print(f"{'workload':<14} {'metric':<18} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>5}  verdict")
    for row in rows:
        if "parent" not in row:
            print(f"{row['workload']:<14} {row['metric']:<18} {'':>36} {'':>36} "
                  f"{'':>5}  {row['verdict']} ({row['note']})")
            continue
        cells = [f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"
                 for side in (row["parent"], row["change"])]
        print(f"{row['workload']:<14} {row['metric']:<18} {cells[0]:>36} "
              f"{cells[1]:>36} {row['win_share']:>5.2f}  {row['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--change", type=Path, required=True)
    run.add_argument("--workload", action="append")
    run.add_argument("--out", type=Path, default=Path("compare-pairs.json"))
    show = sub.add_parser("verdict")
    show.add_argument("record", type=Path)
    args = parser.parse_args(argv)

    if args.command == "run":
        workloads = args.workload or [w["name"] for w in _bench()["workloads"]]
        record = run_pairs(args.parent.resolve(), args.change.resolve(),
                           workloads)
        args.out.write_text(json.dumps(record, indent=1))
    else:
        record = json.loads(args.record.read_text())
    rows = verdicts(record)
    _print(rows)
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
