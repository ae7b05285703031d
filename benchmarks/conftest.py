"""Shared configuration for the benchmark harness.

Every figure/table bench runs at a reduced trace scale by default so
the whole suite finishes in minutes on a laptop; set
``BSUB_BENCH_SCALE=1.0`` (and optionally ``BSUB_BENCH_MIN_RATE``) to
reproduce at the paper's full workload.

Each bench prints the regenerated table/figure series and also writes
it to ``benchmarks/results/<name>.txt`` so the output survives pytest's
capture.
"""

import json
import os
from pathlib import Path

import pytest

from repro.api import ExperimentSpec
from repro.core.filter_zoo import registered_backends
from repro.traces.synthetic import haggle_like, mit_reality_like

#: Fraction of the paper's contact volume to simulate (1.0 = full scale).
BENCH_SCALE = float(os.environ.get("BSUB_BENCH_SCALE", "0.05"))

#: Minimum per-node message rate (paper: 1/1800 s⁻¹ = 1 per 30 min).
BENCH_MIN_RATE = float(os.environ.get("BSUB_BENCH_MIN_RATE", str(1 / 3600.0)))

RESULTS_DIR = Path(__file__).parent / "results"


#: One representative filter spec per registered zoo backend, used by
#: the registry-driven micro-benchmarks and the BENCH_filters matrix.
#: ``retouched`` gets a fixed clear list here; workload-aware benches
#: replace it with a lineage-planned spec.
ZOO_BENCH_SPECS = {
    "dict": "dict",
    "array": "array",
    "multi": "multi:threshold=0.2,max=4",
    "retouched": "retouched:clear=1+2+5",
    "countbf": "countbf:rows=8",
}


def zoo_bench_specs() -> dict:
    """Spec strings covering the *whole* filter registry.

    Fails loudly when a backend is registered without a bench spec, so
    adding filter #6 forces the benchmarks to cover it too.
    """
    missing = [b for b in registered_backends() if b not in ZOO_BENCH_SPECS]
    if missing:
        raise RuntimeError(
            f"no bench spec for registered filter backend(s): {missing}; "
            "add them to benchmarks.conftest.ZOO_BENCH_SPECS"
        )
    return dict(ZOO_BENCH_SPECS)


def bench_spec(**overrides) -> ExperimentSpec:
    defaults = dict(min_rate_per_s=BENCH_MIN_RATE)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def emit(name: str, text: str) -> str:
    """Print a regenerated table and persist it under results/."""
    banner = f"\n{'=' * 72}\n{text}\n{'=' * 72}"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def emit_json(name: str, document: dict) -> Path:
    """Persist a machine-readable bench result under results/.

    Written as canonical JSON (sorted keys) so downstream tooling can
    diff two bench runs directly.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(
        json.dumps(document, sort_keys=True, indent=2, allow_nan=False)
        + "\n"
    )
    print(f"wrote {path}")
    return path


def nan_to_none(value):
    """JSON-safe number: sparse bench scales produce NaN metrics."""
    import math

    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def fp_attribution(summary) -> dict:
    """False-positive attribution breakdown of one run summary.

    Mirrors the taxonomy of ``repro.obs.analyze``: false injections are
    pure relay-filter Bloom collisions; the remaining useless
    injections carried genuinely-announced but recipient-less keys;
    false deliveries can only come from the consumer-side filter.
    """
    return {
        "injections": summary.num_injections,
        "relay_filter_fp": summary.num_false_injections,
        "genuine_but_stale": (
            summary.num_useless_injections - summary.num_false_injections
        ),
        "genuine": summary.num_injections - summary.num_useless_injections,
        "false_deliveries": summary.num_false_deliveries,
        "false_injection_ratio": summary.false_injection_ratio,
        "useless_injection_ratio": summary.useless_injection_ratio,
    }


@pytest.fixture(scope="session")
def haggle_trace():
    return haggle_like(scale=BENCH_SCALE, seed=1)


@pytest.fixture(scope="session")
def mit_trace():
    # The MIT preset is ~3.7× sparser than Haggle by design; at reduced
    # bench scales that sparsity compounds until delivery ratios are
    # too small for meaningful shape comparisons (conditional-delay
    # metrics invert under heavy censoring).  Partially compensate at
    # small scales while keeping MIT strictly sparser than Haggle.
    return mit_reality_like(scale=min(1.0, 3 * BENCH_SCALE), seed=1)
