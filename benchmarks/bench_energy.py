"""Energy comparison — the paper's battery-constraint argument, measured.

Not a figure in the paper, but the quantified version of its bottom
line ("B-SUB consumes much less resources than PUSH", Sec. VIII):
per-protocol radio energy under a Bluetooth class-2 model, split into
the protocol-controlled data share and the trace-determined discovery
share, plus the broker hotspot ratio B-SUB's design accepts.
"""

import pytest

from repro.dtn.energy import BLUETOOTH_CLASS2_MODEL
from repro.experiments.report import format_table
from repro.api import run

from .conftest import bench_spec, emit


@pytest.fixture(scope="module")
def runs(haggle_trace):
    spec = bench_spec(ttl_min=600.0)
    return {
        name: run(haggle_trace, spec.with_protocol(name))
        for name in ("PUSH", "B-SUB", "PULL")
    }


def _table(runs):
    rows = []
    for name, result in runs.items():
        energy = BLUETOOTH_CLASS2_MODEL.evaluate(result.engine)
        rows.append(
            [
                name,
                energy.data_j,
                energy.setup_j,
                energy.energy_per_delivery_j(
                    result.summary.num_intended_deliveries
                ) * 1e3,  # mJ
                energy.hotspot_ratio(),
                result.summary.delivery_ratio,
            ]
        )
    return format_table(
        ["protocol", "data (J)", "discovery (J)", "data mJ/delivery",
         "hotspot ratio", "delivery"],
        rows,
        title="Radio energy (Bluetooth class-2 model)",
    )


def test_energy_comparison(benchmark, haggle_trace, runs):
    benchmark.pedantic(lambda: runs, rounds=1, iterations=1)
    emit("energy", _table(runs))

    energies = {
        name: BLUETOOTH_CLASS2_MODEL.evaluate(r.engine) for name, r in runs.items()
    }
    # protocol-controlled energy: PUSH most expensive
    assert energies["PUSH"].data_j > energies["B-SUB"].data_j
    assert energies["B-SUB"].data_j > energies["PULL"].data_j
    # per *useful* delivery, B-SUB beats flooding
    push_ppd = energies["PUSH"].energy_per_delivery_j(
        runs["PUSH"].summary.num_intended_deliveries
    )
    bsub_ppd = energies["B-SUB"].energy_per_delivery_j(
        runs["B-SUB"].summary.num_intended_deliveries
    )
    assert bsub_ppd < push_ppd
    # discovery cost is a property of the trace, not the protocol
    assert len({round(e.setup_j, 6) for e in energies.values()}) == 1
