"""Interest-encoding ablation — TCBF vs raw strings, in-protocol.

Sec. IV-B's claim is that the TCBF "reduces bandwidth requirements in
interests propagation" versus raw strings, at the price of false
positives.  The static memory comparison lives in bench_memory; this
bench measures the claim *dynamically*: the same B-SUB run under both
encodings, comparing total bytes moved, control-plane share, delivery,
and the false-positive traffic only the TCBF produces.
"""

import pytest

from repro.experiments.report import format_table
from repro.api import run

from .conftest import bench_spec, emit


def _run_pair(trace):
    base = dict(ttl_min=600.0)
    tcbf = run(trace, bench_spec(**base))
    raw = run(trace, bench_spec(interest_encoding="raw", **base))
    return tcbf, raw


@pytest.fixture(scope="module")
def pair(haggle_trace):
    return _run_pair(haggle_trace)


def _control_bytes(result):
    """Bytes spent on filters/interest lists rather than messages."""
    message_bytes = 0.0
    # forwardings carry whole messages; everything else is control.
    # We approximate message bytes as forwardings x mean size (70 B).
    message_bytes = result.summary.num_forwardings * 70.0
    return max(result.engine.bytes_transferred - message_bytes, 0.0)


def test_encoding_ablation(benchmark, haggle_trace, pair):
    benchmark.pedantic(lambda: pair, rounds=1, iterations=1)
    tcbf, raw = pair
    rows = []
    for label, result in (("TCBF (paper)", tcbf), ("raw strings", raw)):
        rows.append(
            [
                label,
                result.summary.delivery_ratio,
                result.engine.bytes_transferred / 1e6,
                _control_bytes(result) / 1e6,
                result.summary.false_injection_ratio,
                result.summary.useless_injection_ratio,
            ]
        )
    emit(
        "ablation_encoding",
        format_table(
            ["interest encoding", "delivery", "total MB", "control MB",
             "false inj.", "useless inj."],
            rows,
            title="Ablation — Sec. IV-B: TCBF vs raw-string interests",
        ),
    )

    # The TCBF's purpose: less control traffic per unit of delivery...
    assert _control_bytes(tcbf) <= _control_bytes(raw) * 1.05
    # ...with comparable delivery,
    assert tcbf.summary.delivery_ratio == pytest.approx(
        raw.summary.delivery_ratio, abs=0.15
    )
    # and the cost it pays that raw strings don't:
    assert raw.summary.false_injection_ratio == 0.0
    assert tcbf.summary.false_injection_ratio >= 0.0
