"""Bounded-memory guard: a 10M-contact pipeline stays out of RAM.

Generates a ≥10⁷-contact city dataset straight to disk, opens it
memory-mapped, and replays it — asserting the whole pipeline's
*anonymous* memory growth (``RssAnon`` from ``/proc/self/status``,
which excludes reclaimable file-backed mmap pages) stays under a
ceiling an in-RAM copy could not meet: the four columnar arrays alone
would be ``10M × 32 B = 320 MB``.

This is the regression guard for the out-of-core path: any accidental
materialisation (a stray ``np.array`` copy of a column, an object-list
fallback, a whole-column temporary) blows the ceiling.
"""

import sys

import numpy as np
import pytest

from repro.dtn import PassiveProtocol, Simulation
from repro.traces import open_trace_dataset
from repro.traces.synthetic import CityTraceConfig, generate_city_trace

TARGET_CONTACTS = 10_000_000
#: Anonymous-memory growth ceiling for generate + open + replay.  The
#: pipeline measures ~60 MB here; a single in-RAM copy of the columns
#: costs 320 MB, so 256 MB separates "out of core" from "materialised"
#: with margin for allocator noise on both sides.
CEILING_BYTES = 256 * 1024 * 1024

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads RssAnon from /proc/self/status",
)


def _rss_anon_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("RssAnon not found in /proc/self/status")


def test_ten_million_contacts_in_bounded_memory(tmp_path):
    baseline = _rss_anon_bytes()
    config = CityTraceConfig(
        num_nodes=100_000,
        duration_days=2.0,
        target_contacts=TARGET_CONTACTS,
        num_communities=1_000,
        seed=2,
        name="guard",
    )
    trace = generate_city_trace(config, tmp_path / "ds")
    assert trace.num_contacts >= 0.9 * TARGET_CONTACTS
    generated_growth = _rss_anon_bytes() - baseline

    reopened = open_trace_dataset(tmp_path / "ds")
    report = Simulation(reopened, PassiveProtocol()).run()
    replayed_growth = _rss_anon_bytes() - baseline

    assert report.num_contacts == trace.num_contacts
    last_start = float(np.asarray(reopened.store.columns()[0])[-1])
    assert report.end_time >= last_start
    assert generated_growth < CEILING_BYTES, (
        f"generation grew anonymous RSS by {generated_growth >> 20} MB"
    )
    assert replayed_growth < CEILING_BYTES, (
        f"pipeline grew anonymous RSS by {replayed_growth >> 20} MB"
    )
