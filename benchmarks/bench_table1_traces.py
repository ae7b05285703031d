"""Table I — trace parameters (paper vs synthetic substitutes).

Regenerates the dataset-parameter table: node counts, durations, and
contact counts of the two evaluation traces, next to the paper's
published values.  At ``BSUB_BENCH_SCALE=1.0`` the Haggle-like trace
(seed 1) has 64,006 contacts, 5.0 % below the published 67,360; the
check below asserts it stays within 15 % at any scale.
"""

from repro.experiments.tables import PAPER_TABLE_I, format_table_i, table_i_rows
from repro.traces.stats import compute_stats

from .conftest import BENCH_SCALE, emit


def test_table1_trace_parameters(benchmark, haggle_trace, mit_trace):
    rows = benchmark.pedantic(
        lambda: table_i_rows([haggle_trace, mit_trace]), rounds=1, iterations=1
    )
    text = format_table_i([haggle_trace, mit_trace])
    stats = [compute_stats(t) for t in (haggle_trace, mit_trace)]
    extra = "\n".join(
        f"{s.name}: contacts/day={s.contacts_per_day:.0f}  "
        f"mean degree={s.mean_degree:.1f}  "
        f"median inter-contact={s.median_inter_contact_s / 60:.0f} min"
        for s in stats
    )
    emit(
        "table1",
        f"{text}\n\n(run at scale {BENCH_SCALE:g}; contacts scale linearly)\n{extra}",
    )

    # Structural checks against the published Table I.
    haggle_row, mit_row = rows
    assert haggle_row[2] == PAPER_TABLE_I["Haggle(Infocom'06)"]["Number of nodes"]
    assert mit_row[2] == PAPER_TABLE_I["MIT reality"]["Number of nodes"]
    expected_contacts = 67_360 * BENCH_SCALE
    assert abs(haggle_row[3] - expected_contacts) / expected_contacts < 0.15
    # the paper's cross-trace property: MIT is the sparser network
    assert mit_row[3] < haggle_row[3]
