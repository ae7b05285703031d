"""Property-based tests for the filter zoo (hypothesis).

Three laws the zoo's novel pieces must hold under adversarial inputs:

* retouching never introduces false negatives for protected keys the
  planner did not explicitly sacrifice;
* the Eq. 9–10 binary-search allocation always matches the brute-force
  enumeration optimum (and fails exactly when it fails);
* the 2D counting filter's cells never underflow under interleaved
  insert / guarded-delete / decay sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HashFamily
from repro.core.allocation import plan_allocation, plan_allocation_brute
from repro.core.countbf import CountBF2D
from repro.core.retouched import RetouchedTCBF, plan_retouch

FAMILY = HashFamily(4, 256, 0x9E37)

keys = st.integers(min_value=0, max_value=5000).map(lambda i: f"key-{i}")
key_sets = st.sets(keys, min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(
    protected=key_sets,
    fp_keys=key_sets,
    max_sacrifice=st.integers(min_value=0, max_value=4),
)
def test_retouch_never_drops_unsacrificed_keys(protected, fp_keys, max_sacrifice):
    """Retouched BF has no FNs for protected keys outside the sacrifice set.

    This is the Donnet et al. RBF safety contract: the planner may
    *choose* to sacrifice interests (within budget), but any protected
    key it did not list as sacrificed must still query positive after
    its bits are scrubbed.
    """
    plan = plan_retouch(fp_keys, protected, FAMILY, max_sacrifice=max_sacrifice)
    assert len(plan.sacrificed_keys) <= max_sacrifice
    assert plan.sacrificed_keys <= frozenset(protected)

    filt = RetouchedTCBF(family=FAMILY, cleared_bits=plan.cleared_bits)
    filt.insert_batch(sorted(protected))
    for key in protected:
        if key in plan.sacrificed_keys:
            continue
        assert filt.query(key), f"retouching dropped unsacrificed key {key!r}"

    # Every neutralised FP key must actually stop matching.
    for key in plan.neutralised_keys:
        assert not filt.query(key), f"neutralised key {key!r} still matches"


@settings(max_examples=80, deadline=None)
@given(
    total_keys=st.integers(min_value=1, max_value=500),
    memory_bound=st.floats(min_value=8.0, max_value=8192.0),
    num_bits=st.sampled_from([64, 128, 256]),
    num_hashes=st.integers(min_value=1, max_value=6),
)
def test_allocation_binary_search_matches_brute_force(
    total_keys, memory_bound, num_bits, num_hashes
):
    """Eq. 9–10 binary search == brute-force enumeration, including failure."""
    kwargs = dict(
        num_bits=num_bits,
        num_hashes=num_hashes,
        max_filters=256,
    )
    try:
        fast = plan_allocation(total_keys, memory_bound, **kwargs)
    except ValueError:
        fast = None
    try:
        brute = plan_allocation_brute(total_keys, memory_bound, **kwargs)
    except ValueError:
        brute = None

    if fast is None or brute is None:
        assert fast is None and brute is None
        return
    assert fast.memory_bytes < memory_bound
    assert brute.memory_bytes < memory_bound
    # The paper's rule (largest feasible h, FPR monotone decreasing)
    # can only ever land on an h >= the brute-force tie-break (which
    # prefers the cheapest among FPR-equivalent allocations).
    assert fast.num_filters >= brute.num_filters
    # Below ~1e-12 the joint FPR is float-noise-dominated (the curve's
    # mathematical monotonicity is smaller than rounding error), so any
    # feasible allocation is equally optimal; above it the binary
    # search must achieve the exhaustive optimum.
    if brute.joint_fpr > 1e-12:
        assert fast.joint_fpr == pytest.approx(brute.joint_fpr, rel=1e-6, abs=0)
    if fast.num_filters == brute.num_filters:
        assert fast.memory_bytes == brute.memory_bytes
        assert fast.joint_fpr == brute.joint_fpr


ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "decay"]), keys),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_countbf_counters_never_underflow(ops):
    """Interleaved insert/guarded-delete/decay keeps every cell >= 0.

    Deletes are issued both for present and absent keys; the filter must
    refuse the absent ones (KeyError) instead of driving shared cells
    negative, and after any prefix of the sequence no stored cell value
    may be negative.

    A key that was never inserted can still *look* present (a false
    positive); the filter cannot tell, so it accepts that delete and
    takes the counts from the keys sharing its cells.  Those keys are
    no longer certainly present afterwards.
    """

    def make():
        return CountBF2D(num_bits=128, num_hashes=3, rows=8, decay_factor=0.0)

    def cells_of(key):
        probe = make()
        probe.insert(key)
        return set(probe.positions())

    filt = make()
    live = {}  # key -> net insert count we believe is still present
    for op, key in ops:
        if op == "insert":
            filt.insert(key)
            live[key] = live.get(key, 0) + 1
        elif op == "delete":
            looked_present = filt.query(key)
            try:
                filt.delete(key)
            except KeyError:
                # Refused: must only happen when the key *looks* absent,
                # which implies we hold no net inserts for it.
                assert not looked_present
                assert live.get(key, 0) == 0
            else:
                assert looked_present, f"absent key {key!r} was deleted"
                if live.get(key, 0) > 0:
                    live[key] -= 1
                else:
                    # False-positive delete: drop every key it shared a cell with.
                    hit = cells_of(key)
                    live = {k: n for k, n in live.items() if not cells_of(k) & hit}
        else:  # decay
            filt.decay(7.5)
            # Decay weakens everything; our bookkeeping of "certainly
            # present" keys no longer holds, so reset expectations.
            live = {}
        for _, value in filt.items():
            assert value >= 0.0, f"cell underflowed to {value}"

    # Keys with net inserts and no intervening decay must still match.
    for key, count in live.items():
        if count > 0:
            assert filt.query(key)
            assert filt.min_counter(key) >= filt.initial_value - 1e-9
