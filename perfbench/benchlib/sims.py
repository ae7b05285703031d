"""``sim-haggle``: full B-SUB protocol runs, repeated.

The workload replays one fixed contact trace (the stand-in for the
paper's fixed Haggle dataset); ``--seed`` draws the message stream (see
:func:`make_spec`), so one seed always yields the same inputs.  The
unit of work is one :func:`repro.api.run` over those inputs (about half
a second), repeated for the whole run.  Repetitions compute the same
result (checked) through the same steps: the stamps taken as each
contact reaches the protocol cut every repetition into the same
contact-to-contact steps.  ``run_s`` sums each step's fastest time over
the repetitions — the time the program needs on a host not slowed by
other tenants.  Hosts flip between speeds every fraction of a second,
so over thirty repetitions every step meets a fast stretch, where the
fastest whole repetition still depends on how long the fast stretches
of one run were.  ``setup_s`` is the median over the repetitions of each one's set-up:
a fresh trace build plus the runner's own ``setup`` phase of that same
run, so the set-ups sample the whole run rather than one moment of it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from repro.api import ExperimentSpec, run
from repro.obs import Observability
from repro.obs.timers import PhaseTimers
from repro.pubsub.protocol import BsubProtocol
from repro.traces import synthetic
from repro.traces.model import ContactTrace

from . import catalog, layers, stats
from .common import Outcome, Window, peak_rss_mb
from .spans import Tracer, overhead
from .verdict import FIRST_SEED, PAIRS

#: Fewest timed runs per measurement, whatever ``--seconds`` says.
MIN_REPS = 3
#: Timed runs in the traced pass.
TRACED_REPS = 3

#: Seeds whose fingerprints are pinned below: the default seed and
#: every seed ``compare.py`` runs.
PINNED_SEEDS = (0,) + tuple(range(FIRST_SEED, FIRST_SEED + PAIRS))

#: ``MetricsSummary`` + engine-count fingerprint per workload and seed.
#: A performance change must leave these unchanged.
PINNED_FINGERPRINTS = {
    "sim-haggle": {
        0: "542be8fd398e43c6",
        100: "eb582a50c14f57bd", 101: "1023025b34258f0a", 102: "1d06249a45d87bfb",
        103: "4d480c43e1ec7d54", 104: "e79d86cc2c41ef4f", 105: "595fbdbc5c354e7f",
        106: "6e79b7afe1ff4859", 107: "fea9ada6c7d03683", 108: "2e11bf7ff3ebed59",
        109: "6626c1d41e0bda17",
    },
}

#: workload -> (trace parameters, ExperimentSpec fields).  The Haggle
#: population (79 nodes) and span (3 days) at 1/20 of its contacts, with
#: the paper's 20 h TTL and a minimum message rate of one per 30 h, so
#: one run takes about half a second and the per-contact protocol path
#: still does most of the work.
SETTINGS = {
    "sim-haggle": (
        {"scale": 0.05, "trace_seed": 0},
        {"ttl_min": 1200.0, "min_rate_per_s": 1.0 / (30 * 3600.0)},
    ),
}

#: ``--smoke`` overrides (tiny inputs): (trace parameters, spec fields).
SMOKE = {
    "sim-haggle": ({"scale": 0.02}, {"ttl_min": 300.0}),
}


def make_spec(settings: dict, seed: int) -> ExperimentSpec:
    """B-SUB with Eq. 5 DF; the seed draws the message stream.

    Node interests stay the paper's default draw: with one interest per
    node they decide most of the run's work, so letting the seed move
    them would swamp run-to-run timing differences.
    """
    return ExperimentSpec(
        protocol="B-SUB", df_per_min=None, workload_seed=seed, **settings
    )


def build_trace(params: dict) -> ContactTrace:
    return synthetic.haggle_like(seed=params["trace_seed"], scale=params["scale"])


def fingerprint(result) -> str:
    """Digest of everything a run computed (summary + engine counts)."""
    engine = result.engine
    material = repr((
        dataclasses.astuple(result.summary),
        engine.num_contacts,
        engine.num_messages_created,
        engine.refused_transfers,
        engine.channels_exhausted,
        repr(engine.bytes_transferred),
        repr(result.decay_factor_per_min),
    ))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def _check(out: Outcome, workload: str, trace: ContactTrace, result) -> str:
    """Invariants of one sim run; returns its fingerprint."""
    summary, engine = result.summary, result.engine
    problems = []
    if summary.num_messages != engine.num_messages_created:
        problems.append("summary and engine disagree on messages created")
    if summary.num_deliveries != (
        summary.num_intended_deliveries + summary.num_false_deliveries
    ):
        problems.append("deliveries != intended + false")
    if engine.num_contacts != trace.num_contacts:
        problems.append("engine skipped contacts of a fault-free run")
    if not 0.0 <= summary.delivery_ratio <= 1.0:
        problems.append(f"delivery ratio {summary.delivery_ratio} out of [0, 1]")
    if summary.num_deliveries == 0 or summary.num_messages == 0:
        problems.append("run delivered nothing")
    out.check(not problems, f"{workload} run: " + "; ".join(problems))
    return fingerprint(result)


def _work_counts(result, sends: Optional[int]) -> Dict[str, float]:
    summary, engine = result.summary, result.engine
    forwards = summary.num_forwardings
    return {
        "dtn.contacts": engine.num_contacts,
        "dtn.messages": engine.num_messages_created,
        "pubsub.forwards": forwards,
        "pubsub.deliveries": summary.num_deliveries,
        "pubsub.useful_forward_ratio": (
            summary.num_intended_deliveries / forwards if forwards else 0.0
        ),
        "pubsub.false_injection_ratio": summary.false_injection_ratio,
        "dtn.channel.refused_ratio": (
            engine.refused_transfers / sends if sends else 0.0
        ),
    }


def _timed_run(build, spec: ExperimentSpec):
    """Builds a trace with *build* and runs :func:`repro.api.run` on it.

    Returns (trace, result, set-up seconds, run seconds): the set-up is
    the build plus the runner's ``setup`` phase, the run its ``simulate``
    and ``summarize`` phases.
    """
    gc.collect()
    started = time.perf_counter()
    trace = build()
    built = time.perf_counter() - started
    timers = PhaseTimers()
    result = run(trace, spec, obs=Observability(timers=timers))
    return (trace, result, built + timers.elapsed("setup"),
            timers.elapsed("simulate") + timers.elapsed("summarize"))


class _ContactStamps:
    """Stamps each contact as the engine hands it to the protocol."""

    def __init__(self):
        self.marks: List[float] = []
        self._original = None

    def __enter__(self) -> "_ContactStamps":
        original = self._original = BsubProtocol.on_contact
        marks, stamp = self.marks, time.perf_counter

        def on_contact(protocol, *args, **kwargs):
            marks.append(stamp())
            return original(protocol, *args, **kwargs)

        BsubProtocol.on_contact = on_contact
        return self

    def __exit__(self, *exc) -> None:
        BsubProtocol.on_contact = self._original

    def steps(self, elapsed: float) -> np.ndarray:
        """One run's step times: contact to contact, then the rest of
        its *elapsed* seconds (engine start, tail, summarize)."""
        marks = self.marks
        inner = np.diff(marks) if marks else np.empty(0)
        return np.append(inner, elapsed - (marks[-1] - marks[0] if marks else 0.0))


def _repeat(out: Outcome, workload: str, build, spec: ExperimentSpec,
            window: Window, fewest: int):
    """Timed runs, each on a trace *build* returns, while *window* asks
    for more (at least *fewest*); each must compute what the first did.
    Returns (last result, fingerprint, set-up seconds, run seconds, sum
    of the steps' fastest times)."""
    setups, times = [], []
    fastest = None
    digest = None
    with _ContactStamps() as stamps:
        while len(times) < fewest or window.more(
                None if fastest is None else float(fastest.sum())):
            stamps.marks.clear()
            trace, result, setup_s, elapsed = _timed_run(build, spec)
            setups.append(setup_s)
            times.append(elapsed)
            steps = stamps.steps(elapsed)
            out.attempted += 1
            got = _check(out, workload, trace, result)
            digest = digest or got
            out.check(got == digest,
                      f"{workload} run {len(times)} computed {got}, run 1 {digest}")
            if fastest is None:
                fastest = steps
            elif out.check(len(steps) == len(fastest),
                           f"{workload} run {len(times)} took other steps"):
                np.minimum(fastest, steps, out=fastest)
    return result, digest, setups, times, float(fastest.sum())


def run_workload(workload: str, seed: int, seconds: float, trace_run: bool,
                 span_path: Optional[str] = None, smoke: bool = False) -> Outcome:
    trace_params, spec_fields = SETTINGS[workload]
    if smoke:
        trace_over, spec_over = SMOKE[workload]
        trace_params = {**trace_params, **trace_over}
        spec_fields = {**spec_fields, **spec_over}
    spec = make_spec(spec_fields, seed)
    pinned = None if smoke else PINNED_FINGERPRINTS[workload].get(seed)
    out = Outcome()
    window = Window(seconds, None if smoke else workload)
    result, digest, setups, times, run_s = _repeat(
        out, workload, lambda: build_trace(trace_params), spec, window, MIN_REPS)
    if pinned is not None:
        out.check(digest == pinned, f"fingerprint {digest} != pinned {pinned}")
    elif not smoke:
        out.info["notes"] = [f"seed {seed} has no pinned fingerprint: "
                             "only the run's invariants were checked"]
    out.end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "deliveries_per_s": result.summary.num_deliveries / run_s,
    }
    out.layers["run_s.median"] = statistics.median(times)
    out.info.update(fingerprint=digest, setups_s=setups, runs_s=times,
                    messages=result.summary.num_messages,
                    deliveries=result.summary.num_deliveries,
                    delivery_ratio=result.summary.delivery_ratio,
                    run_s_spread=stats.summary(times)["spread"],
                    **window.close(run_s))
    if trace_run:
        result = None
        _traced(out, workload, seed, spec, trace_params, digest, run_s,
                span_path)
    out.layers["error_rate"] = out.error_rate
    return out


def _traced(out: Outcome, workload: str, seed: int, spec: ExperimentSpec,
            trace_params: dict, digest: str, untraced_run_s: float,
            span_path: Optional[str]) -> None:
    """The separate traced pass: every layer span plus work counts.

    Span totals cover ``TRACED_REPS`` runs; the work counts are one
    run's.
    """
    tracer = Tracer(run_id=f"{workload}-seed{seed}")
    layers.install_sim(tracer)
    build = tracer.wrap("traces.build", build_trace)
    try:
        result, traced, _setups, times, traced_run_s = _repeat(
            out, workload, lambda: build(trace_params), spec, Window(0.0),
            TRACED_REPS)
    finally:
        tracer.restore()
    out.check(traced == digest,
              "traced run computed a different result than the untraced run")
    out.layers.update(tracer.layer_metrics(catalog.SPANS))
    sends = tracer.counts.get("dtn.channel.send")
    out.layers.update(_work_counts(result, sends // len(times) if sends else sends))
    out.layers["trace.overhead"] = overhead(traced_run_s, untraced_run_s)
    out.info["spans_kept"] = len(tracer.spans)
    out.info["spans_dropped"] = tracer.dropped
    if span_path:
        tracer.write_jsonl(span_path)
