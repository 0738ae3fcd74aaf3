"""The four workloads: inputs, timed loops, oracle checks, layer metrics.

Every workload sends whole passes over a fixed base mix (see
``inputs.py``), in a seed-shuffled order with seed-salted spec names:
the plan's number of passes, and more until ``--seconds`` have passed.
The reference task of ``calibrate.py`` is timed between requests.
Oracle fronts and solo runs are computed after the timed region.

A traced run (``--trace 1``) sends one untraced pass and then one pass
with the layer wrappers of ``layers.py`` installed and a
``PhaseProfiler`` attached through ``telemetry=``; the layer metrics are
totals over the traced pass, and the ratio of the two passes is the
tracing overhead.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.io import json_io, result_io
from repro.store import diff as store_diff

from . import layers
from .calibrate import HostSpeed
from .inputs import base_document, salted
from .metrics import PER_LAYER, peak_rss_mb
from .oracle import Oracles, front_of
from .workers import spawn_workers, stop_workers

clock = time.perf_counter

#: Per workload: the base mix of one pass, the number of passes a run
#: sends (more only if ``--seconds`` have not passed), the tail
#: percentile, which falls inside one spec's samples, and whether times
#: are reported at nominal host speed (see calibrate.py).  Scaling is on
#: where the requests are the explore kernel in this process, which the
#: reference task resembles; service jobs (checkpoint and journal work)
#: and sharded requests (two worker processes) are reported as measured,
#: because scaling widened their run-to-run spread.
PLANS = {
    "cold_explore": dict(
        passes=4, tail=75, scaled=True,
        # Sorted by request time a pass reads automotive x2, settop x2,
        # s15_0 x3, s15_3, s15_4 x2, s15_1, s15_2: the median and the
        # tail percentile each fall in the middle of one spec's samples.
        mix=["s15_0", "s15_0", "s15_0", "s15_1", "s15_2", "s15_3",
             "s15_4", "s15_4", "settop", "settop", "automotive",
             "automotive"],
    ),
    "service_mix": dict(
        passes=3, tail=75, scaled=False,
        # One job due every interval (nominal seconds, see drive()); each
        # takes less, so a job waits only when the service slows down.
        # The median falls inside the 12-unit jobs' samples.
        mix=["automotive"] + ["s12_0"] * 5,
        interval=1.1,
        # Submitted at once after the open phase drains; the 15-unit
        # job spans several 32-evaluation slices.
        burst=["s15_0", "settop", "settop", "s12_0", "s12_0",
               "automotive", "automotive"],
    ),
    "edit_chain": dict(
        passes=4, tail=80, scaled=True, base="s15_0",
        # Edit kinds by position; the seed picks what each one changes.
        edits=["latency", "cost", "latency", "structural", "latency",
               "cost"],
    ),
    "sharded_remote": dict(
        passes=3, tail=60, scaled=False,
        # Sorted by request time a pass reads s12_0 (about 1 s), then
        # s12_3 and settop (about 2 s) and s15_0 (about 5 s): the median
        # and the tail fall among the 2-second requests.
        mix=["s12_0", "s12_3", "settop", "s15_0"],
    ),
}

PHASES = ("enumerate", "filter", "estimate", "pareto", "dispatch")


def table_keys() -> List[str]:
    """Base documents whose oracle fronts ``oracles.json`` keeps."""
    keys = set()
    for plan in PLANS.values():
        keys.update(plan.get("mix", ()))
        keys.update(plan.get("burst", ()))
        if "base" in plan:
            keys.add(plan["base"])
    keys.discard("settop")  # read from tests/golden
    return sorted(keys)


def first_document_key(workload: str) -> str:
    plan = PLANS[workload]
    return plan.get("base") or plan["mix"][0]


class Request:
    """One finished request and what checking it needs (the result
    itself is not kept, so the benchmark's heap stays small)."""

    __slots__ = ("label", "key", "document", "completed", "front",
                 "points", "stats", "latency", "explored", "solo",
                 "started")

    def __init__(self, label, key, document, result, latency, explored,
                 solo=False, started=0.0):
        self.label = label
        #: Oracle key; ``document`` is a document with that front.
        self.key = key
        self.document = document
        self.completed = result.completed
        self.front = front_of(result)
        self.points = points(result)
        self.stats = result.stats
        self.latency = latency
        self.explored = explored
        #: Also compare the points with a solo run of ``key``.
        self.solo = solo
        #: When the latency started counting (clock seconds).
        self.started = started


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.requests: List[Request] = []
        #: The requests whose latencies the latency metrics summarise.
        self.timed: List[Request] = []
        self.attempted = 0
        self.failures: List[str] = []
        #: service_mix's burst: (jobs, start, seconds to drain).
        self.burst: Optional[Tuple[int, float, float]] = None
        self.peak_rss_mb = 0.0
        self.layer: Dict[str, float] = {}
        self.report: Dict[str, Any] = {}

    @property
    def candidates(self) -> int:
        return sum(r.stats.candidates_enumerated for r in self.requests)

    def fail(self, message: str) -> None:
        """Record a failure as ``"<request label>: <what>"``."""
        self.failures.append(message)

    @property
    def failed(self) -> int:
        """Requests (or run-level checks) with at least one failure."""
        return len({m.split(": ", 1)[0] for m in self.failures})


class Context:
    """Run parameters and per-run state shared by the workloads."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: str,
                 passes: Optional[int] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.fixed_passes = passes
        self.plan = PLANS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.oracles = Oracles()
        self.speed = HostSpeed()
        self._bases: Dict[str, Dict[str, Any]] = {}
        self._solo: Dict[str, Tuple[Any, float]] = {}

    def base(self, key: str) -> Dict[str, Any]:
        if key not in self._bases:
            self._bases[key] = base_document(key)
        return self._bases[key]

    def order(self, mix: List[str]) -> List[str]:
        order = list(mix)
        self.rng.shuffle(order)
        return order

    def salt(self, *parts) -> str:
        return "-".join(str(p) for p in (self.seed,) + parts)

    def tmp(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def solo(self, key: str):
        """(result, seconds) of a solo cold explore of base ``key``."""
        if key not in self._solo:
            self._solo[key] = solo(self.base(key))
        return self._solo[key]

    def passes_done(self, started: float, done: int) -> bool:
        if self.fixed_passes is not None:
            return done >= self.fixed_passes
        return (done >= self.plan["passes"]
                and clock() - started >= self.seconds)


def solo(document: Dict[str, Any]):
    """A cold explore of a fresh spec object: (result, seconds)."""
    spec = json_io.spec_from_dict(document)
    started = clock()
    result = repro.explore(spec)
    return result, clock() - started


def points(result):
    """The front's points with their unit sets."""
    return [(p.cost, p.flexibility, tuple(sorted(p.units)))
            for p in result.points]


def verify(ctx: Context, out: Outcome) -> None:
    """Check every request against its oracle (and solo run)."""
    for request in out.requests:
        if not request.completed:
            out.fail(f"{request.label}: result not completed")
            continue
        oracle = ctx.oracles.front(request.key, request.document)
        if request.front != list(oracle):
            out.fail(f"{request.label}: front {request.front} != "
                     f"oracle {list(oracle)}")
        elif request.solo and (
                request.points != points(ctx.solo(request.key)[0])):
            out.fail(f"{request.label}: differs from the solo run")


def dir_bytes(path: str, suffix: str = "") -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            if name.endswith(suffix):
                total += os.path.getsize(os.path.join(root, name))
    return total


def closed_loop(ctx: Context, out: Outcome,
                send_pass: Callable[[Any, Any], List[Request]]) -> None:
    """Untraced run: whole passes until the run is long enough."""
    started = clock()
    done = 0
    while not ctx.passes_done(started, done):
        requests = send_pass(done, None)
        out.requests += requests
        done += 1
    out.peak_rss_mb = peak_rss_mb()
    out.timed = list(out.requests)
    out.report.update(passes=done, span_s=clock() - started)


def traced_passes(ctx: Context, out: Outcome,
                  send_pass: Callable[[Any, Any], Any]):
    """One untraced pass, then one traced pass.

    Returns (untraced requests, traced requests, spans, phase totals).
    """
    from repro.telemetry import PhaseProfiler

    untraced = send_pass("untraced", None)
    spans = layers.Spans()
    profiler = PhaseProfiler()
    uninstall = layers.install(spans)
    try:
        traced = send_pass("traced", profiler)
    finally:
        uninstall()
    out.requests = list(untraced) + list(traced)
    out.layer["bench.tracing_overhead"] = (
        sum(r.latency for r in traced) / sum(r.latency for r in untraced))
    return untraced, traced, spans, profiler.totals()


def layer_metrics(out: Outcome, spans: "layers.Spans",
                  phases: Dict[str, Dict[str, float]],
                  traced: List[Request]) -> None:
    """Layer metrics every workload reports; zero where unexercised."""
    layer = out.layer
    for name in PER_LAYER:
        layer.setdefault(name, 0.0)
    for metric, span in (
        ("io.spec_load_s", "io.spec_load"),
        ("io.result_dump_s", "io.result_dump"),
        ("compiled.compile_s", "compiled.compile"),
        ("compiled.evaluate_s", "compiled.evaluate"),
        ("store.diff_s", "store.diff"),
        ("store.invalidate_s", "store.invalidate"),
        ("resilience.resume_s", "resilience.resume"),
        ("resilience.checkpoint_load_s", "resilience.checkpoint_load"),
        ("distributed.partition_s", "distributed.partition"),
    ):
        layer[metric] = spans.total.get(span, 0.0)
    layer["compiled.evaluate_calls"] = spans.calls.get(
        "compiled.evaluate", 0)
    layer["parallel.batched_s"] = spans.self_time.get(
        "parallel.batched", 0.0)
    for name in PHASES:
        layer[f"core.{name}_s"] = float(
            phases.get(name, {}).get("seconds", 0.0))
    stats = [r.stats for r in traced]
    hits = sum(s.memo_hits for s in stats)
    misses = sum(s.memo_misses for s in stats)
    invocations = sum(s.solver_invocations for s in stats)
    layer["compiled.verdict_misses"] = misses
    layer["compiled.memo_hit_ratio"] = hits / max(1, hits + misses)
    layer["compiled.solver_invocations"] = invocations
    layer["core.useful_ratio"] = sum(
        s.feasible_implementations for s in stats) / max(1, invocations)
    layer["resilience.checkpoints_written"] = sum(
        s.checkpoints_written for s in stats)


def store_metrics(out: Outcome, store) -> None:
    """Warm-store metrics from the store's own lifetime counters (a
    result's cache counters cover only its last service slice)."""
    counters = store.counters()
    out.layer["store.warm_hit_ratio"] = counters["hits"] / max(
        1, counters["hits"] + counters["misses"])
    out.layer["store.warm_writes"] = counters["writes"]
    out.layer["store.bytes"] = dir_bytes(store.root)


def unaccounted(out: Outcome, wall: float, parts) -> float:
    """Set ``core.unaccounted_s`` to the part of ``wall`` the layer
    metrics ``parts`` leave over; returns it as a share of ``wall``."""
    layer = out.layer
    layer["core.unaccounted_s"] = max(
        0.0, wall - sum(layer[name] for name in parts))
    out.report["unaccounted_share"] = layer["core.unaccounted_s"] / wall
    return out.report["unaccounted_share"]


#: The serial explore loop: phases, compile and the verdict path.
EXPLORE_PARTS = [f"core.{name}_s" for name in PHASES] + [
    "compiled.compile_s", "compiled.evaluate_s"]


# ----------------------------------------------------------------------
# cold_explore: the CLI path, closed loop, one client.
# ----------------------------------------------------------------------

def explore_request(ctx: Context, label: str, key: str, document,
                    profiler=None) -> Request:
    """spec document -> explore() with defaults -> result document."""
    started = clock()
    spec = json_io.spec_from_dict(document)
    explore_started = clock()
    result = repro.explore(spec, telemetry=profiler)
    explored = clock() - explore_started
    result_io.result_to_dict(result)
    return Request(label, key, ctx.base(key), result, clock() - started,
                   explored, started=started)


def cold_explore(ctx: Context) -> Outcome:
    out = Outcome()

    def send_pass(index, profiler):
        requests = []
        for i, key in enumerate(ctx.order(ctx.plan["mix"])):
            document = salted(ctx.base(key), ctx.salt(index, i))
            label = f"pass {index} #{i} {key}"
            ctx.speed.sample()
            out.attempted += 1
            try:
                requests.append(explore_request(
                    ctx, label, key, document, profiler))
            except repro.ReproError as error:
                out.fail(f"{label}: {error!r}")
        return requests

    if not ctx.trace:
        closed_loop(ctx, out, send_pass)
        return out
    _, traced, spans, phases = traced_passes(ctx, out, send_pass)
    layer_metrics(out, spans, phases, traced)
    share = unaccounted(out, sum(r.explored for r in traced), EXPLORE_PARTS)
    if share > 0.05:
        out.fail(f"core.unaccounted_s is {share:.1%} of explore wall "
                 f"time (limit 5%)")
    # Ladder: the first synthetic spec of the mix, each run on a fresh
    # object, scalar kernel (REPRO_VECTORIZE=0) against the default.
    key = next(k for k in ctx.plan["mix"] if k.startswith("s"))
    default_s = solo(salted(ctx.base(key), ctx.salt("vector")))[1]
    previous = os.environ.get("REPRO_VECTORIZE")
    os.environ["REPRO_VECTORIZE"] = "0"
    try:
        scalar_s = solo(salted(ctx.base(key), ctx.salt("scalar")))[1]
    finally:
        if previous is None:
            del os.environ["REPRO_VECTORIZE"]
        else:
            os.environ["REPRO_VECTORIZE"] = previous
    out.layer["compiled.scalar_ratio"] = scalar_s / default_s
    return out


# ----------------------------------------------------------------------
# edit_chain: a designer iterating on one spec with an on-disk store.
# ----------------------------------------------------------------------

def edit_chain_edits(ctx: Context, base: Dict[str, Any]) -> List[Tuple]:
    """The seeded chain of (kind, payload) edits, kinds as planned.

    ``latency`` and ``cost`` edits rescale one mapping latency
    (``with_latency``) or one accelerator or bus cost
    (``with_unit_costs``); the ``structural`` edit drops one of the two
    accelerator mappings of a process, so the store starts a new
    namespace.

    Two kinds of edit are left out because they turn a warm re-explore
    into a search several times longer than the cold run, which would
    make the workload's cost a matter of the seed.  A processor price
    change (every candidate holds a processor) reorders the whole search:
    one made a run's re-explores about 30 times slower.  Dropping a
    process's only accelerator mapping makes the top flexibility
    unreachable, so the search runs through all 2^15 candidates (7 s
    instead of 0.9 s).
    """
    spec = json_io.spec_from_dict(base)
    mappings = [(m["process"], m["resource"], m["latency"])
                for m in base["mappings"]]
    units = sorted(u for u in spec.units.names() if not u.startswith("proc"))
    hosts: Dict[str, List[str]] = {}
    for process, resource, _ in mappings:
        if resource.startswith("acc"):
            hosts.setdefault(process, []).append(resource)
    droppable = sorted((process, resource)
                       for process, resources in hosts.items()
                       if len(resources) > 1 for resource in resources)
    chain = []
    for kind in ctx.plan["edits"]:
        if kind == "structural":
            chain.append((kind, ctx.rng.choice(droppable)))
        elif kind == "latency":
            process, resource, latency = ctx.rng.choice(mappings)
            factor = ctx.rng.choice((0.8, 0.9, 1.1, 1.25))
            chain.append((kind, ((process, resource),
                                 round(latency * factor, 3))))
        else:
            unit = ctx.rng.choice(units)
            factor = ctx.rng.choice((0.9, 1.1))
            chain.append((kind, (unit, round(
                spec.units.unit(unit).cost * factor, 3))))
    return chain


def apply_edit(spec, edit):
    from repro.analysis import with_latency, with_unit_costs

    kind, payload = edit
    if kind == "latency":
        pair, value = payload
        return with_latency(spec, {pair: value})
    if kind == "cost":
        unit, value = payload
        return with_unit_costs(spec, {unit: value})
    process, resource = payload
    document = json_io.spec_to_dict(spec)
    document["mappings"] = [
        m for m in document["mappings"]
        if (m["process"], m["resource"]) != (process, resource)
    ]
    return json_io.spec_from_dict(document)


def edit_chain(ctx: Context) -> Outcome:
    from repro.store import open_store

    out = Outcome()
    base = ctx.base(ctx.plan["base"])
    chain = edit_chain_edits(ctx, base)
    out.report["chain"] = [[str(part) for part in e] for e in chain]
    stores: Dict[Any, Any] = {}
    local: Dict[Any, List[Request]] = {}

    def send_pass(index, profiler):
        # A fresh store and a salted base: every pass starts cold.
        store_dir = ctx.tmp(f"store-{index}")
        store = stores[index] = open_store(store_dir)
        document = salted(base, ctx.salt(index))
        requests = []
        spec = None
        for position, edit in enumerate([None] + chain):
            label = f"pass {index} edit {position} {edit and edit[0]}"
            ctx.speed.sample()
            out.attempted += 1
            started = clock()
            try:
                if edit is None:
                    new_spec = json_io.spec_from_dict(document)
                else:
                    new_spec = apply_edit(spec, edit)
                    change = store_diff.diff_specs(spec, new_spec)
                    store_diff.invalidate(store, spec, new_spec, change)
                explore_started = clock()
                result = repro.explore(new_spec, warm_store=store_dir,
                                       telemetry=profiler)
                explored = clock() - explore_started
                result_io.result_to_dict(result)
            except repro.ReproError as error:
                out.fail(f"{label}: {error!r}")
                break
            latency = clock() - started
            request = Request(
                label, f"edit{position}" if edit else ctx.plan["base"],
                json_io.spec_to_dict(new_spec) if edit else base, result,
                latency, explored, started=started)
            requests.append(request)
            if edit is not None and edit[0] != "structural":
                local.setdefault(index, []).append(request)
            spec = new_spec
        return requests

    if not ctx.trace:
        closed_loop(ctx, out, send_pass)
        return out
    untraced, traced, spans, phases = traced_passes(ctx, out, send_pass)
    layer_metrics(out, spans, phases, traced)
    unaccounted(out, sum(r.explored for r in traced), EXPLORE_PARTS)
    store_metrics(out, stores["traced"])
    # Ladder: each untraced latency/cost edit request against a
    # store-off cold explore of a fresh object of the same document.
    warm = local["untraced"]
    out.layer["store.warm_ratio"] = sum(r.latency for r in warm) / sum(
        solo(r.document)[1] for r in warm)
    return out


# ----------------------------------------------------------------------
# service_mix: open loop into one ExplorationService, then a burst.
# ----------------------------------------------------------------------

TERMINAL = ("completed", "failed", "cancelled")


def drive(service, arrivals, interval: float, runtimes: Dict[str, float],
          lateness: List[float], speed: HostSpeed) -> List[Tuple]:
    """Submit ``arrivals`` = [(key, document)] one every ``interval``
    nominal seconds (0: all at once) between ``step()`` calls, and step
    until every job is terminal.

    The offered rate is fixed at nominal host speed: each gap is
    ``interval`` times the speed factor of the latest samples, so a slow
    period of the host does not overload the service, while a slower
    service still builds a queue.  Returns [(key, document, job, due,
    finished)]; ``runtimes`` gets each job's summed slice time,
    ``lateness`` each submission's delay past its due time.
    """
    pending = list(arrivals)
    live: Dict[str, Tuple] = {}
    finished_jobs = []
    due = clock()
    while pending or live:
        now = clock()
        while pending and due <= now:
            key, document = pending.pop(0)
            lateness.append(now - due)
            job = service.submit(json_io.spec_from_dict(document), name=key)
            live[job.job_id] = (key, document, job, due)
            due += interval * speed.recent()
        started = clock()
        job_id = service.step()
        finished = clock()
        speed.sample()
        if job_id is None:
            if pending:
                time.sleep(max(0.0, due - clock()))
            continue
        runtimes[job_id] = runtimes.get(job_id, 0.0) + finished - started
        if live[job_id][2].state in TERMINAL:
            key, document, job, job_due = live.pop(job_id)
            finished_jobs.append((key, document, job, job_due, finished))
    return finished_jobs


def service_requests(ctx: Context, service, out: Outcome, label: str,
                     jobs, runtimes) -> List[Request]:
    requests = []
    for key, document, job, due, finished in jobs:
        out.attempted += 1
        if job.state != "completed":
            out.fail(f"{label} {key} {job.job_id}: {job.state} "
                     f"{job.error or ''}")
            continue
        result = service.result(job.job_id)
        result_io.result_to_dict(result)
        requests.append(Request(
            f"{label} {key} {job.job_id}", key, ctx.base(key), result,
            finished - due, runtimes[job.job_id], solo=True, started=due))
    return requests


def service_mix(ctx: Context) -> Outcome:
    from repro.service import ExplorationService
    from repro.store import open_store

    out = Outcome()
    plan = ctx.plan
    lateness: List[float] = []

    def open_phase(service, index):
        arrivals = [
            (key, salted(ctx.base(key), ctx.salt(index, i)))
            for i, key in enumerate(ctx.order(plan["mix"]))
        ]
        runtimes: Dict[str, float] = {}
        jobs = drive(service, arrivals, plan["interval"], runtimes,
                     lateness, ctx.speed)
        return service_requests(ctx, service, out, f"pass {index}", jobs,
                                runtimes)

    if not ctx.trace:
        service = ExplorationService(ctx.tmp("service"))
        try:
            started = clock()
            done = 0
            while not ctx.passes_done(started, done):
                out.requests += open_phase(service, done)
                done += 1
            out.timed = list(out.requests)
            burst_start = clock()
            runtimes: Dict[str, float] = {}
            jobs = drive(service, [
                (key, salted(ctx.base(key), ctx.salt("burst", i)))
                for i, key in enumerate(ctx.order(plan["burst"]))
            ], 0.0, runtimes, [], ctx.speed)
            burst_span = clock() - burst_start
            out.peak_rss_mb = peak_rss_mb()
            out.requests += service_requests(ctx, service, out, "burst",
                                             jobs, runtimes)
        finally:
            service.close()
        out.burst = (len(jobs), burst_start, burst_span)
        out.report.update(passes=done, burst_span_s=burst_span,
                          gen_late_max_s=max(lateness))
        return out

    def send_pass(tag, profiler):
        service = ExplorationService(ctx.tmp(f"service-{tag}"))
        try:
            requests = open_phase(service, tag)
            if profiler is not None:
                # The service's phases ride its own profiler.
                for phase, entry in (
                        service.telemetry.profiler.totals().items()):
                    profiler.charge(phase, entry["seconds"])
                layer = out.layer
                layer["service.queue_wait_s"] = service.m_wait.sum
                layer["service.slice_s"] = service.m_slice_time.sum
                layer["service.slices"] = service.m_slices.value
                layer["service.preemptions"] = service.m_preemptions.value
                layer["resilience.journal_bytes"] = dir_bytes(
                    service.directory, ".checkpoint")
                store_metrics(out, open_store(service.warm_store))
        finally:
            service.close()
        return requests

    untraced, traced, spans, phases = traced_passes(ctx, out, send_pass)
    # Tracing overhead and the ladder compare job runtimes (slice time),
    # not latencies, which include the offered-rate gaps.
    out.layer["bench.tracing_overhead"] = (
        sum(r.explored for r in traced) / sum(r.explored for r in untraced))
    layer_metrics(out, spans, phases, traced)
    # Slices run inline under "dispatch" (which holds the evaluate
    # calls); resumes reload their checkpoint first.
    unaccounted(out, sum(r.explored for r in traced), [
        f"core.{name}_s" for name in PHASES] + [
        "compiled.compile_s", "resilience.checkpoint_load_s"])
    out.layer["bench.gen_late_s"] = max(lateness)
    out.layer["service.overhead_ratio"] = sum(
        r.explored for r in untraced) / sum(
        solo(r.document)[1] for r in untraced)
    return out


# ----------------------------------------------------------------------
# sharded_remote: two shard-worker processes, remote dispatch.
# ----------------------------------------------------------------------

def sharded_remote(ctx: Context) -> Outcome:
    from repro.distributed import explore_sharded

    out = Outcome()
    runs: Dict[Any, List] = {}
    processes, addresses = spawn_workers(ctx.tmp("workers"))

    def send_pass(index, profiler):
        requests = []
        for i, key in enumerate(ctx.order(ctx.plan["mix"])):
            document = salted(ctx.base(key), ctx.salt(index, i))
            label = f"pass {index} #{i} {key}"
            ctx.speed.sample()
            out.attempted += 1
            started = clock()
            try:
                spec = json_io.spec_from_dict(document)
                run = explore_sharded(
                    spec, shards=2, mode="remote", workers=addresses,
                    workdir=ctx.tmp(f"coordinator-{index}-{i}"),
                )
                result_io.result_to_dict(run.result)
            except repro.ReproError as error:
                out.fail(f"{label}: {error!r}")
                continue
            latency = clock() - started
            if run.lost_shards:
                out.fail(f"{label}: lost shards {run.lost_shards}")
            runs.setdefault(index, []).append(
                (run.outcomes, run.merge_seconds))
            requests.append(Request(label, key, ctx.base(key), run.result,
                                    latency, latency, solo=True,
                                    started=started))
        return requests

    try:
        if not ctx.trace:
            closed_loop(ctx, out, send_pass)
        else:
            untraced, traced, spans, phases = traced_passes(
                ctx, out, send_pass)
    finally:
        stop_workers(processes)
    worker_rss: Dict[str, float] = {}
    for outcome in (o for rs in runs.values() for outcomes, _ in rs
                    for o in outcomes):
        rss = outcome.resources.get("rss_max_bytes", 0) / 1048576.0
        worker_rss[outcome.worker] = max(
            worker_rss.get(outcome.worker, 0.0), rss)
    if not ctx.trace:
        out.peak_rss_mb += sum(worker_rss.values())
        out.report["worker_rss_mb"] = worker_rss
        return out
    layer_metrics(out, spans, phases, traced)
    traced_runs = runs["traced"]
    shards = [o for outcomes, _ in traced_runs for o in outcomes]
    layer = out.layer
    layer["distributed.shard_s_max"] = sum(
        max(o.elapsed_seconds for o in outcomes)
        for outcomes, _ in traced_runs)
    layer["distributed.shard_s_sum"] = sum(o.elapsed_seconds for o in shards)
    layer["distributed.merge_s"] = sum(merge for _, merge in traced_runs)
    layer["distributed.heartbeats"] = sum(o.heartbeats for o in shards)
    layer["distributed.attempts"] = sum(o.attempts for o in shards)
    layer["distributed.worker_rss_mb"] = max(worker_rss.values(),
                                             default=0.0)
    # What partition, the slowest shard and the merge leave over is the
    # wire and dispatch overhead.
    unaccounted(out, sum(r.latency for r in traced), [
        "io.spec_load_s", "io.result_dump_s", "distributed.partition_s",
        "distributed.shard_s_max", "distributed.merge_s"])
    layer["distributed.overhead_ratio"] = sum(
        r.latency for r in untraced) / sum(
        solo(r.document)[1] for r in untraced)
    return out


WORKLOADS = {
    "cold_explore": cold_explore,
    "service_mix": service_mix,
    "edit_chain": edit_chain,
    "sharded_remote": sharded_remote,
}


def run(ctx: Context) -> Outcome:
    """Run the workload, then check every request off the clock."""
    out = WORKLOADS[ctx.workload](ctx)
    verify(ctx, out)
    out.report["oracles_computed_live"] = ctx.oracles.computed_live
    return out
