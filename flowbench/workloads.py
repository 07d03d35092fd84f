"""The three workloads of the end-to-end benchmark.

Each workload sets up its inputs (timed, repeated, median kept), then
runs passes of a fixed amount of work, in units (a case or a serve
cycle), until ``seconds`` of pass time have been measured, and checks
every unit's output outside the timed region.  A workload returns an
:class:`Outcome`: the operations attempted, the checks that failed,
and the metrics it measured, named as in ``BENCHMARK.json``.

* ``flow_route`` -- bulk routing: LEF/DEF parse, PAAF, IO access,
  detailed routing and routed-DRC scoring of two fixed cases.
* ``analyze_corpus`` -- the oracle alone: LEF/DEF parse, PAAF and IO
  access over the six qa golden cases.
* ``serve_eco`` -- incremental use: a closed-loop client reads access
  answers from an in-process daemon while it toggles placements.

Between measured units, a :class:`~hostspeed.HostProbe` times a fixed
reference workload, and the end-to-end times are reported at the
reference host speed, so that the shared host's drift divides out.

Traced runs alternate traced and untraced passes, so one run gives
both the per-layer split and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from repro.bench import build_case
from repro.core import PaafConfig, PinAccessFramework
from repro.core.ioaccess import IoPinAccess
from repro.core.oracle import UnknownInstanceError, UnknownPinError
from repro.geom.rect import Rect
from repro.lefdef import parse_def, parse_lef, write_def, write_lef
from repro.qa.golden import (
    GoldenMismatch,
    case_id,
    load_golden,
    verify_result,
)
from repro.route.router import DetailedRouter, count_route_drcs
from repro.serve import DesignSession, OracleClient, OracleServer
from repro.serve.client import ServerError

from hostspeed import HostProbe
from tracing import GcMeter, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: flow_route: the cases whose routing finishes in seconds and whose
#: routed results ``goldens/compare/`` pins (ispd18_test8@0.002 routes
#: for ~37 s with failed nets, so it stays out).
FLOW_CASES = (("ispd18_test5", 0.002), ("aes_14nm", 0.01))
#: analyze_corpus: the qa golden corpus, adversarial pin zoo included.
CORPUS_CASES = (
    ("ispd18_test1", 0.004),
    ("ispd18_test5", 0.002),
    ("ispd18_test8", 0.002),
    ("pinzoo_sram", 1.0),
    ("pinzoo_io", 1.0),
    ("pinzoo_hostile", 1.0),
)
#: serve_eco: 288 instances, 762 signal pins.
SERVE_CASE = ("ispd18_test5", 0.004)

#: Set-up repeats until it has run this long, and at least
#: SETUP_MIN_REPEATS times; setup_s is the median of all repeats.
SETUP_WINDOW_S = 2.0
SETUP_MIN_REPEATS = 5
#: The host's speed drifts over seconds, more than the window above
#: can average out.  So the pass workloads also repeat their set-up
#: between passes, for this share of the pass time, and their setup_s
#: samples the whole run, as pass_s does.
SETUP_SHARE = 0.1

#: One serve_eco cycle: 10 queries, 9 batches, 1 move.
CYCLE = ("query", "query_batch") * 9 + ("query", "move_instance")
BATCH_PINS = 64
MOVE_SITES = 8
#: 100 cycles give 1000 queries and 100 moves, so p99 of queries and
#: p90 of moves each have ten samples beyond them.
MIN_CYCLES = 100

#: The compare-golden fields a routed case must reproduce exactly.
FLOW_GOLDEN_KEYS = (
    "routing.routed_nets",
    "routing.failed_nets",
    "routing.unconnected_terms",
    "routing.wires",
    "routing.vias",
    "routing.wirelength",
    "drc.pin_access_total",
    "drc.pin_access",
    "drc.full_total",
    "drc.full",
)

#: What the client raises for an error envelope.
SERVE_ERRORS = (ServerError, UnknownInstanceError, UnknownPinError)

_UNTRACED = Tracer(enabled=False)


@dataclass
class Outcome:
    """What one workload run did: operations, failed checks, metrics."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def check(self, ok: bool, check: str, detail: str) -> None:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append((check, detail))


# -- shared steps -------------------------------------------------------------


def emit_texts(cases) -> list:
    """Generate each case and return its ``(case id, LEF, DEF)`` text."""
    out = []
    for testcase, scale in cases:
        design = build_case(testcase, scale=scale)
        lef = write_lef(design.tech, list(design.masters.values()))
        out.append((case_id(testcase, scale), lef, write_def(design)))
    return out


class SetupClock:
    """Times the repeats of a workload's set-up; ``median`` is its
    median wall time.

    Each value but the one kept is handed to ``discard``, outside the
    timed region, before the next repeat.  ``probe`` times the
    reference work after each repeat.
    """

    def __init__(self, make, probe, discard=None):
        self.make = make
        self.probe = probe
        self.discard = discard
        self.times = []
        self.owed = 0.0

    def _once(self):
        t0 = time.perf_counter()
        value = self.make()
        self.times.append(time.perf_counter() - t0)
        self.probe.between(self.times[-1])
        return value

    def first(self):
        """Repeat over the set-up window; return the last value."""
        value = self._once()
        while (
            len(self.times) < SETUP_MIN_REPEATS
            or sum(self.times) < SETUP_WINDOW_S
        ):
            if self.discard is not None:
                self.discard(value)
            value = self._once()
        return value

    def between(self, pass_s: float) -> None:
        """Repeat, dropping each value, for SETUP_SHARE of a pass."""
        self.owed += SETUP_SHARE * pass_s
        while self.owed >= self.median:
            value = self._once()
            if self.discard is not None:
                self.discard(value)
            self.owed -= self.times[-1]

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def parse_design(lef: str, def_text: str):
    tech, masters = parse_lef(lef)
    return parse_def(def_text, tech, masters)


def analyze_case(text, tracer) -> dict:
    """Parse one case and run PAAF and IO access on it."""
    case, lef, def_text = text
    with tracer.span("lefdef.parse", case=case):
        design = parse_design(lef, def_text)
    config = PaafConfig()
    with tracer.span("core.paaf", case=case):
        result = PinAccessFramework(design, config).run()
        access = result.access_map()
    with tracer.span("core.io", case=case):
        io_aps = IoPinAccess(design, config).run()
        io_map = {name: aps[0] for name, aps in io_aps.items() if aps}
    return {
        "case": case,
        "bytes": len(lef) + len(def_text),
        "design": design,
        "result": result,
        "access": access,
        "io_map": io_map,
    }


def analysis_counts(out) -> Counter:
    """One case's lefdef/core counters and PAAF step times."""
    result = out["result"]
    counts = Counter(
        {
            "lefdef.bytes": out["bytes"],
            "core.unique_instances": result.num_unique_instances,
            "core.access_points": result.total_access_points,
            "drc.pairkernel_tables": result.stats["pairkernel.tables"],
            "drc.arraykernel_tables": result.stats["arraykernel.tables"],
            "core.io_pins_covered": len(out["io_map"]),
        }
    )
    for step in ("step1", "step2", "step3"):
        counts[f"core.{step}_s"] = result.timings[step]
    return counts


def measure_passes(
    seconds, trace, units, after_unit, setup, probe, minimum=1
):
    """Run passes until ``seconds`` of pass time; return the records.

    A pass runs each of ``units`` in turn; ``unit(tracer)`` is a timed
    unit of work.  Once its clock has stopped, ``after_unit`` checks
    the unit's output and reduces it to per-layer counts, and
    ``probe`` times the reference work, so that the reference samples
    the host during the pass and not only between passes.  Each
    record is ``(trace id or None, seconds, counts)``, summed over the
    pass's units.  In a traced run even passes are traced and odd
    ones are not, and at least two passes run, so the two kinds can
    be compared; each unit of a traced pass is a root span ``pass``
    with the pass's trace id.  The GC meter counts inside units only.
    At least ``minimum`` passes run.  Between passes, ``setup`` (a
    :class:`SetupClock`, or None) repeats the set-up.
    """
    tracer = Tracer(enabled=True)
    meter = GcMeter(enabled=trace)
    records = []
    spent = 0.0
    minimum = max(minimum, 2) if trace else minimum
    while len(records) < minimum or spent < seconds:
        n = len(records)
        trace_id = f"pass{n}" if trace and n % 2 == 0 else None
        active = tracer if trace_id else _UNTRACED
        elapsed = 0.0
        counts = Counter()
        for unit in units:
            t0 = time.perf_counter()
            with meter, active.span("pass", trace=trace_id):
                output = unit(active)
            unit_s = time.perf_counter() - t0
            elapsed += unit_s
            counts.update(after_unit(output))
            # Free the output so the next unit runs (and collects
            # garbage) over the same live heap as this one.
            del output
            probe.between(unit_s)
        spent += elapsed
        records.append((trace_id, elapsed, counts))
        if setup is not None:
            setup.between(elapsed)
    return records, tracer, meter


def median_rows(rows) -> dict:
    """Median of each key over the rows that carry it."""
    keys = {key for row in rows for key in row}
    return {
        key: statistics.median(row[key] for row in rows if key in row)
        for key in sorted(keys)
    }


def overhead_pct(traced: list, untraced: list) -> float:
    """Tracing overhead: traced minus untraced median, as a percentage."""
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


def gc_metrics(meter, passes: int) -> dict:
    return {
        "runtime.gc_pause_ms": 1e3 * meter.pause_s / passes,
        "runtime.gc_collections": meter.collections / passes,
    }


def host_metrics(wall_s: list, probe, setup) -> dict:
    """The end-to-end times at the reference host speed, and the raw
    wall times and reference time they were scaled from.

    ``pass_s`` is the mean untraced pass: it and the mean reference
    time both average over the whole run, so drift cancels in their
    ratio.  ``setup_s`` is the median set-up, scaled alike.
    """
    scale = probe.scale
    return {
        "pass_s": statistics.fmean(wall_s) * scale,
        "setup_s": setup.median * scale,
        "host.pass_wall_s": statistics.fmean(wall_s),
        "host.setup_wall_s": setup.median,
        "host.reference_ms": 1e3 * statistics.fmean(probe.times),
    }


def pass_metrics(records, tracer, meter, probe, setup) -> dict:
    """End-to-end and per-layer metrics of a pass-based workload.

    Layer times are self times of the layer spans (``x.y`` becomes
    ``x.y_s``) summed over a traced pass; the root span's self time is
    the pass time no layer span covers.  Each layer metric is the
    median over passes, in wall time.
    """
    self_times = tracer.self_times()
    times = {True: [], False: []}
    rows = []
    for trace_id, elapsed, counts in records:
        times[trace_id is not None].append(elapsed)
        row = dict(counts)
        if trace_id is not None:
            by_name = self_times[trace_id]
            row["trace.unattributed_s"] = by_name.pop("pass")
            row.update({f"{name}_s": s for name, s in by_name.items()})
            steps = sum(row[f"core.step{k}_s"] for k in (1, 2, 3))
            row["core.prepare_s"] = row["core.paaf_s"] - steps
        rows.append(row)
    metrics = median_rows(rows)
    metrics.update(host_metrics(times[False], probe, setup))
    if times[True]:
        metrics["trace.overhead_pct"] = overhead_pct(times[True], times[False])
        metrics.update(gc_metrics(meter, len(records)))
    return metrics


def write_trace(tracer, out_dir, workload, seed, meta) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
    tracer.write(path, dict(meta, workload=workload, seed=seed))


# -- flow_route ---------------------------------------------------------------


def flow_route(
    seed: int, seconds: float, trace: bool, out_dir: str
) -> Outcome:
    """Bulk routing of the fixed flow cases, layer by layer."""
    probe = HostProbe()
    setup = SetupClock(lambda: emit_texts(FLOW_CASES), probe)
    texts = setup.first()
    goldens = {}
    for case, _, _ in texts:
        path = os.path.join(ROOT, "goldens", "compare", case + ".json")
        with open(path) as handle:
            goldens[case] = json.load(handle)["metrics"]["pao"]
    outcome = Outcome()

    def after_unit(out):
        counts = analysis_counts(out)
        routed = out["routed"]
        counts["route.nets_routed"] = routed.routed_nets
        counts["route.failed_nets"] = len(routed.failed_nets)
        counts["route.wires"] = len(routed.wires)
        counts["route.vias"] = len(routed.vias)
        counts["drc.violations_full"] = len(out["full"])
        _check_flow(out, goldens[out["case"]], outcome)
        return counts

    units = [partial(route_case, text) for text in texts]
    records, tracer, meter = measure_passes(
        seconds, trace, units, after_unit, setup, probe
    )
    outcome.metrics = pass_metrics(records, tracer, meter, probe, setup)
    if trace:
        write_trace(
            tracer, out_dir, "flow_route", seed, {"cases": list(goldens)}
        )
    return outcome


def route_case(text, tracer) -> dict:
    """Analyze one case, then route it and score the routed DRCs."""
    out = analyze_case(text, tracer)
    design, case = out["design"], out["case"]
    with tracer.span("route.route", case=case):
        routed = DetailedRouter(design).route(
            dict(out["access"]), io_access=out["io_map"]
        )
    with tracer.span("drc.score_pin_access", case=case):
        pin_access = count_route_drcs(design, routed, "pin-access")
    with tracer.span("drc.score_full", case=case):
        full = count_route_drcs(design, routed, "full")
    out.update(routed=routed, pin_access=pin_access, full=full)
    return out


def _by_rule(violations) -> dict:
    return dict(sorted(Counter(v.rule for v in violations).items()))


def _check_flow(out, golden, outcome) -> None:
    routed = out["routed"]
    have = {
        "routing.routed_nets": routed.routed_nets,
        "routing.failed_nets": len(routed.failed_nets),
        "routing.unconnected_terms": routed.unconnected_terms,
        "routing.wires": len(routed.wires),
        "routing.vias": len(routed.vias),
        "routing.wirelength": routed.total_wirelength,
        "drc.pin_access_total": len(out["pin_access"]),
        "drc.pin_access": _by_rule(out["pin_access"]),
        "drc.full_total": len(out["full"]),
        "drc.full": _by_rule(out["full"]),
    }
    drift = [
        f"{key} {have[key]} != golden {golden.get(key)}"
        for key in FLOW_GOLDEN_KEYS
        if have[key] != golden.get(key)
    ]
    outcome.check(
        not drift, "compare golden", f"{out['case']}: {'; '.join(drift)}"
    )


# -- analyze_corpus -----------------------------------------------------------


def analyze_corpus(
    seed: int, seconds: float, trace: bool, out_dir: str
) -> Outcome:
    """PAAF and IO access over the qa golden corpus, layer by layer."""
    probe = HostProbe()
    setup = SetupClock(lambda: emit_texts(CORPUS_CASES), probe)
    texts = setup.first()
    goldens = {
        case: load_golden(os.path.join(ROOT, "goldens", case + ".json"))
        for case, _, _ in texts
    }
    outcome = Outcome()

    def after_unit(out):
        try:
            verify_result(goldens[out["case"]], out["result"])
        except GoldenMismatch as exc:
            outcome.check(False, "qa golden", f"{out['case']}: {exc}")
        else:
            outcome.check(True, "qa golden", out["case"])
        return analysis_counts(out)

    units = [partial(analyze_case, text) for text in texts]
    records, tracer, meter = measure_passes(
        seconds, trace, units, after_unit, setup, probe
    )
    outcome.metrics = pass_metrics(records, tracer, meter, probe, setup)
    if trace:
        write_trace(
            tracer, out_dir, "analyze_corpus", seed, {"cases": list(goldens)}
        )
    return outcome


# -- serve_eco ----------------------------------------------------------------


def movable_instances(design) -> list:
    """Single-height cells that stay singleton clusters at home and at
    +MOVE_SITES sites: nothing overlaps the swept span or the site on
    either side of it.  Returns ``(name, home x, home y)``, name order.
    """
    site = design.tech.site_width
    out = []
    for cluster in design.row_clusters():
        inst = cluster[0]
        box = inst.bbox
        if len(cluster) != 1 or inst.master.is_macro:
            continue
        if box.height != design.tech.site_height:
            continue
        swept = Rect(
            box.xlo - site, box.ylo, box.xhi + (MOVE_SITES + 1) * site, box.yhi
        )
        if swept.xhi > design.die_area.xhi:
            continue
        if any(
            other is not inst and other.bbox.overlaps(swept)
            for other in design.instances.values()
        ):
            continue
        out.append((inst.name, inst.location.x, inst.location.y))
    return sorted(out)


def _signal_pins(design) -> list:
    return sorted(
        (inst.name, pin.name)
        for inst in design.instances.values()
        for pin in inst.master.signal_pins()
    )


def _strip_generation(answers) -> list:
    return [{k: v for k, v in a.items() if k != "generation"} for a in answers]


class _Daemon:
    """One served copy of the serve_eco design: server plus client."""

    def __init__(self, text, sock: str):
        case, lef, def_text = text
        self.design = parse_design(lef, def_text)
        session = DesignSession(case, self.design, PaafConfig())
        self.server = OracleServer(("unix", sock), sessions={case: session})
        self.server.start()
        self.client = OracleClient(f"unix:{sock}")
        try:
            self.client.connect()
        except BaseException:
            self.server.stop(drain=False)
            raise

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.stop(drain=False)


def serve_eco(
    seed: int, seconds: float, trace: bool, out_dir: str
) -> Outcome:
    """Closed-loop reads beside placement edits against the daemon."""
    os.makedirs(out_dir, exist_ok=True)
    # Relative to the working directory, so the path stays within the
    # AF_UNIX length limit however deep the checkout is.
    sock = os.path.relpath(os.path.join(out_dir, f"eco{os.getpid()}.sock"))
    # Only one daemon may run at a time (peak_rss_mb), so set-up is not
    # repeated between cycles.
    probe = HostProbe()
    setup = SetupClock(
        lambda: _Daemon(emit_texts([SERVE_CASE])[0], sock),
        probe,
        _Daemon.close,
    )
    daemon = setup.first()
    try:
        outcome, tracer = _serve_loop(
            daemon, seed, seconds, trace, probe, setup
        )
    finally:
        daemon.close()
    if trace:
        write_trace(
            tracer, out_dir, "serve_eco", seed, {"case": case_id(*SERVE_CASE)}
        )
    return outcome


def _serve_loop(daemon, seed, seconds, trace, probe, setup) -> tuple:
    """Run the cycles, put the placement back, check; return the
    outcome and the tracer."""
    rng = random.Random(seed)
    client = daemon.client
    pins = _signal_pins(daemon.design)
    movable = movable_instances(daemon.design)
    step = MOVE_SITES * daemon.design.tech.site_width
    away = set()
    baseline = client.query_batch(pins)

    def call(op):
        if op == "query":
            return client.query(*rng.choice(pins))
        if op == "query_batch":
            return client.query_batch(rng.sample(pins, BATCH_PINS))
        name, x, y = rng.choice(movable)
        going = name not in away
        reply = client.move_instance(name, x + step if going else x, y)
        (away.add if going else away.discard)(name)
        return reply

    def run_cycle(tracer):
        replies = []
        for op in CYCLE:
            with tracer.span(f"serve.{op}"):
                t0 = time.perf_counter()
                try:
                    reply = call(op)
                except SERVE_ERRORS as exc:
                    reply = exc
                replies.append((op, time.perf_counter() - t0, reply))
        return replies

    outcome = Outcome()
    latency = {op: [] for op in CYCLE}
    updates = []
    generation = 0

    def after_cycle(replies):
        nonlocal generation
        for op, elapsed, reply in replies:
            if isinstance(reply, Exception):
                outcome.check(False, "error envelope", f"{op}: {reply}")
                continue
            latency[op].append(elapsed)
            if op == "move_instance":
                updates.append(reply["update_seconds"])
                generation += 1
                seen = {reply["generation"]}
            elif op == "query":
                seen = {reply["generation"]}
            else:
                seen = {answer["generation"] for answer in reply}
            outcome.check(
                seen == {generation},
                f"{op} generation",
                f"answered generations {sorted(seen)}, expected {generation}",
            )
        return {}

    records, tracer, meter = measure_passes(
        seconds,
        trace,
        [run_cycle],
        after_cycle,
        None,
        probe,
        minimum=MIN_CYCLES,
    )

    # Every moved cell goes home; the placement is then the
    # generation-0 one, and so must be every answer.
    for name, x, y in movable:
        if name in away:
            generation += 1
            got = client.move_instance(name, x, y)["generation"]
            outcome.check(
                got == generation,
                "move generation",
                f"restoring {name}: generation {got}, expected {generation}",
            )
    final = _strip_generation(client.query_batch(pins))
    differ = sum(a != b for a, b in zip(final, _strip_generation(baseline)))
    outcome.check(
        differ == 0 and len(final) == len(baseline),
        "restored answers",
        f"{differ} of {len(pins)} answers differ from generation 0 "
        "with every moved cell back home",
    )
    counters = client.stats()["counters"]

    cycles = {True: [], False: []}
    for trace_id, elapsed, _ in records:
        cycles[trace_id is not None].append(elapsed)
    q = {op: statistics.quantiles(s, n=100) for op, s in latency.items()}
    ms = {op: 1e3 * statistics.median(s) for op, s in latency.items()}
    metrics = {
        "serve.query_p50_ms": ms["query"],
        "serve.query_p99_ms": 1e3 * q["query"][98],
        "serve.batch_p50_ms": ms["query_batch"],
        "serve.batch_p99_ms": 1e3 * q["query_batch"][98],
        "serve.move_p50_ms": ms["move_instance"],
        "serve.move_p90_ms": 1e3 * q["move_instance"][89],
        "serve.ops_per_s": sum(map(len, latency.values()))
        / sum(elapsed for _, elapsed, _ in records),
        "serve.batch_us_per_pin": 1e3 * ms["query_batch"] / BATCH_PINS,
        "serve.publish_ms": 1e3 * statistics.median(
            dt - up for dt, up in zip(latency["move_instance"], updates)
        ),
        "serve.errors": sum(
            n for key, n in counters.items() if key.startswith("serve.error.")
        ),
        "incremental.update_ms": 1e3 * statistics.median(updates),
    }
    metrics.update(host_metrics(cycles[False], probe, setup))
    if trace:
        metrics["trace.unattributed_s"] = statistics.median(
            by_name["pass"] for by_name in tracer.self_times().values()
        )
        metrics["trace.overhead_pct"] = overhead_pct(
            cycles[True], cycles[False]
        )
        metrics.update(gc_metrics(meter, len(records)))
    outcome.metrics = metrics
    return outcome, tracer


WORKLOADS = {
    "flow_route": flow_route,
    "analyze_corpus": analyze_corpus,
    "serve_eco": serve_eco,
}
