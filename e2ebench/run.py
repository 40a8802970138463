"""BENCH_E2E: end-to-end query latency, pages and per-layer time.

Run from the repository root::

    python3 e2ebench/run.py --workload warm-mutating --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``warm-mutating``,
``server-open`` and ``view-maintain``, all on the 800-course university
site.  ``cold-navigate`` (no cache: every query downloads and wraps
every page it touches) runs the same way but is left out of
BENCHMARK.json, so that the other three get runs long enough to be
steady.  Every answer is checked against a staged, cache-off
``SiteEnv.query`` run on the same site state; a wrong answer makes the
command exit 1.

A closed loop runs a warm-up round, then whole rounds (each template
once per round) until it has lasted ``--seconds``; its per-query CPU and
throughput are totals over every measured round, and its latency
percentiles are taken over every measured query.  Its count metrics
cover the first few rounds, which every run does, so they repeat
exactly for a seed.  The open loop offers a low rate, whose latencies
are reported, then more than the server can take, whose completion rate
is the rate it sustains; its schedule is fixed by the seed and length.

Every time in the metrics is a reference-host time: the time as
measured, scaled by how fast a fixed yardstick task ran next to it
(:mod:`hostspeed`), so that a shared host's drift in speed does not read
as a change in the program.  The times as measured are printed above
the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with timers around each layer's public
functions, and prints the per-layer metrics (including the tracing
overhead: traced minus untraced CPU per query).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

The program is imported from ``src/`` beside this directory; without it
the command exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = (
    "cold-navigate",
    "warm-mutating",
    "server-open",
    "view-maintain",
)


def _import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"BENCH_E2E: the program's sources are missing ({SRC / 'repro'} "
            "not found); run from a full checkout\n"
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(
            f"BENCH_E2E: imported repro from {repro.__file__}, not {SRC}\n"
        )
        sys.exit(2)


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def _ok_latencies_ms(samples) -> list[float]:
    return [1000 * s.latency_s for s in samples if s.ok]


def cpu_ms_per_query(run, as_measured: bool = False) -> float:
    """Process CPU per completed query over the whole measured region:
    every round of a closed loop, every phase of the open loop; as a
    reference-host time unless ``as_measured``."""
    k = 1.0 if as_measured else run.yardstick.scale
    cpu_s = sum(part.cpu_s for part in run.rounds or run.phases)
    return 1000 * k * cpu_s / max(sum(s.ok for s in run.samples), 1)


def counted_samples(run) -> list:
    """The completed queries the count metrics cover: a closed loop's
    first ``count_rounds`` rounds (a fixed amount of work for a seed),
    every request of the open loop."""
    if run.rounds:
        samples = [s for r in run.rounds[:run.count_rounds]
                   for s in r.samples]
    else:
        samples = run.samples
    return [s for s in samples if s.ok]


def end_to_end(run, as_measured: bool = False) -> dict[str, tuple[float, str]]:
    """The user-facing figures of one untraced pass: times are
    reference-host times (:mod:`hostspeed`), or ``as_measured``.  A
    percentile picks single queries, so each latency takes its sample's
    own scale; totals take the run's mean scale, which many timings
    spread over the whole run fix best."""
    from measure import percentile

    k = 1.0 if as_measured else run.yardstick.scale

    def latencies_ms(samples) -> list[float]:
        return [1000 * s.latency_s * (1.0 if as_measured else s.scale)
                for s in samples if s.ok]

    completed = [s for s in run.samples if s.ok]
    if run.phases:
        # latency at the gated (first) rate; sustained: the completion
        # rate under overload (last phase); throughput: completions per
        # second in which the server held a request
        gated, overload = run.phases[0], run.phases[-1]
        latencies = latencies_ms(gated.samples)
        sustained = overload.achieved / k
        throughput = len(completed) / (k * sum(p.busy_s for p in run.phases))
    else:
        latencies = latencies_ms(run.samples)
        throughput = len(completed) / (k * sum(r.wall_s for r in run.rounds))
        sustained = throughput
    counted = counted_samples(run)
    nav_pages, nav_light, nav_sim = run.navigator
    pages = sum(s.pages for s in counted) + nav_pages
    light = sum(s.light for s in counted) + nav_light
    sim = sum(s.sim_s for s in counted) + nav_sim
    per = max(len(counted), 1)
    return {
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "query_p90_ms": (percentile(latencies, 90), "ms"),
        "queries_per_s": (throughput, "1/s"),
        "cpu_ms_per_query": (cpu_ms_per_query(run, as_measured), "ms"),
        "sustained_qps": (sustained, "1/s"),
        "pages_per_query": (pages / per, "count"),
        "connections_per_query": ((pages + light) / per, "count"),
        "sim_s_per_query": (sim / per, "sim_s"),
        "ok_frac": (len(completed) / max(run.attempted, 1), "fraction"),
        "setup_s": (run.setup_measured_s if as_measured else run.setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


#: the layers whose summed self time trace.coverage compares with the
#: whole-query time
LAYERS = ("optimizer.", "client.", "wrapper.", "engine.", "server.",
          "materialized.")


def per_layer(run, tracer, probe, untraced_cpu_ms: float):
    """Per-layer figures of one traced pass, times as reference-host
    times.  For a closed loop they cover the work inside queries (root
    span ``query``), so a periodic refresh is not charged to them; server
    requests run on worker threads, where every span belongs to some
    request."""
    from measure import percentile

    k = run.yardstick.scale
    completed = [s for s in run.samples if s.ok]
    n = max(len(completed), 1)
    if run.phases:
        root = None
        # a request's whole time: dequeue -> end of its execution
        whole_s = sum(run.service_s)
    else:
        root = "query"
        whole_s = tracer.total_seconds("query", root)
    whole_s = whole_s or math.inf

    def share(prefix: str) -> float:
        return tracer.self_seconds(prefix, root) / whole_s

    def per_query_ms(prefix: str) -> float:
        return 1000 * k * tracer.self_seconds(prefix, root) / n

    def per_query(count: float) -> float:
        return count / n

    wrapped = tracer.timed_calls("wrapper.wrap", root)
    cache = run.cache_delta
    lookups = (
        cache.hits + cache.revalidations + cache.misses if cache else 0
    )
    lateness = [t for p in run.phases for t in p.lateness_s]
    metrics = {
        "optimizer.plan_calls": (
            per_query(tracer.calls("optimizer.plan", root)), "count/query"),
        "optimizer.cold_plans": (
            per_query(tracer.calls("optimizer.cold_plan", root)),
            "count/query"),
        "optimizer.plan_ms_per_query": (per_query_ms("optimizer.plan"), "ms"),
        "optimizer.estimate_ms_per_query": (
            per_query_ms("optimizer.estimate"), "ms"),
        "optimizer.plan_share": (share("optimizer."), "fraction"),
        "client.gets": (
            per_query(tracer.counted("client.gets", root)), "count/query"),
        "client.heads": (
            per_query(tracer.counted("client.heads", root)), "count/query"),
        "client.retries": (per_query(run.retries), "count/query"),
        "client.busy_ms_per_query": (
            1000 * k * tracer.total_seconds("client.", root) / n, "ms"),
        "cache.hit_ratio": (
            (cache.hits + cache.revalidations) / lookups if lookups else 0.0,
            "fraction"),
        "cache.revalidations": (
            per_query(cache.revalidations if cache else 0), "count/query"),
        "cache.evictions": (cache.evictions if cache else 0, "count"),
        "wrapper.pages": (
            per_query(tracer.calls("wrapper.wrap", root)), "count/query"),
        "wrapper.ms_per_page": (
            1000 * k * tracer.self_seconds("wrapper.", root) / wrapped
            if wrapped else 0.0, "ms"),
        "wrapper.share": (share("wrapper."), "fraction"),
        "wrapper.repeat_ratio": (
            probe.repeat_wraps / probe.wraps if probe.wraps else 0.0,
            "fraction"),
        "engine.self_ms_per_query": (per_query_ms("engine."), "ms"),
        "engine.share": (share("engine."), "fraction"),
        "server.queue_wait_p90_ms": (
            1000 * k * percentile(run.queue_wait_s, 90) if run.queue_wait_s
            else 0.0, "ms"),
        "server.prefix_hit_ratio": (
            probe.prefix_hits / probe.prefix_resolves
            if probe.prefix_resolves else 0.0, "fraction"),
        "server.pages_shared_per_query": (
            per_query(run.pages_shared), "count/query"),
        "server.generator_late_ms": (
            1000 * k * percentile(lateness, 90) if lateness else 0.0, "ms"),
        "materialized.query_ms": (per_query_ms("materialized.execute"), "ms"),
        "materialized.refresh_ms": (
            1000 * k * statistics.fmean(run.refresh_s) if run.refresh_s
            else 0.0,
            "ms"),
        "materialized.url_checks_per_query": (
            per_query(tracer.calls("materialized.url_check", root)),
            "count/query"),
        "materialized.redownloads_per_query": (
            per_query(sum(s.pages for s in completed))
            if run.workload == "view-maintain" else 0.0, "count/query"),
        "setup.sitegen_s": (run.setup.sitegen_s, "s"),
        "setup.stats_s": (run.setup.stats_s, "s"),
        "setup.warm_s": (run.setup.warm_s, "s"),
        "trace.overhead": (cpu_ms_per_query(run) - untraced_cpu_ms, "ms"),
        "trace.coverage": (
            sum(tracer.self_seconds(layer, root) for layer in LAYERS)
            / whole_s, "fraction"),
    }
    return metrics


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #


def print_templates(run) -> None:
    """Per-template latency, pages and light connections (not gated)."""
    from measure import percentile

    print(f"{'template':8} {'n':>4} {'p50 ms':>9} {'max ms':>9} "
          f"{'pages':>8} {'light':>8}")
    for name in sorted({s.template for s in run.samples}):
        rows = [s for s in run.samples if s.template == name and s.ok]
        if not rows:
            continue
        ms = [1000 * s.latency_s for s in rows]
        print(f"{name:8} {len(rows):>4} {percentile(ms, 50):>9.1f} "
              f"{max(ms):>9.1f} {statistics.fmean(s.pages for s in rows):>8.1f} "
              f"{statistics.fmean(s.light for s in rows):>8.1f}")


def print_tail(label: str, latencies_ms: list[float]) -> None:
    from measure import percentile, tail_percentile

    tail = tail_percentile(latencies_ms)
    tail_text = (
        f"p{tail[0]} {tail[1]:.1f} ms" if tail
        else "none (fewer than 11 samples)"
    )
    median = percentile(latencies_ms, 50) if latencies_ms else math.nan
    print(f"{label}: n={len(latencies_ms)}, p50 {median:.1f} ms, "
          f"tail with >=10 samples beyond it: {tail_text}")


def print_phases(run) -> None:
    from measure import percentile, tail_percentile

    print(f"{'rate/s':>7} {'reqs':>5} {'p50 ms':>9} {'p90 ms':>9} "
          f"{'tail (>=10 beyond)':>19} {'late p90 ms':>12} {'growth/s':>9} "
          f"{'achieved/s':>11} {'busy s':>7} backlog")
    for phase in run.phases:
        ms = _ok_latencies_ms(phase.samples)
        late = [1000 * t for t in phase.lateness_s]
        tail = tail_percentile(ms)
        tail_text = f"p{tail[0]} {tail[1]:.1f}" if tail else "-"
        print(f"{phase.rate:>7.1f} {len(phase.samples):>5} "
              f"{percentile(ms, 50):>9.1f} {percentile(ms, 90):>9.1f} "
              f"{tail_text:>19} {percentile(late, 90):>12.2f} "
              f"{phase.growth:>9.2f} {phase.achieved:>11.2f} "
              f"{phase.busy_s:>7.2f} "
              f"{'grows' if phase.backlog_grows() else 'steady'}")


def print_metrics(title: str, metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:>14.4f} {unit}")


# ---------------------------------------------------------------------- #
# main
# ---------------------------------------------------------------------- #


def run_pass(workload: str, seed: int, seconds: float, traced: bool):
    import harness
    from tracing import LayerProbe, LayerTracer

    tracer = LayerTracer()
    probe = LayerProbe(tracer)

    def install():
        if not traced:
            return lambda: None
        undo = probe.install()
        tracer.enabled = True

        def uninstall() -> None:
            tracer.enabled = False
            undo()

        return uninstall

    runner = {
        "cold-navigate": harness.cold_navigate,
        "warm-mutating": harness.warm_mutating,
        "view-maintain": harness.view_maintain,
    }.get(workload)
    if runner is not None:
        run = runner(seed, seconds, tracer, install)
    else:
        run = harness.server_open(seed, seconds, tracer, install, probe)
    return run, tracer, probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    from hostspeed import REFERENCE_S

    runs = []
    run, _, _ = run_pass(args.workload, args.seed, args.seconds, False)
    runs.append(run)
    print(f"BENCH_E2E {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if run.phases:
        print_phases(run)
    else:
        print_tail("query latency", _ok_latencies_ms(run.samples))
    print_templates(run)
    print(f"yardstick: {len(run.yardstick.timings)} timings, mean "
          f"{1000 * run.yardstick.mean_s:.3f} ms (reference "
          f"{1000 * REFERENCE_S:.3f} ms, mean scale "
          f"{run.yardstick.scale:.3f}); the times above are as measured")
    print_metrics("end to end, times as measured:",
                  end_to_end(run, as_measured=True))
    metrics = end_to_end(run)
    if args.trace:
        untraced_cpu_ms = metrics["cpu_ms_per_query"][0]
        run, tracer, probe = run_pass(
            args.workload, args.seed, args.seconds, True
        )
        runs.append(run)
        print_metrics("end to end (untraced pass, reference-host times):",
                      metrics)
        metrics = per_layer(run, tracer, probe, untraced_cpu_ms)
        print_metrics("per layer (traced pass):", metrics)
    else:
        print_metrics("end to end (reference-host times):", metrics)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = sum(r.wrong for r in runs)
    print(f"attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / max(attempted, 1):.4f}), "
          f"wrong answers {wrong}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, allow_nan=False))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
