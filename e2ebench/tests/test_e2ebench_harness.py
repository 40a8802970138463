"""Tests for the BENCH_E2E harness: statistics, span arithmetic, set-up
exclusion and seeded schedules.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import threading
import time

import pytest

from hostspeed import REFERENCE_S, REPEATS, Yardstick
from measure import (
    busy_seconds,
    growth_per_second,
    percentile,
    spread,
    tail_percentile,
)
from tracing import LayerProbe, LayerTracer, timed
from workloads import Domains, all_queries, closed_loop_rounds, open_loop_phase

DOMAINS = Domains(
    depts=("Computer Science", "Mathematics", "Physics"),
    ranks=("Full", "Associate"),
    sessions=("Fall", "Winter"),
    ctypes=("Graduate", "Undergraduate"),
    n_profs=20,
    n_courses=50,
)


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([7.0], 90) == 7.0

    @pytest.mark.parametrize(
        "n,expected", [(100, 90), (1000, 99), (35, 71), (20, 50), (11, 9)]
    )
    def test_tail_is_highest_percentile_with_ten_beyond(self, n, expected):
        values = [float(v) for v in range(n)]
        q, value = tail_percentile(values)
        assert q == expected
        assert sum(1 for v in values if v > value) >= 10
        # one percentile higher would leave fewer than ten beyond it
        if q < 99:
            higher = percentile(values, q + 1)
            assert sum(1 for v in values if v > higher) < 10

    def test_too_few_samples_have_no_tail(self):
        assert tail_percentile([1.0] * 10) is None
        assert tail_percentile([]) is None

    def test_spread_is_quartile_distance_over_median(self):
        assert spread([10.0] * 10) == 0.0
        assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx(5 / 5)

    def test_growth_per_second(self):
        assert growth_per_second([(t, 2.0 * t) for t in range(10)]) == (
            pytest.approx(2.0)
        )
        assert growth_per_second([(t, 3.0) for t in range(10)]) == 0.0
        assert growth_per_second([(1.0, 5.0)]) == 0.0

    def test_busy_seconds_is_the_union_of_intervals(self):
        assert busy_seconds([]) == 0.0
        # (0, 2) and (1, 3) overlap, (2.5, 2.8) lies inside, (5, 6) apart
        assert busy_seconds(
            [(5.0, 6.0), (1.0, 3.0), (0.0, 2.0), (2.5, 2.8)]
        ) == pytest.approx(4.0)


# ---------------------------------------------------------------------- #
# self-time arithmetic
# ---------------------------------------------------------------------- #


class ScriptedClock:
    """Each thread reads its own scripted sequence of instants."""

    def __init__(self):
        self._local = threading.local()

    def script(self, *instants: float) -> None:
        self._local.instants = list(instants)

    def __call__(self) -> float:
        return self._local.instants.pop(0)


class TestSelfTime:
    def test_nested_spans(self):
        clock = ScriptedClock()
        tracer = LayerTracer(clock)
        tracer.enabled = True
        # query 0..10 > engine 1..9 > client 2..4, wrapper 5..8
        clock.script(0, 1, 2, 4, 5, 8, 9, 10)
        with tracer.span("query"):
            with tracer.span("engine.execute", "engine"):
                with tracer.span("client.get", "client"):
                    pass
                with tracer.span("wrapper.wrap", "wrapper"):
                    pass
        assert tracer.total_seconds("query") == 10
        assert tracer.self_seconds("query") == 2
        assert tracer.self_seconds("engine.") == 8 - 2 - 3
        assert tracer.self_seconds("client.") == 2
        assert tracer.self_seconds("wrapper.") == 3
        # everything ran under the query root, which its layers cover
        # but for the query's own 2 seconds
        assert tracer.self_seconds("", root="query") == 10
        assert tracer.self_seconds("", root="elsewhere") == 0

    def test_reentry_is_counted_not_timed(self):
        clock = ScriptedClock()
        tracer = LayerTracer(clock)
        tracer.enabled = True
        calls = []

        def head(url):
            calls.append(url)

        head = timed(tracer, head, "client.head", "client")

        def head_batch(urls):
            for url in urls:
                head(url)

        head_batch = timed(tracer, head_batch, "client.head_batch", "client")
        clock.script(0, 5)  # only the outer call reads the clock
        head_batch(["a", "b", "c"])
        assert calls == ["a", "b", "c"]
        assert tracer.calls("client.head_batch") == 1
        assert tracer.calls("client.") == 1 + 3  # the batch and its heads
        assert tracer.timed_calls("client.") == 1
        assert tracer.self_seconds("client.") == 5

    def test_two_threads_keep_separate_stacks(self):
        clock = ScriptedClock()
        tracer = LayerTracer(clock)
        tracer.enabled = True
        both_open = threading.Barrier(2, timeout=10)
        errors = []

        def worker(instants, inner):
            try:
                clock.script(*instants)
                with tracer.span("engine.execute", "engine"):
                    both_open.wait()  # the other thread's span is open too
                    if inner:
                        with tracer.span("wrapper.wrap", "wrapper"):
                            pass
            except Exception as err:  # surfaced below
                errors.append(err)

        a = threading.Thread(target=worker, args=((0, 2, 5, 10), True))
        b = threading.Thread(target=worker, args=((0, 4), False))
        a.start()
        b.start()
        a.join(10)
        b.join(10)
        assert not a.is_alive() and not b.is_alive()
        assert errors == []
        # a: 10 - 3 nested; b: 4, with nothing of a's nested inside it
        assert tracer.timed_calls("engine.") == 2
        assert tracer.total_seconds("engine.") == 14
        assert tracer.self_seconds("engine.") == 7 + 4
        assert tracer.self_seconds("wrapper.", root="engine.execute") == 3

    def test_disabled_tracer_records_nothing(self):
        tracer = LayerTracer()
        fn = timed(tracer, lambda x: x + 1, "engine.execute", "engine")
        assert fn(1) == 2
        assert tracer.calls("") == 0

    def test_out_of_order_exit_is_refused(self):
        tracer = LayerTracer()
        tracer.enabled = True
        outer = tracer.enter("query", "query")
        tracer.enter("engine.execute", "engine")
        with pytest.raises(RuntimeError):
            tracer.exit(outer)


# ---------------------------------------------------------------------- #
# set-up exclusion
# ---------------------------------------------------------------------- #


class TestSetupExclusion:
    def test_timers_see_only_work_after_install(self):
        from repro.sites import university
        from repro.wrapper.wrapper import PageWrapper

        original = PageWrapper.__dict__["wrap"]
        env = university()  # exact statistics wrap every page here
        tracer = LayerTracer()
        probe = LayerProbe(tracer)
        undo = probe.install()
        try:
            tracer.enabled = True
            assert tracer.calls("wrapper.wrap") == 0
            with tracer.span("query"):
                result = env.query("SELECT DName FROM Dept")
            # one wrap per page the query downloaded, nothing from set-up
            assert tracer.calls("wrapper.wrap", root="query") == result.pages
            assert tracer.counted("client.gets", root="query") == result.pages
            assert tracer.calls("optimizer.plan") == 1
        finally:
            tracer.enabled = False
            undo()
        assert PageWrapper.__dict__["wrap"] is original

    def test_answer_check_is_not_charged(self):
        from harness import Reference
        from repro.sites import university

        env = university()
        tracer = LayerTracer()
        probe = LayerProbe(tracer)
        reference = Reference(env, tracer, static=False)
        undo = probe.install()
        try:
            tracer.enabled = True
            result = env.query("SELECT DName FROM Dept")
            calls = tracer.calls("wrapper.wrap")
            assert reference.check("SELECT DName FROM Dept", result.relation)
            assert tracer.calls("wrapper.wrap") == calls
            assert tracer.enabled
        finally:
            tracer.enabled = False
            undo()

    def test_a_different_answer_is_counted_wrong(self):
        from harness import Reference
        from repro.sites import university

        env = university()
        reference = Reference(env, LayerTracer(), static=True)
        other = env.query("SELECT PName, email FROM Professor").relation
        assert not reference.check("SELECT DName FROM Dept", other)
        assert (reference.checked, reference.wrong) == (1, 1)


def _run(rounds=(), phases=(), count_rounds=None):
    from harness import Run, SetupTimes

    run = Run("warm-mutating", [], 0.0, SetupTimes(0, 0, 0))
    run.rounds = list(rounds)
    run.count_rounds = len(run.rounds) if count_rounds is None else count_rounds
    run.phases = list(phases)
    run.samples = [s for r in run.rounds for s in r.samples]
    run.samples += [s for p in run.phases for s in p.samples]
    return run


class TestEndToEndRules:
    def test_closed_loop_figures_cover_every_round(self):
        from harness import Round, Sample
        from run import end_to_end

        def measured(cpu_s, latency_s):
            samples = [Sample("Q1", latency_s, True)] * 2
            return Round(wall_s=2 * latency_s, cpu_s=cpu_s, samples=samples)

        rounds = [measured(c, c) for c in (3.0, 1.0, 9.0, 2.0, 4.0)]
        metrics = end_to_end(_run(rounds))
        # totals over all five rounds, not over a chosen subset
        assert metrics["cpu_ms_per_query"][0] == pytest.approx(1900.0)
        assert metrics["queries_per_s"][0] == pytest.approx(10 / 38)
        assert metrics["sustained_qps"][0] == metrics["queries_per_s"][0]
        # the slowest round's queries set the p90
        assert metrics["query_p90_ms"][0] == pytest.approx(9000.0)

    def test_counts_cover_the_first_rounds_only(self):
        from harness import Round, Sample
        from run import end_to_end

        def measured(pages):
            samples = [Sample("Q7", 0.1, True, pages, 1, 2.0 * pages)] * 2
            return Round(wall_s=0.2, cpu_s=0.2, samples=samples)

        # a faster host runs more rounds; the counts stay those of the
        # rounds every run does
        run = _run([measured(p) for p in (10, 20, 90, 90)], count_rounds=2)
        metrics = end_to_end(run)
        assert metrics["pages_per_query"][0] == pytest.approx(15.0)
        assert metrics["connections_per_query"][0] == pytest.approx(16.0)
        assert metrics["sim_s_per_query"][0] == pytest.approx(30.0)
        # the timings cover every round
        assert metrics["queries_per_s"][0] == pytest.approx(8 / 0.8)

    def test_open_loop_throughput_and_sustained_rate(self):
        from harness import Phase, Sample
        from run import end_to_end

        def phase(rate, n, elapsed_s, busy_s, latency_s):
            samples = [Sample("Q7", latency_s, True)] * n
            return Phase(rate, samples, [0.0] * n, 0.0, elapsed_s, busy_s)

        phases = [phase(4.0, 20, 5.0, 2.0, 0.05), phase(48.0, 24, 1.6, 1.6, 0.5)]
        metrics = end_to_end(_run(phases=phases))
        # sustained: what the overload (last) phase completed per second
        assert metrics["sustained_qps"][0] == pytest.approx(24 / 1.6)
        # throughput: completions per second the server held a request
        assert metrics["queries_per_s"][0] == pytest.approx(44 / 3.6)
        # latency: the gated (first) phase's
        assert metrics["query_p90_ms"][0] == pytest.approx(50.0)
        # on a host at half speed, rates double and CPU halves
        phases[0].cpu_s, phases[1].cpu_s = 1.0, 2.0
        run = _run(phases=phases)
        run.yardstick.timings = [2 * REFERENCE_S]
        metrics = end_to_end(run)
        assert metrics["sustained_qps"][0] == pytest.approx(2 * 24 / 1.6)
        assert metrics["queries_per_s"][0] == pytest.approx(2 * 44 / 3.6)
        assert metrics["cpu_ms_per_query"][0] == pytest.approx(1500 / 44)
        measured = end_to_end(run, as_measured=True)
        assert measured["cpu_ms_per_query"][0] == pytest.approx(3000 / 44)


class TestReferenceHostTimes:
    def test_scale_is_reference_over_mean_timing(self):
        yardstick = Yardstick()
        assert yardstick.scale == 1.0
        yardstick.timings = [REFERENCE_S, 3 * REFERENCE_S]
        assert yardstick.scale == pytest.approx(0.5)

    def test_reading_restores_the_collector(self):
        import gc

        yardstick = Yardstick()
        assert gc.isenabled()
        scale = yardstick.read(2)
        assert scale == pytest.approx(2 * REFERENCE_S / sum(yardstick.timings))
        assert gc.isenabled()
        gc.disable()
        try:
            yardstick.read(2)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert len(yardstick.timings) == 4
        assert all(t > 0 for t in yardstick.timings)

    def test_times_are_scaled_and_counts_are_not(self):
        from harness import Round, Sample
        from run import end_to_end

        # a host at half speed when each query ran (the latencies' own
        # scales) and over the run (the yardstick's mean)
        samples = [Sample("Q7", 0.1 * i, True, 5, 2, 1.5, 0.5)
                   for i in (1, 2, 3)]
        run = _run([Round(wall_s=0.6, cpu_s=0.3, samples=samples)])
        run.yardstick.timings = [2 * REFERENCE_S]
        run.setup_s, run.setup_measured_s = 2.0, 3.0
        reference = end_to_end(run)
        measured = end_to_end(run, as_measured=True)
        for name in ("query_p50_ms", "query_p90_ms", "cpu_ms_per_query"):
            assert reference[name][0] == pytest.approx(measured[name][0] / 2)
        for name in ("queries_per_s", "sustained_qps"):
            assert reference[name][0] == pytest.approx(measured[name][0] * 2)
        for name in ("pages_per_query", "connections_per_query",
                     "sim_s_per_query", "ok_frac", "peak_rss_mb"):
            assert reference[name] == measured[name]
        # set-up carries its own scale, taken while it ran
        assert (reference["setup_s"][0], measured["setup_s"][0]) == (2.0, 3.0)


class _FakeLog:
    page_downloads = 3
    light_connections = 1
    simulated_seconds = 0.5
    records = ()


class _FakeResult:
    relation = None
    log = _FakeLog()


class _AlwaysRight:
    def check(self, sql, relation):
        return True


class TestClosedLoop:
    def _loop(self, monkeypatch, min_rounds, seconds, query, **options):
        """Run the closed loop with ``query(sql, tracer)`` as the program."""
        import harness
        from harness import Run, SetupTimes

        monkeypatch.setitem(harness.MIN_ROUNDS, "warm-mutating", min_rounds)
        tracer = LayerTracer()
        tracer.enabled = True
        run = Run("warm-mutating", [], 0.0, SetupTimes(0, 0, 0))
        rounds = closed_loop_rounds(1, ("Q1", "Q5"), DOMAINS)
        harness._closed_loop(
            run, rounds, seconds, lambda sql: query(sql, tracer),
            _AlwaysRight(), tracer, **options,
        )
        return run, tracer

    def test_warm_up_is_unmeasured_and_untraced(self, monkeypatch):
        seen = []

        def query(sql, tracer):
            seen.append(tracer.enabled)
            return _FakeResult()

        run, tracer = self._loop(
            monkeypatch, 3, 0.0, query,
            after_warmup=lambda: seen.append("measure from here"),
        )
        # one warm-up round of two queries, then the three rounds every
        # run does: no more, since the run's length is already over
        assert seen == [False, False, "measure from here"] + [True] * 6
        assert len(run.rounds) == run.count_rounds == 3
        assert run.attempted == 6
        assert tracer.enabled

    def test_rounds_continue_until_the_run_length(self, monkeypatch):
        def query(sql, tracer):
            time.sleep(0.01)
            return _FakeResult()

        started = time.perf_counter()
        run, _ = self._loop(monkeypatch, 1, 0.1, query)
        assert time.perf_counter() - started >= 0.1
        assert len(run.rounds) >= 2
        assert run.count_rounds == 1
        assert all(len(r.samples) == 2 for r in run.rounds)
        # the yardstick is read before every measured query
        assert len(run.yardstick.timings) == REPEATS * run.attempted


# ---------------------------------------------------------------------- #
# seeded schedules
# ---------------------------------------------------------------------- #


def _rounds(seed, count, writes=3):
    stream = closed_loop_rounds(
        seed, ("Q1", "Q2", "Q5", "Q7"), DOMAINS, writes
    )
    return [next(stream) for _ in range(count)]


class TestSchedules:
    def test_same_seed_same_closed_loop_schedule(self):
        assert _rounds(5, 4) == _rounds(5, 4)
        assert _rounds(5, 4) != _rounds(6, 4)

    def test_every_round_runs_every_template_once(self):
        for steps in _rounds(9, 5):
            assert [s.query.template for s in steps] == [
                "Q1", "Q2", "Q5", "Q7"
            ]
            assert all(len(s.writes) == 3 for s in steps)

    def test_same_seed_same_open_loop_schedule(self):
        queries = all_queries(("Q1", "Q5"), DOMAINS)
        templates = {q: "Q1" if "ProfDept" not in q else "Q5" for q in queries}

        def phase(seed):
            return open_loop_phase(
                seed, 6.0, 5.0, queries, templates, ("a", "b")
            )

        assert phase(3) == phase(3)
        assert phase(3) != phase(4)
        arrivals = phase(3)
        assert len(arrivals) == 30
        offsets = [a.offset for a in arrivals]
        assert offsets == sorted(offsets)
        assert 0.0 <= offsets[0] and offsets[-1] <= 5.0
        # strings are dealt a full pass at a time, and every seed deals
        # the templates in the same rhythm
        first_pass = [a.query.sql for a in arrivals[: len(queries)]]
        assert sorted(first_pass) == sorted(queries)
        assert [a.query.template for a in phase(3)] == [
            a.query.template for a in phase(4)
        ]

    def test_all_queries_covers_each_constant(self):
        q7 = all_queries(("Q7",), DOMAINS)
        assert len(q7) == len(DOMAINS.depts) * len(DOMAINS.ctypes)
        assert len(all_queries(("Q1",), DOMAINS)) == 1
