"""How fast the host runs right now: a fixed yardstick task.

A shared virtual machine's speed drifts.  On a 2-vCPU VM the same
workload ran 1.6 to 2 times slower from one minute to the next, and the
program's set-up slowed with it, so no figure taken from a single run's
clock could stay within a 25% band over ten runs.  BENCH_E2E therefore
reports every time as a *reference-host* time: the time as measured,
multiplied by ``REFERENCE_S / y``.  Here ``y`` is the mean time of the
yardstick task below over timings taken next to that work.  A closed
loop reads the yardstick right before each query: a query's latency
takes that reading's own ``y``, since a percentile picks single queries,
and totals (CPU per query, queries per second) take the mean over all
of the run's readings.  The open loop reads it in the server's idle
gaps and around each phase, and its queries run on worker threads, so
all its figures take the run's mean.  Set-up takes the mean of readings
around its phases.  ``REFERENCE_S`` is a fixed constant close to what
the task takes on a quiet 2-vCPU VM.  When the
host's neighbours slow it down, both the measured time and ``y`` grow,
and the ratio stays put; when the program gets slower, only the
measured time grows.  The times as measured are printed beside them.

The task is the interpreter work the program does most (parsing HTML
with the standard library's ``html.parser``, building dicts, sorting
strings) on a fixed document.  It imports nothing from the program, so
no change to the program can change it.  It is timed by the thread's
own CPU clock with the garbage collector off, and only while the program
is idle (between queries, phases and builds): a bigger heap does not
change its reading, nor does a program thread that holds the
interpreter lock meanwhile.
"""

from __future__ import annotations

import gc
import statistics
import time
from html.parser import HTMLParser

#: the yardstick task's CPU time on the reference host
REFERENCE_S = 0.002
#: timings per reading
REPEATS = 3

_DOCUMENT = "".join(
    f'<li><a href="/course/{i}.html">Course {i}</a> <b>{i % 7}</b> '
    f"<i>Description {i * 31}</i></li>"
    for i in range(60)
)


class _Rows(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.rows: list[dict] = []

    def handle_starttag(self, tag, attrs) -> None:
        self.rows.append({"tag": tag, "attrs": dict(attrs), "text": []})

    def handle_data(self, data) -> None:
        if self.rows:
            self.rows[-1]["text"].append(data.strip())


def task() -> list[str]:
    """The fixed work: parse the document and sort a key per element."""
    parser = _Rows()
    parser.feed(_DOCUMENT)
    parser.close()
    return sorted(row["tag"] + "".join(row["text"]) for row in parser.rows)


class Yardstick:
    """Timings of :func:`task` spread over a stretch of the run.

    The host flips between fast and slow spells within milliseconds as
    well as over minutes, so a stretch's speed is the *mean* of many
    timings taken all through it, not one reading."""

    def __init__(self) -> None:
        self.timings: list[float] = []

    def read(self, repeats: int = REPEATS) -> float:
        """Time :func:`task` ``repeats`` times by the thread's CPU clock,
        with the garbage collector off: a collection would cost in
        proportion to the program's heap, and a bigger heap must not read
        as a slower host.  The task frees what it allocates, so it leaves
        the collector no debt.  Returns this reading's own scale, for the
        work that follows it at once."""
        enabled = gc.isenabled()
        gc.disable()
        took = []
        try:
            for _ in range(repeats):
                start = time.thread_time()
                task()
                took.append(time.thread_time() - start)
        finally:
            if enabled:
                gc.enable()
        self.timings.extend(took)
        return REFERENCE_S / max(statistics.fmean(took), 1e-9)

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.timings) if self.timings else REFERENCE_S

    @property
    def scale(self) -> float:
        """Multiply a time measured in this stretch by this to get the
        reference-host time (1.0 before any reading)."""
        return REFERENCE_S / self.mean_s
