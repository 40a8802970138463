"""Seeded inputs for BENCH_E2E: query strings, site writes, arrival times.

Everything here is a pure function of the seed and of plain value
domains, so the same seed always yields the same schedule and the
program under test receives only the generated strings, write operations
and due times.  Nothing in this module imports the system under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

#: The seven ALG-1 templates (benchmarks/bench_optimizer.py Q1-Q7), with
#: the constants of Q2, Q5, Q6 and Q7 lifted into placeholders.
TEMPLATES: dict[str, str] = {
    "Q1": "SELECT DName FROM Dept",
    "Q2": "SELECT PName, email FROM Professor WHERE Rank = '{rank}'",
    "Q3": "SELECT CName, Session, Type FROM Course",
    "Q4": "SELECT CName, PName FROM CourseInstructor",
    "Q5": (
        "SELECT Professor.PName FROM Professor, ProfDept "
        "WHERE Professor.PName = ProfDept.PName "
        "AND ProfDept.DName = '{dept}'"
    ),
    "Q6": (
        "SELECT Course.CName, Description FROM Professor, CourseInstructor, "
        "Course WHERE Professor.PName = CourseInstructor.PName "
        "AND CourseInstructor.CName = Course.CName "
        "AND Rank = '{rank}' AND Session = '{session}'"
    ),
    "Q7": (
        "SELECT Professor.PName, email FROM Course, CourseInstructor, "
        "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
        "AND CourseInstructor.PName = Professor.PName "
        "AND Professor.PName = ProfDept.PName "
        "AND ProfDept.DName = '{dept}' AND Type = '{ctype}'"
    ),
}


#: an open-loop arrival falls within this share of its slot's length
#: around the slot's middle
JITTER = 0.2


@dataclass(frozen=True)
class Domains:
    """The site's values the templates draw their constants from, and
    the page counts the writer picks its targets from."""

    depts: tuple[str, ...]
    ranks: tuple[str, ...]
    sessions: tuple[str, ...]
    ctypes: tuple[str, ...]
    n_profs: int
    n_courses: int


@dataclass(frozen=True)
class Query:
    template: str
    sql: str


@dataclass(frozen=True)
class Write:
    """One content update: ``kind`` names the page kind and field,
    ``target`` indexes the site's record list of that kind."""

    kind: str  # course_description | course_type | prof_rank | dept_address
    target: int
    value: str


@dataclass(frozen=True)
class Step:
    """One closed-loop step: a read, then the writes that follow it."""

    query: Query
    writes: tuple[Write, ...]


@dataclass(frozen=True)
class Arrival:
    """One open-loop request, due ``offset`` seconds after its phase
    starts."""

    offset: float
    query: Query
    tenant: str


def instantiate(template: str, rng: random.Random, domains: Domains) -> Query:
    """Fill ``template``'s placeholders with values drawn from ``domains``."""
    values = {
        "rank": rng.choice(domains.ranks),
        "dept": rng.choice(domains.depts),
        "session": rng.choice(domains.sessions),
        "ctype": rng.choice(domains.ctypes),
    }
    return Query(template, TEMPLATES[template].format(**values))


def all_queries(templates: Sequence[str], domains: Domains) -> list[str]:
    """Every distinct string ``templates`` can produce over ``domains``."""
    out: dict[str, None] = {}
    for name in templates:
        for rank in domains.ranks:
            for dept in domains.depts:
                for session in domains.sessions:
                    for ctype in domains.ctypes:
                        out[TEMPLATES[name].format(
                            rank=rank, dept=dept, session=session, ctype=ctype
                        )] = None
    return list(out)


def random_write(rng: random.Random, domains: Domains, serial: int) -> Write:
    """A write to one page picked uniformly over course, professor and
    department pages; every write bumps the page's modification date."""
    pages = domains.n_courses + domains.n_profs + len(domains.depts)
    pick = rng.randrange(pages)
    if pick < domains.n_courses:
        if rng.random() < 0.5:
            return Write("course_description", pick, f"Revision {serial}.")
        return Write("course_type", pick, rng.choice(domains.ctypes))
    pick -= domains.n_courses
    if pick < domains.n_profs:
        return Write("prof_rank", pick, rng.choice(domains.ranks))
    pick -= domains.n_profs
    return Write("dept_address", pick, f"{serial} Revision Way")


def closed_loop_rounds(
    seed: int,
    templates: Sequence[str],
    domains: Domains,
    writes_per_query: int = 0,
) -> Iterator[list[Step]]:
    """An endless stream of rounds.  Each round runs every template once,
    in the given order with seeded constants, so every round has the same
    mix and the same rhythm of reads; ``writes_per_query`` seeded writes
    follow each read."""
    rng = random.Random(seed)
    serial = 0
    while True:
        steps = []
        for name in templates:
            query = instantiate(name, rng, domains)
            writes = []
            for _ in range(writes_per_query):
                serial += 1
                writes.append(random_write(rng, domains, serial))
            steps.append(Step(query, tuple(writes)))
        yield steps


def deal_order(
    rng: random.Random, queries: Sequence[str], templates: dict[str, str]
) -> list[str]:
    """One pass over ``queries``: each template's strings in a seeded
    order, the templates interleaved evenly, so that every prefix of the
    pass has (nearly) the same template mix whatever the seed."""
    groups: dict[str, list[str]] = {}
    for sql in queries:
        groups.setdefault(templates[sql], []).append(sql)
    keyed = []
    for order, group in enumerate(groups.values()):
        rng.shuffle(group)
        keyed.extend(
            ((k + 0.5) / len(group), order, sql) for k, sql in enumerate(group)
        )
    return [sql for _, _, sql in sorted(keyed)]


def open_loop_phase(
    seed: int,
    rate: float,
    duration: float,
    queries: Sequence[str],
    templates: dict[str, str],
    tenants: Sequence[str],
) -> list[Arrival]:
    """``round(rate * duration)`` arrivals over ``duration`` seconds, one
    per equal slot, at a seeded instant within ``JITTER`` of a slot
    length around the slot's middle: every seed offers the same load,
    and bursts come from the rate, not from chance.  The strings are dealt
    in passes over ``queries`` (:func:`deal_order`); tenants are picked
    uniformly.  ``templates`` maps each string to its template name."""
    rng = random.Random(f"{seed}:{rate}:{duration}")
    count = round(rate * duration)
    slot = duration / count if count else 0.0
    deck: list[str] = []
    arrivals = []
    for index in range(count):
        if not deck:
            deck = deal_order(rng, queries, templates)[::-1]
        sql = deck.pop()
        arrivals.append(
            Arrival(
                (index + 0.5 + JITTER * (2 * rng.random() - 1)) * slot,
                Query(templates[sql], sql),
                rng.choice(tenants),
            )
        )
    return arrivals
