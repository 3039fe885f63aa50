"""Seeded data and query streams for the three workloads.

Everything here is derived from the workload seed through its own
``random.Random``; the program under test only ever sees the generated
rows and SQL text.
"""

from __future__ import annotations

import random

#: Shipment dates; a few fall before every cutoff below, a few after.
DATES = (
    "1975-03-01",
    "1976-11-20",
    "1977-08-14",
    "1978-06-08",
    "1979-12-30",
    "1980-07-04",
    "1981-08-10",
    "1983-05-07",
    "1985-01-15",
    "1986-09-30",
)


def parts_supply_rows(
    rng: random.Random, num_parts: int, num_supply: int
) -> tuple[list[tuple], list[tuple]]:
    """PARTS(PNUM, QOH) and SUPPLY(PNUM, QUAN, SHIPDATE) rows.

    QOH is drawn around the expected shipments per part, so COUNT-style
    correlated predicates select some parts (including zero-count ones);
    one shipment in ten names a PNUM that PARTS lacks.
    """
    per_part = max(1, num_supply // num_parts)
    parts = [
        (pnum, rng.randint(0, 2 * per_part)) for pnum in range(1, num_parts + 1)
    ]
    supply = []
    for _ in range(num_supply):
        if rng.random() < 0.9:
            pnum = rng.randint(1, num_parts)
        else:
            pnum = num_parts + rng.randint(1, max(1, num_parts // 10))
        supply.append((pnum, rng.randint(1, 9), rng.choice(DATES)))
    return parts, supply


# -- analytic-cold -------------------------------------------------------

#: The paper's Figure-1 query types over PARTS/SUPPLY (type-N, type-J,
#: type-JA with COUNT, type-JA with MAX), sent round-robin.
FIGURE1 = (
    (
        "type-N",
        "SELECT PNUM FROM PARTS WHERE PNUM IN "
        "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '1980-01-01')",
    ),
    (
        "type-J",
        "SELECT PNUM FROM PARTS WHERE QOH IN "
        "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    ),
    (
        "type-JA-COUNT",
        "SELECT PNUM FROM PARTS WHERE QOH = "
        "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-01-01')",
    ),
    (
        "type-JA-MAX",
        "SELECT PNUM FROM PARTS WHERE QOH = "
        "(SELECT MAX(QUAN) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-01-01')",
    ),
)


# -- adhoc-small ---------------------------------------------------------

_CMP = ("=", "<>", "<", "<=", ">", ">=")
_CORRELATION = ("=", "<", ">", "<>")
_JA_AGGS = ("COUNT(SHIPDATE)", "COUNT(*)", "SUM(QUAN)", "MAX(QUAN)", "AVG(QUAN)")
_A_AGGS = ("MAX(QUAN)", "MIN(QUAN)", "COUNT(*)", "SUM(QUAN)")

#: Query classes and their shares of the adhoc stream.  Correlated NOT
#: IN is outside NEST-G's reach, so ``auto`` falls back to nested
#: iteration for it.
ADHOC_CLASSES = (
    ("type-A", 8),
    ("type-N", 8),
    ("type-J", 10),
    ("type-JA", 30),
    ("exists", 12),
    ("any-all", 12),
    ("two-level", 10),
    ("not-in-correlated", 10),
)


class AdhocQueries:
    """A seeded stream of nested queries that never repeats."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seen: set[str] = set()
        self._classes = [name for name, _ in ADHOC_CLASSES]
        self._weights = [weight for _, weight in ADHOC_CLASSES]

    def next(self) -> tuple[str, str]:
        """The next (class, sql) pair, distinct from every earlier one."""
        while True:
            kind = self.rng.choices(self._classes, self._weights)[0]
            sql = self._query(kind)
            if sql not in self.seen:
                self.seen.add(sql)
                return kind, sql

    def _date(self) -> str:
        return f"'{self.rng.choice(DATES)}'"

    def _query(self, kind: str) -> str:
        rng = self.rng
        items = rng.choice(("PNUM", "PNUM, QOH", "QOH"))
        predicate = getattr(self, "_" + kind.replace("-", "_"))()
        if rng.random() < 0.6:
            predicate += f" AND QOH {rng.choice(_CMP)} {rng.randint(0, 19)}"
        return f"SELECT {items} FROM PARTS WHERE {predicate}"

    def _type_A(self) -> str:
        rng = self.rng
        return (
            f"QOH {rng.choice(_CMP)} (SELECT {rng.choice(_A_AGGS)} FROM SUPPLY "
            f"WHERE SHIPDATE < {self._date()})"
        )

    def _type_N(self) -> str:
        rng = self.rng
        negate = "NOT " if rng.random() < 0.3 else ""
        return (
            f"PNUM {negate}IN (SELECT PNUM FROM SUPPLY "
            f"WHERE QUAN {rng.choice(_CMP)} {rng.randint(1, 9)})"
        )

    def _quan(self) -> str:
        """An optional extra inner conjunct on QUAN."""
        if self.rng.random() < 0.5:
            return ""
        return f" AND QUAN {self.rng.choice(_CMP)} {self.rng.randint(1, 9)}"

    def _type_J(self) -> str:
        return (
            "QOH IN (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM "
            f"AND SHIPDATE < {self._date()}{self._quan()})"
        )

    def _type_JA(self) -> str:
        rng = self.rng
        return (
            f"QOH {rng.choice(_CMP)} (SELECT {rng.choice(_JA_AGGS)} FROM SUPPLY "
            f"WHERE SUPPLY.PNUM {rng.choice(_CORRELATION)} PARTS.PNUM "
            f"AND SHIPDATE < {self._date()})"
        )

    def _exists(self) -> str:
        rng = self.rng
        keyword = rng.choice(("EXISTS", "NOT EXISTS"))
        return (
            f"{keyword} (SELECT SHIPDATE FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM "
            f"AND QUAN {rng.choice(_CMP)} {rng.randint(1, 9)})"
        )

    def _any_all(self) -> str:
        rng = self.rng
        return (
            f"QOH {rng.choice(_CMP)} {rng.choice(('ANY', 'ALL'))} "
            "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM "
            f"AND SHIPDATE < {self._date()})"
        )

    def _two_level(self) -> str:
        rng = self.rng
        if rng.random() < 0.5:
            return (
                "PNUM IN (SELECT PNUM FROM SUPPLY "
                f"WHERE QUAN {rng.choice(_CMP)} (SELECT COUNT(*) FROM SUPPLY S2 "
                "WHERE S2.PNUM = SUPPLY.PNUM "
                f"AND S2.SHIPDATE < {self._date()}))"
            )
        return (
            f"QOH {rng.choice(_CMP)} (SELECT COUNT(SHIPDATE) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN IN "
            f"(SELECT QUAN FROM SUPPLY S2 WHERE S2.SHIPDATE < {self._date()}))"
        )

    def _not_in_correlated(self) -> str:
        return (
            "QOH NOT IN (SELECT QUAN FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM "
            f"AND SHIPDATE < {self._date()}{self._quan()})"
        )


# -- serving-mixed -------------------------------------------------------

#: The MQO replay pool's inner-chain cutoffs; every read literal is one
#: of them, so shared subplans recur.
CUTOFFS = ("1978-06-01", "1982-01-01", "1986-06-01")

_JA_INNER = (
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {d})"
)

#: Read templates with one date slot ``{d}``: the three outer blocks of
#: the type-JA replay pool, then type-N, EXISTS and a flat join.
READ_TEMPLATES = (
    "SELECT PNUM FROM PARTS WHERE QOH = " + _JA_INNER,
    "SELECT PNUM, QOH FROM PARTS WHERE QOH >= " + _JA_INNER,
    "SELECT QOH FROM PARTS WHERE QOH < " + _JA_INNER,
    "SELECT PNUM FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < {d})",
    "SELECT PNUM FROM PARTS WHERE EXISTS (SELECT SHIPDATE FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {d})",
    "SELECT PARTS.PNUM FROM PARTS, SUPPLY "
    "WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.SHIPDATE < {d}",
)

#: The statement every ``executemany`` call batches (type-JA COUNT).
BATCH_TEMPLATE = READ_TEMPLATES[0]
BATCH_SIZE = 16
#: Cutoffs the batched vectors draw from (distinct per call).
BATCH_DATES = tuple(
    f"{year}-{month:02d}-01" for year in range(1976, 1987) for month in (1, 7)
)

#: The serving operation mix, per 20 operations (70/15/5/10 percent).
SERVING_MIX = (("cached", 14), ("prepared", 3), ("batch", 1), ("insert", 2))


def read_shapes() -> list[tuple[int, str | None]]:
    """The twelve read shapes as (template index, cutoff), hottest first.

    Nine type-JA shapes (3 outer blocks x 3 inner chains) fix their
    cutoff; type-N, EXISTS and the flat join (cutoff None) draw one of
    the same cutoffs per call.  The ranking is fixed, chain by chain,
    so the hottest shapes share one inner chain whatever the seed.
    """
    shapes: list[tuple[int, str | None]] = [
        (t, d) for d in CUTOFFS for t in range(3)
    ]
    return shapes + [(t, None) for t in range(3, 6)]


def literal(template: str, date: str) -> str:
    """The template with ``date`` as a SQL string literal."""
    return template.format(d=f"'{date}'")


def marker(template: str) -> str:
    return template.format(d="?")


#: Draws per deck of each read shape, by popularity rank: Zipf with
#: exponent 1 (12/rank, rounded to whole draws), i.e. (12, 6, 4, 3, 2,
#: 2, 2, 2, 1, 1, 1, 1).  An assumption, not a measured trace; it is
#: close to YCSB's default Zipfian constant of 0.99.
SHAPE_COUNTS = tuple(int(12 / rank + 0.5) for rank in range(1, 13))


class Deck:
    """Seeded draws that follow the given counts exactly, deck by deck.

    Each deck holds every item ``count`` times in a shuffled order, so
    every run of a few decks sees the same mix; only the order varies
    with the seed.
    """

    def __init__(self, rng: random.Random, counted) -> None:
        self.rng = rng
        self.items = [item for item, count in counted for _ in range(count)]
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()
