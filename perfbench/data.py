"""Seeded inputs of the PIPELINE benchmark: customer rows, noise, update streams.

The benchmark generates its own inputs instead of calling the package's
dataset helpers, so a change to the program can never change what the
benchmark feeds it.  The relation is the paper's running example,
``customer(NAME, CNT, CITY, ZIP, STR, CC, AC)``, with the paper's CFDs
phi1..phi4.  Addresses come from a pool of about ``size / 3`` postal codes,
so every ZIP is shared by about three tuples and a noisy CITY or STR cell
makes a small, local violating group.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

ATTRIBUTES = ("NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC")

#: the paper's CFDs phi1..phi4 in the textual syntax
CFDS = (
    "customer: [CNT=_, ZIP=_] -> [CITY=_]",
    "customer: [CNT='UK', ZIP=_] -> [STR=_]",
    "customer: [CC=_] -> [CNT=_]",
    "customer: [CC='44'] -> [CNT='UK'] ; [CC='01'] -> [CNT='US']",
)

#: country -> (country code, [(city, area code), ...])
GEOGRAPHY: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {
    "UK": ("44", [("EDI", "131"), ("LDN", "020"), ("GLA", "141"), ("MAN", "161")]),
    "US": ("01", [("NYC", "212"), ("CHI", "312"), ("SFO", "415"), ("BOS", "617")]),
    "NL": ("31", [("AMS", "020"), ("RTM", "010"), ("UTR", "030")]),
    "FR": ("33", [("PAR", "01"), ("LYO", "04"), ("MRS", "04")]),
}
CITIES = tuple(city for _code, cities in GEOGRAPHY.values() for city, _ac in cities)
_WORDS = ("Mayfield", "Crichton", "Mountain", "High", "Station", "Church",
          "Park", "Victoria", "Queen", "King", "Mill", "North", "South")
_SUFFIXES = ("Rd", "St", "Ave", "Ln", "Way", "Pl")
_FIRST = ("Mike", "Rick", "Joe", "Mary", "Anna", "Bob", "Carol", "Dave", "Ella")
_LAST = ("Smith", "Jones", "Brown", "Wilson", "Taylor", "Clark", "Lewis", "Young")

Row = Dict[str, str]


class CustomerGenerator:
    """Clean customer rows over a fixed address pool (phi1..phi4 hold).

    The pool depends only on ``size`` and ``seed``, so an update stream
    built with the relation's seed inserts customers at the relation's
    own addresses; ``rng`` draws the rows.
    """

    def __init__(self, size: int, seed: int, rng: random.Random):
        self.rng = rng
        pool_rng = random.Random(seed)
        countries = list(GEOGRAPHY)
        self.addresses = []
        for index in range(max(size // 3, 8)):
            country = countries[index % len(countries)]
            code, cities = GEOGRAPHY[country]
            city, area = cities[pool_rng.randrange(len(cities))]
            street = f"{pool_rng.choice(_WORDS)} {pool_rng.choice(_SUFFIXES)}"
            zip_code = f"{city[:2]}{index:05d}"
            self.addresses.append((country, code, city, area, zip_code, street))

    def row(self) -> Row:
        country, code, city, area, zip_code, street = self.rng.choice(self.addresses)
        return {
            "NAME": f"{self.rng.choice(_FIRST)} {self.rng.choice(_LAST)}",
            "CNT": country,
            "CITY": city,
            "ZIP": zip_code,
            "STR": street,
            "CC": code,
            "AC": area,
        }

    def rows(self, count: int) -> List[Row]:
        return [self.row() for _ in range(count)]


def other_city(city: str, rng: random.Random) -> str:
    """A city name different from ``city``."""
    choice = rng.choice(CITIES)
    while choice == city:
        choice = rng.choice(CITIES)
    return choice


def add_noise(
    rows: List[Row],
    rng: random.Random,
    rate: float = 0.03,
    attributes: Sequence[str] = ("CITY", "STR"),
) -> int:
    """Corrupt a ``rate`` share of the given cells in place; returns the count.

    Half of the corruptions swap in another valid value of the column, half
    are one-letter typos, so both kinds of dirty values appear.
    """
    pools = {attr: sorted({row[attr] for row in rows}) for attr in attributes}
    corrupted = 0
    for row in rows:
        for attr in attributes:
            if rng.random() >= rate:
                continue
            old = row[attr]
            if rng.random() < 0.5 and len(pools[attr]) > 1:
                new = rng.choice(pools[attr])
                while new == old:
                    new = rng.choice(pools[attr])
            else:
                position = rng.randrange(len(old))
                new = old[:position] + rng.choice("XQZ") + old[position + 1:]
            row[attr] = new
            corrupted += 1
    return corrupted


def dirty_customers(size: int, seed: int) -> List[Row]:
    """``size`` customer rows with 3 % noise on CITY and STR."""
    rng = random.Random(seed + 1)
    rows = CustomerGenerator(size, seed, rng).rows(size)
    add_noise(rows, rng)
    return rows


class UpdateStream:
    """A seeded stream of 16-update batches over a live tid set.

    Every batch holds 11 modifies, 3 inserts and 2 deletes (70/20/10 % of
    16, rounded), in a seeded order.  A modify sets CITY to another valid
    city, which breaks phi1 in the tuple's postal-code group whenever the
    group has other members.  An insert adds a customer at one of the
    relation's addresses; a delete removes a live tuple.  Modified and
    deleted tids are live and distinct within a batch.

    One modify of every batch targets a tuple whose postal code has exactly
    one other live customer, and gives it a city that sorts before the
    partner's; the other targets are drawn uniformly.  That group becomes a
    1:1 tie between an updated and a trusted value, and the program breaks
    cost ties by value order, so the incremental repair picks the updated
    value, may not write the trusted cell, and runs its full round budget.
    Drawn uniformly, about half of the batches hold such a tie, and batch
    cost swings between two rounds and the full budget, so any figure over
    a few batches would move by 10x with the seed.  Pinning one such tie
    per batch makes every batch the same kind of work.

    The stream knows each tuple's postal code from the rows it was given
    and from its own inserts, whose tids the caller reports through
    :meth:`inserted`; it never reads the program's state.
    """

    MODIFIES, INSERTS, DELETES = 11, 3, 2

    def __init__(self, rows: Sequence[Row], tids: Sequence[int], size: int, seed: int):
        self.rng = random.Random(seed + 2)
        self.generator = CustomerGenerator(size, seed, random.Random(seed + 3))
        self.city = {address[4]: address[2] for address in self.generator.addresses}
        self.zip_of: Dict[int, str] = {}
        self.members: Dict[str, set] = {}
        self.live: List[int] = []
        #: tids whose CITY is known to be their address's city: not noisy
        #: when given, and never modified by the stream
        self.trusted: set = set()
        self._add(tids, rows)

    def _add(self, tids: Sequence[int], rows: Sequence[Row]) -> None:
        for tid, row in zip(tids, rows):
            self.zip_of[tid] = row["ZIP"]
            self.members.setdefault(row["ZIP"], set()).add(tid)
            self.live.append(tid)
            if row["CITY"] == self.city[row["ZIP"]]:
                self.trusted.add(tid)

    def _modify(self, tid: int, city: str = "") -> Tuple[str, object]:
        self.trusted.discard(tid)
        city = city or other_city(self.city[self.zip_of[tid]], self.rng)
        return ("modify", (tid, {"CITY": city}))

    def next_batch(self) -> List[Tuple[str, object]]:
        """One batch as ``(kind, payload)`` pairs: insert/modify/delete."""
        first = min(CITIES)
        pairs = sorted(
            code for code, tids in self.members.items()
            if len(tids) == 2 and tids <= self.trusted and self.city[code] != first
        )
        code = self.rng.choice(pairs)
        pair = sorted(self.members[code])
        tie = self.rng.choice(pair)
        # the partner stays untouched, so the tie is still there when repaired
        picked = set(pair)
        earlier = [city for city in CITIES if city < self.city[code]]
        batch = [self._modify(tie, self.rng.choice(earlier))]
        kinds = ["modify"] * (self.MODIFIES - 1) + ["delete"] * self.DELETES
        for kind in kinds:
            tid = self.live[self.rng.randrange(len(self.live))]
            while tid in picked:
                tid = self.live[self.rng.randrange(len(self.live))]
            picked.add(tid)
            batch.append(self._modify(tid) if kind == "modify" else ("delete", tid))
        batch += [("insert", self.generator.row()) for _ in range(self.INSERTS)]
        self.rng.shuffle(batch)
        deleted = {payload for kind, payload in batch if kind == "delete"}
        self.live = [tid for tid in self.live if tid not in deleted]
        for tid in deleted:
            self.members[self.zip_of.pop(tid)].discard(tid)
        return batch

    def inserted(self, tids: Sequence[int], rows: Sequence[Row]) -> None:
        self._add(tids, rows)
