"""Seeded inputs and the plain-dict oracle.

Everything the program under test receives is generated here from the
``--seed`` argument with the standard library's ``random.Random``, so a
change to the program (including its own workload helpers) cannot change
the traffic.  The oracle is the reference every answer is checked against.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, List, Set, Tuple

#: keys are drawn from ``[0, UNIVERSE)``
UNIVERSE = 1 << 20
#: values are drawn from ``[0, 2**VALUE_BITS)`` (Theorem 7's sigma = 32)
VALUE_BITS = 32
#: popularity skew of the present keys
ZIPF_S = 1.1
#: share of read keys drawn from the stored keys; the rest are absent keys
PRESENT_SHARE = 0.9


class Zipf:
    """Rank sampler: ``P(rank r) ~ (r + 1) ** -s`` over ``n`` ranks."""

    def __init__(self, n: int, s: float = ZIPF_S) -> None:
        self.cumulative = list(
            itertools.accumulate((r + 1) ** -s for r in range(n))
        )

    def draw(self, rng: random.Random) -> int:
        cumulative = self.cumulative
        return bisect.bisect_right(cumulative, rng.random() * cumulative[-1])


class Oracle:
    """A plain dict of the acknowledged contents, plus a list of the live
    keys so popularity ranks and victims can be drawn in O(1).

    ``unknown`` holds keys whose state a failed write left undecided; they
    are never drawn again and their answers are never checked.
    """

    def __init__(self, items: Dict[int, int], rng: random.Random) -> None:
        self.values: Dict[int, int] = dict(items)
        self.live: List[int] = list(items)
        rng.shuffle(self.live)  # rank order: position 0 is the hottest key
        self._pos = {key: i for i, key in enumerate(self.live)}
        self.unknown: Set[int] = set()

    def __len__(self) -> int:
        return len(self.live)

    def add(self, key: int, value: int) -> None:
        if key not in self.values:
            self._pos[key] = len(self.live)
            self.live.append(key)
        self.values[key] = value

    def remove(self, key: int) -> None:
        del self.values[key]
        i = self._pos.pop(key)
        last = self.live.pop()
        if last != key:
            self.live[i] = last
            self._pos[last] = i

    def forget(self, key: int) -> None:
        """Mark ``key`` undecided after a write that raised."""
        if key in self.values:
            self.remove(key)
        self.unknown.add(key)

    def expect(self, key: int) -> Tuple[bool, int]:
        value = self.values.get(key)
        return value is not None, value


def initial_items(rng: random.Random, count: int) -> Dict[int, int]:
    """``count`` distinct keys with random values."""
    keys = rng.sample(range(UNIVERSE), count)
    return {key: rng.getrandbits(VALUE_BITS) for key in keys}


class Traffic:
    """The seeded request stream over one oracle.

    A unit is a list of requests, ``("mget", keys)``, ``("get", key)`` and
    ``("mput", deletes, inserts)``.  Units are drawn one at a time against
    the oracle's current state, so writes acknowledged earlier shape the
    keys drawn later; with the same seed and the same acknowledged writes
    the stream is identical.
    """

    def __init__(
        self,
        oracle: Oracle,
        rng: random.Random,
        *,
        gets: int,
        mget_keys: int,
        mputs: int = 0,
        mput_keys: int = 0,
    ) -> None:
        self.oracle = oracle
        self.rng = rng
        self.gets = gets
        self.mget_keys = mget_keys
        self.mputs = mputs
        self.mput_keys = mput_keys
        self.zipf = Zipf(len(oracle))

    def read_key(self) -> int:
        rng = self.rng
        live = self.oracle.live
        if live and rng.random() < PRESENT_SHARE:
            return live[min(self.zipf.draw(rng), len(live) - 1)]
        return self.absent_key()

    def absent_key(self) -> int:
        values = self.oracle.values
        unknown = self.oracle.unknown
        while True:
            key = self.rng.randrange(UNIVERSE)
            if key not in values and key not in unknown:
                return key

    def unit(self) -> list:
        requests: list = [
            ("mget", [self.read_key() for _ in range(self.mget_keys)])
        ]
        requests.extend(("get", self.read_key()) for _ in range(self.gets))
        for _ in range(self.mputs):
            # Writes come last in a unit: their keys are drawn against
            # the state the unit's reads saw.
            live = self.oracle.live
            deletes = self.rng.sample(live, min(self.mput_keys, len(live)))
            inserts: Dict[int, int] = {}
            while len(inserts) < self.mput_keys:
                key = self.absent_key()
                inserts[key] = self.rng.getrandbits(VALUE_BITS)
            requests.append(("mput", deletes, inserts))
        return requests
