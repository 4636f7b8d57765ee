"""Scalar numpy ``Generator`` draws served from batches of raw PCG64 output.

Trace synthesis makes one to three scalar draws per request, and a scalar
call on a numpy ``Generator`` costs far more than the arithmetic behind
it.  :class:`DrawStream` pulls raw 64-bit PCG64 outputs in batches
(``bit_generator.random_raw(n)``) and applies numpy's own transforms to
them in Python, so every value, and the order in which raw outputs are
consumed, is exactly what the same calls on the ``Generator`` would give:

* ``random()`` is ``(raw >> 11) * 2**-53`` (numpy's ``next_double``);
* ``chance(p)`` returns a draw equal to ``random() < p``, decided on the
  raw integer: ``raw < ceil(p * 2**53) << 11`` holds exactly when it
  does, so the per-request write flags need no Python-level call;
* ``integers(low, high)`` is numpy's 32-bit Lemire method with rejection
  over PCG64's buffered ``next_uint32``: a raw value yields its low half
  first and keeps its high half for the next 32-bit draw.  A width-1
  range returns ``low`` without drawing;
* ``geometric(p)`` for ``p >= 1/3`` is numpy's search over one double.

For ``p < 1/3`` numpy inverts a ziggurat exponential whose tables are
not reachable from Python.  Those draws resync: the bit generator is
rewound past the batch's unconsumed tail (``advance`` by a negative
delta, which numpy wraps mod 2**128), the tail is dropped,
``Generator.geometric`` draws at the consumed position, and a small
batch starts after it.  Batches grow x4 from :data:`FIRST_BATCH` to
:data:`MAX_BATCH` between resyncs.

The per-request numpy loop this replaces lives on in
``tests/test_generator.py`` as the reference every trace is checked
against (DESIGN.md §18).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from math import ceil
from operator import length_hint
from typing import Callable, Iterator

import numpy as np

from repro.common.errors import InvalidValueError

#: Raw values fetched by the first refill after construction or a resync.
FIRST_BATCH = 16
#: Cap on one refill; each refill quadruples the previous size up to it.
MAX_BATCH = 4096

_LOW32 = 0xFFFFFFFF
#: Widest ``integers`` range served by the 32-bit path.
_SPAN32 = 1 << 32
#: numpy's switch from the search to the ziggurat inversion (the C
#: literal 0.333333333333333333333333 rounds to this double).
_SEARCH_MIN_P = 1.0 / 3.0


class DrawStream:
    """Draws bit-identical to the same calls on ``rng``.

    The draws are closures over one shared raw stream, so a caller can
    bind them once (``random = draws.random``) and call them per request.
    The stream takes over ``rng``'s bit generator: after it is built,
    draw only through it.
    """

    __slots__ = ("random", "chance", "integers", "geometric")

    random: Callable[[], float]
    chance: Callable[[float], Callable[[], bool]]
    integers: Callable[[int, int], int]
    geometric: Callable[[float], int]

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        state = bit_generator.state
        # PCG64's buffered half of a raw value for the next 32-bit draw
        # (-1: none held).
        upper: int = state["uinteger"] if state["has_uint32"] else -1
        batch = FIRST_BATCH
        #: The batch being consumed; its length hint is what is unused.
        tail: Iterator[int] = iter(())

        def batches() -> Iterator[Iterator[int]]:
            nonlocal tail, batch
            while True:
                tail = iter(bit_generator.random_raw(batch).tolist())
                batch = min(batch * 4, MAX_BATCH)
                yield tail

        # One endless iterator over every raw value the stream consumes;
        # it takes each batch's iterator as is, so ``tail`` tracks it.
        raws = chain.from_iterable(batches())
        next_raw = raws.__next__

        def next_uint32() -> int:
            nonlocal upper
            if upper >= 0:
                value = upper
                upper = -1
                return value
            raw = next_raw()
            upper = raw >> 32
            return raw & _LOW32

        def random() -> float:
            return (next_raw() >> 11) * 2.0**-53

        def chance(p: float) -> Callable[[], bool]:
            if not 0.0 <= p <= 1.0:
                raise InvalidValueError(f"chance({p}): p must be in [0, 1]")
            # (raw >> 11) * 2**-53 < p  <=>  raw >> 11 < ceil(p * 2**53)
            # (both sides scale exactly)  <=>  raw < ceil(p * 2**53) << 11.
            limit = ceil(p * 2.0**53) << 11
            return map(limit.__gt__, raws).__next__

        def integers(low: int, high: int) -> int:
            nonlocal upper
            width = high - low
            if not 1 < width <= _SPAN32:
                if width == 1:
                    return low
                raise InvalidValueError(
                    f"integers({low}, {high}): the range must hold 1 to "
                    "2**32 values"
                )
            if upper >= 0:
                scaled = upper * width
                upper = -1
            else:
                raw = next_raw()
                upper = raw >> 32
                scaled = (raw & _LOW32) * width
            if scaled & _LOW32 < width:
                # Lemire's rejection: 2**32 % width biased low words.
                threshold = _SPAN32 % width
                while scaled & _LOW32 < threshold:
                    scaled = next_uint32() * width
            return low + (scaled >> 32)

        def geometric(p: float) -> int:
            nonlocal batch
            if p >= _SEARCH_MIN_P:
                if p > 1.0:
                    raise InvalidValueError(
                        f"geometric({p}): p must be in (0, 1]"
                    )
                uniform = (next_raw() >> 11) * 2.0**-53
                count = 1
                total = product = p
                q = 1.0 - p
                while uniform > total:
                    product *= q
                    total += product
                    count += 1
                return count
            unconsumed = length_hint(tail)
            if unconsumed:
                bit_generator.advance(-unconsumed)
                deque(tail, maxlen=0)
            value = int(rng.geometric(p))
            batch = FIRST_BATCH
            return value

        self.random = random
        self.chance = chance
        self.integers = integers
        self.geometric = geometric
