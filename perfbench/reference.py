"""A fixed pure-Python computation that times the machine, not capchain.

The untraced run starts this in a fresh interpreter right after every
timed `capchain` invocation and reports the invocation's time as a
multiple of this one's (`report_rel`).  Both are pure Python in a fresh
interpreter, so a host that runs everything 1.8 times slower for half a
minute (as a shared 2-core machine does) slows both alike and the
ratio stays put.  The work mirrors the program's two engines: seeded
random draws tallied in a dict, as the simulator does, and rounds of
Fraction multiply-adds over a small vector with denominators that grow
as powers of 6, as the exact evolve loop does.

Never change this file: every `report_rel` ever measured is relative
to it.  It prints one checksum line, which the benchmark checks.
"""

import random
from fractions import Fraction

rng = random.Random(20240917)
tally: dict[int, int] = {}
for _ in range(200_000):
    cell = rng.randrange(64)
    tally[cell] = tally.get(cell, 0) + 1

vector = [Fraction(0)] * 40
vector[20] = Fraction(1)
sixth = Fraction(1, 6)
for _ in range(80):
    moved = [Fraction(0)] * 40
    for cell, mass in enumerate(vector):
        if mass:
            for step in (-2, -1, 1, 2):
                moved[(cell + step) % 40] += mass * sixth
            moved[cell] += mass * (sixth + sixth)
    vector = moved

print(sum(count * cell for cell, count in tally.items()), vector[0].numerator % 1_000_003)
