"""Fixed pure-Python reference program: the benchmark's yardstick for host speed.

    python3 perfbench/reference.py STEPS

Runs STEPS rounds of integer arithmetic, tuple building and dict updates,
the same kinds of interpreter work gsverify does, and prints a checksum.
It imports nothing beyond ``sys``, so its time is interpreter start-up plus
a fixed amount of bytecode.  The runner launches it in a fresh interpreter
around every timed invocation and reports each invocation's time as a
multiple of it (``DESIGN.md``, "Noise and bounds").
"""

from __future__ import annotations

import sys


def work(steps: int) -> int:
    state = 12345
    counts: dict[tuple[int, int], int] = {}
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = (state >> 16) % 27, state % 3
        counts[key] = counts.get(key, 0) + 1
    return sum(k[0] * 7 + k[1] * v for k, v in counts.items()) ^ state


if __name__ == "__main__":
    print(work(int(sys.argv[1])))
