"""Start one pubtfp CLI call right after measuring the machine's speed.

    launch.py STAMP_FILE ARG...

Times the reference task of ``speed.py``, writes "<slowdown> <clock>" to
STAMP_FILE (the clock is ``time.perf_counter``, which is system-wide on
Linux), then replaces itself with ``python -m pubtfp.cli ARG...``. The CLI
thus runs in the very process, and on the same CPU, whose speed was just
measured; the caller times it from the stamped clock to its exit.
"""

import os
import sys
import time

import speed

if __name__ == "__main__":
    factor = speed.slowdown()
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        handle.write(f"{factor!r} {time.perf_counter()!r}")
    os.execv(sys.executable, [sys.executable, "-m", "pubtfp.cli", *sys.argv[2:]])
