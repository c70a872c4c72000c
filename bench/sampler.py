"""Speed sampler that shares the benchmark's CPU.

    python3 bench/sampler.py

Run by run.py on the CPU the benchmark is pinned to.  Every 50 ms it
times a fixed ~0.5 ms pure-Python loop and keeps (end time, duration).
On SIGTERM it prints the samples as JSON and exits.  The measuring VM's
speed swings by about 1.5x over seconds to minutes; a loop sharing the
job's CPU slows down with it, so the ratio of its duration to a fixed
reference time tells how much slower a stretch of a job ran.
"""

import json
import signal
import sys
import time

UNIT = 6_000      # loop iterations, about 0.45 ms uncontended
PERIOD = 0.05     # seconds between samples; ~1% of the CPU


class Stop(Exception):
    pass


def _stop(signum, frame):
    raise Stop


def main():
    samples = []
    signal.signal(signal.SIGTERM, _stop)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    try:
        while True:
            t0 = time.perf_counter()
            acc = 0
            for i in range(UNIT):
                acc += i * i % 7
            t1 = time.perf_counter()
            samples.append((t1, t1 - t0))
            time.sleep(PERIOD)
    except Stop:
        pass
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
