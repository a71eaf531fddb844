"""Set-up probe: one fresh process, from spawn to the first timed call.

Usage: ``python3 perfbench/probe.py <workload> <spawn perf_counter>``.  Prints
two numbers: the seconds from the parent's spawn stamp (``time.perf_counter``
reads the system-wide monotonic clock, so the two processes share it) to the
moment the workload's system is built and ``deploy`` could start, and the same
time scaled to the reference speed by a pure-Python speed probe run before and
after (see ``clock.py``; the probes' own time is left out).
"""

import sys
import time

import clock
import env

env.pin()
env.use_source_tree()


def main() -> None:
    """Import the program, build the workload's set-up, print the elapsed time."""
    name, spawned = sys.argv[1], float(sys.argv[2])
    t0 = time.perf_counter()
    before = clock.python_probe()
    probing = time.perf_counter() - t0
    import workloads

    workloads.setup(name).new_system()
    elapsed = time.perf_counter() - spawned - probing
    after = clock.python_probe()
    scale = clock.REFERENCE_PY_S / (0.5 * (before + after))
    print(f"{elapsed:.6f} {elapsed * scale:.6f}")


if __name__ == "__main__":
    main()
