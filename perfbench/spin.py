"""Keep one CPU busy at the lowest scheduling priority.

Run as ``python3 perfbench/spin.py CPU`` while the gateway, pinned to that
CPU, is measured.  Any runnable task preempts a ``SCHED_IDLE`` one at
once, so the gateway loses no time to it; but the CPU never goes idle,
so an ack's latency does not include the virtual machine waking an idle
CPU, which varied the sub-millisecond latencies by a third between runs.
The spinner exits by itself if the process that started it goes away.
"""

import os
import sys

if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(1_000_000):
            pass
