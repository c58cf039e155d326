"""Run one command; print its wall time, exit code and peak RSS as JSON.

Usage: ``python measure_child.py STDERR_FILE -- COMMAND...``

The command's stdout is discarded and its stderr goes to STDERR_FILE. The
JSON line has ``wall_s`` (launch to exit), ``exit`` and ``rss_mib``
(``ru_maxrss`` from ``os.wait4``). On SIGTERM the command is killed and
reaped first.

The benchmark launches every measured child through this small process
because on Linux a child's ``ru_maxrss`` also counts the memory image it
was started from: launched straight from the benchmark harness, the
harness's own peak RSS would set a floor under the child's.
"""

import json
import os
import signal
import subprocess
import sys
from time import perf_counter


class _Stop(Exception):
    pass


def _on_sigterm(signum, frame):
    raise _Stop()


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: measure_child.py STDERR_FILE -- COMMAND...",
              file=sys.stderr)
        return 1
    signal.signal(signal.SIGTERM, _on_sigterm)
    with open(argv[0], "w", encoding="utf-8") as err:
        started = perf_counter()
        proc = subprocess.Popen(argv[2:], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - started
    print(json.dumps({"wall_s": wall,
                      "exit": os.waitstatus_to_exitcode(status),
                      "rss_mib": usage.ru_maxrss / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
