"""Peak-memory probe, run in a fresh interpreter by the benchmark.

Runs one ``playrank`` command in process (``playrank.cli.main``), then
prints the process's peak RSS in MB as the last line of its standard output.
The figure is ``VmHWM`` from /proc/self/status, the high-water mark of this
process's own memory: ``ru_maxrss`` would not do, because a child started
with vfork and exec inherits its parent's high-water mark, and the parent
here holds every input and expected value of the workload.

Usage: python memprobe.py <playrank command and arguments>
"""

import sys
from pathlib import Path

from playrank.cli import main

code = main(sys.argv[1:])
if code:
    sys.exit(f"memprobe: playrank {sys.argv[1]} exited with {code}")
for line in Path("/proc/self/status").read_text().splitlines():
    if line.startswith("VmHWM:"):
        print(int(line.split()[1]) / 1024.0)
        break
else:
    sys.exit("memprobe: no VmHWM in /proc/self/status")
