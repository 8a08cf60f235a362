"""Run a command and fail when its peak resident set passes a ceiling.

    python scripts/peak_rss.py CEILING_MIB COMMAND [ARG ...]

The peak is that of the largest process the command started (Linux's
``RUSAGE_CHILDREN``), so generate a command's input apart from it: a
generator run under this wrapper would set the peak itself.  The command's
own output passes through; the peak goes to stderr.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    ceiling, command = float(argv[0]), argv[1:]
    code = subprocess.run(command).returncode
    if code:
        return code
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak:.0f} MiB, ceiling {ceiling:g} MiB", file=sys.stderr)
    return 0 if peak < ceiling else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
