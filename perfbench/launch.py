"""Run one gsverify CLI invocation in this (fresh) interpreter.

    python3 perfbench/launch.py [--setup] [--peak PATH] [--trace PATH [--only NAME,...]] -- ARGV...

The package is imported from ``src`` on ``PYTHONPATH``; the runner sets it.
``--setup`` imports ``gsverify.cli`` and builds the parser, then exits: the
set-up cost every invocation pays.  ``--trace`` wraps the package with the
benchmark's tracer, restores it after the run and writes the spans to PATH.
``--peak`` writes the invocation's peak resident set in KiB to PATH: the
largest of this process's own high-water mark and that of any child it
reaped.  The runner cannot take it from ``wait4``, because a spawned child's
``ru_maxrss`` starts from the spawning process's resident set.
The CLI is called through ``gsverify.cli.run`` rather than
``python -m gsverify.cli``, whose ``__main__`` guard runs before the
functions it calls are defined.
"""

from __future__ import annotations

import resource
import sys


def peak_rss_kib() -> int:
    """High-water RSS of this process since exec, or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(args: list[str]) -> int:
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    try:
        return invoke(opts, argv)
    finally:
        if "--peak" in opts:
            with open(opts[opts.index("--peak") + 1], "w", encoding="ascii") as handle:
                handle.write(f"{peak_rss_kib()}\n")


def invoke(opts: list[str], argv: list[str]) -> int:
    from gsverify import cli

    if "--setup" in opts:
        cli.build_parser()
        return 0
    if "--trace" not in opts:
        return cli.run(argv)
    from tracer import Tracer

    path = opts[opts.index("--trace") + 1]
    only = None
    if "--only" in opts:
        only = frozenset(opts[opts.index("--only") + 1].split(","))
    tracer = Tracer(only)
    tracer.install()
    try:
        return cli.run(argv)
    finally:
        tracer.uninstall()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
