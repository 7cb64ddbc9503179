"""Host ``serve`` with layer spans installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_PREFIX serve MODEL [FLAGS]``

Installs :mod:`tracer`'s wrappers, then runs the unchanged CLI.  When
``serve`` returns (it drains and exits on SIGTERM) the spans are written
to ``SPANS_PREFIX.npy``; each forked shard child writes
``SPANS_PREFIX.<pid>.npy`` as it exits.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from tracer import Recorder, install, trace_shard_children  # noqa: E402


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    trace_shard_children(recorder, prefix)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(prefix + ".npy")


if __name__ == "__main__":
    sys.exit(main())
