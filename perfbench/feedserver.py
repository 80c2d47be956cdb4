"""Mock stream server process: the load generator of the ingest workload.

Usage: python3 perfbench/feedserver.py FEED.jsonl TRUTH.json

Loads the feed once and prints ``ready``. Each ``new`` line on stdin
stops the previous server and starts a fresh MockStreamServer with the
scripted disconnect, rewind and keep-alives from TRUTH, then prints its
port. EOF or ``quit`` stops the server and exits. The server sends as
fast as TCP accepts; the collector's bounded queue pushes back on it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eventpulse.mockserver import MockStreamServer  # noqa: E402


def main() -> None:
    with open(sys.argv[1], "rb") as handle:
        lines = handle.read().split(b"\n")[:-1]
    truth = json.loads(Path(sys.argv[2]).read_text("utf-8"))
    print("ready", flush=True)
    server = None
    try:
        for command in sys.stdin:
            if server is not None:
                server.stop()
                server = None
            if command.strip() != "new":
                break
            server = MockStreamServer(
                lines,
                disconnect_after=[truth["disconnect_after"]],
                rewind_on_reconnect=truth["rewind"],
                keepalive_every=truth["keepalive_every"],
            )
            _host, port = server.start()
            print(port, flush=True)
    finally:
        if server is not None:
            server.stop()


if __name__ == "__main__":
    main()
