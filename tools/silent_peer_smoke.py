#!/usr/bin/env python3
"""Checks that `smltcc --connect` gives up on a peer that never answers.

Usage: tools/silent_peer_smoke.py path/to/smltcc

A loopback listener accepts the client's connection and never writes.
The client must exit non-zero within its 5 s reply bound (plus start-up
slack) instead of blocking until it is killed.
"""

import socket
import subprocess
import sys
import threading
import time

BOUND_S = 5  # server::kReplyTimeoutMs
SLACK_S = 5

smltcc = sys.argv[1]
listener = socket.socket()
listener.bind(("127.0.0.1", 0))
listener.listen(4)
held = []
threading.Thread(target=lambda: held.append(listener.accept()),
                 daemon=True).start()

target = "--connect=tcp://127.0.0.1:%d" % listener.getsockname()[1]
t0 = time.monotonic()
try:
    rc = subprocess.run([smltcc, target, "--remote-ping"],
                        capture_output=True,
                        timeout=BOUND_S + 4 * SLACK_S).returncode
except subprocess.TimeoutExpired:
    sys.exit("FAIL: smltcc --connect still blocked on a silent peer")
took = time.monotonic() - t0
if rc == 0:
    sys.exit("FAIL: smltcc --connect to a silent peer exited 0")
if took > BOUND_S + SLACK_S:
    sys.exit("FAIL: smltcc --connect took %.1f s to give up" % took)
print("silent peer: exit %d after %.1f s" % (rc, took))
