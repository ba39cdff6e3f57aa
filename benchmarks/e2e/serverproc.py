"""A ``repro serve`` subprocess that cannot leak or hang.

The server is started through the public CLI on an ephemeral port; its
bound URL is parsed from the stderr banner (stderr goes to a log file,
which is polled, so no pipe can fill up or block).  Readiness is polled
with a *fresh* ``ServiceClient`` per attempt: after one
``ConnectionRefusedError`` a client stays wedged in
``http.client.CannotSendRequest`` (see README, Findings).  ``stop`` ends
the server through its one clean way down, SIGINT, and makes sure the
signal arrives.
"""

from __future__ import annotations

import re
import signal
import socket
import subprocess
import sys
import time

from repro.service.client import ServiceClient

_BANNER = re.compile(r"serving .* on (http://\S+)")


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    def __init__(self, store_dir: str, env: dict, log_path: str) -> None:
        self.store_dir = store_dir
        self.env = env
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        """Start serving; returns once ``/healthz`` answers."""
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "serve",
                    self.store_dir,
                    "--port",
                    "0",
                    "--backend",
                    "columnar",
                ],
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                # SIGINT is the server's only clean way down.  A benchmark
                # started as a shell background job inherits it ignored,
                # and every stop() would then wait out its timeout.
                preexec_fn=_default_sigint,
            )
        deadline = time.monotonic() + timeout
        try:
            while self.url is None:
                with open(self.log_path, "r", errors="replace") as fp:
                    match = _BANNER.search(fp.read())
                if match:
                    self.url = match.group(1)
                    break
                self._check_alive(deadline, "print its banner")
                time.sleep(0.005)
            while True:
                try:
                    with ServiceClient(self.url, timeout=5.0) as probe:
                        probe.health()
                    return self
                except OSError:
                    self._check_alive(deadline, "answer /healthz")
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def _check_alive(self, deadline: float, what: str) -> None:
        if self.proc.poll() is not None:
            with open(self.log_path, "r", errors="replace") as fp:
                tail = fp.read()[-2000:]
            raise RuntimeError(
                f"repro serve exited with {self.proc.returncode} "
                f"before it could {what}:\n{tail}"
            )
        if time.monotonic() > deadline:
            raise TimeoutError(f"repro serve did not {what} in time")

    def stop(self, timeout: float = 20.0) -> int | None:
        """Clean shutdown (SIGINT → session close); always reaps the child.

        Two properties of ``repro serve`` are worked around here (README,
        Findings).  Its main thread sleeps in ``time.sleep``, and CPython
        runs a signal handler only there: a SIGINT the kernel hands to a
        connection thread that is just ending is swallowed, so the signal
        is sent again until the log shows the interrupt was taken — and
        never after, or it would cut the close short.  Then
        ``QueryServer.stop`` waits for ``serve_forever`` to leave a 0.5 s
        poll; a connection ends the poll at once (13 servers stop per
        run: 6 s of the driver's budget).
        """
        proc = self.proc
        if proc is None:
            return None
        deadline = time.monotonic() + timeout
        signalled = -1.0
        while proc.poll() is None:
            now = time.monotonic()
            if now > deadline:
                proc.kill()
                break
            with open(self.log_path, "r", errors="replace") as fp:
                interrupted = "shutting down" in fp.read()
            if interrupted:
                self._wake_poll()
            elif now - signalled > 0.25:
                proc.send_signal(signal.SIGINT)
                signalled = now
            try:
                proc.wait(0.005)
            except subprocess.TimeoutExpired:
                pass
        proc.wait()
        self.proc = None
        return proc.returncode

    def _wake_poll(self) -> None:
        if self.url is None:
            return
        host, port = self.url.rsplit("/", 1)[1].rsplit(":", 1)
        try:
            socket.create_connection((host, int(port)), timeout=1.0).close()
        except OSError:
            pass
