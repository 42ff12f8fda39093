"""Child processes of the benchmark: launch, read lines with a deadline,
stop and reap.  Every child runs from the repository root with ``src``
on its import path, and its stderr goes to a log file under
``.blitzbench/logs`` so a failure can be shown without a full pipe
ever blocking the child."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".blitzbench"


class ChildError(RuntimeError):
    """A child process failed to start, stalled or exited badly."""


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    # A fixed hash seed keeps set and dict layouts, and so host time,
    # the same from run to run; a caller's own setting wins.
    env.setdefault("PYTHONHASHSEED", "0")
    return env


class Child:
    """One child process whose stdout is read line by line."""

    def __init__(self, argv: Sequence[str], name: str) -> None:
        logs = WORK / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.err_path = logs / f"{name}.err"
        self._err = open(self.err_path, "wb")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._err,
        )
        self._buf = b""

    def read_line(self, timeout: float) -> Optional[str]:
        """The next stdout line, or None at EOF or after ``timeout``."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                if not self._buf:
                    return None
                line, self._buf = self._buf, b""
                return line.decode("utf-8", "replace")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode("utf-8", "replace")

    def wait_for(self, prefix: str, timeout: float) -> tuple:
        """Seconds from launch until a stdout line starting with
        ``prefix`` arrived, and that line."""
        deadline = time.monotonic() + timeout
        while True:
            line = self.read_line(max(0.0, deadline - time.monotonic()))
            if line is None:
                raise ChildError(f"{self.name}: no {prefix!r} line; {self.stderr_tail()}")
            if line.startswith(prefix):
                return time.perf_counter() - self.t_launch, line

    def finish(self, timeout: float) -> List[str]:
        """All remaining stdout lines; the child must exit 0 in time."""
        lines: List[str] = []
        deadline = time.monotonic() + timeout
        while True:
            line = self.read_line(max(0.0, deadline - time.monotonic()))
            if line is None:
                break
            lines.append(line)
        try:
            code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise ChildError(f"{self.name}: did not finish in {timeout:.0f} s") from None
        self._close()
        if code != 0:
            raise ChildError(f"{self.name}: exit {code}; {self.stderr_tail()}")
        return lines

    def stop(self, timeout: float = 10.0) -> None:
        """Interrupt the child, kill it if it lingers, and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None and not self.proc.stdout.closed:
            self.proc.stdout.close()
        if not self._err.closed:
            self._err.close()

    def stderr_tail(self) -> str:
        self._err.flush()
        try:
            text = self.err_path.read_text(errors="replace").strip()
        except OSError:
            return "no stderr"
        return text.splitlines()[-1] if text else "no stderr"
