"""A crowd episode's control ticks, computed ahead in a worker process.

The pedestrians never see the robot (as in ORCA), so the rows of a crowd
at every control tick of an episode follow from what the env holds at
reset alone: the spawned rows, the crowd config, the control period, the
crowd generator and the obstacle discs.  A CrowdFeed hands those to one
persistent worker process, which runs crowd.step_rows on them ahead of
the env and sends each tick's rows back in order; the env builds each
tick's Crowd (its Scene) itself.  The pipe paces the worker: its write
blocks while the pipe is full, so it runs ahead of the env by what the
pipe holds plus what the parent's last read took in, up to about 128 KiB
on Linux (64 KiB each): some 70 ticks of 20 pedestrians, or 180 of 8.
Pickling a Generator copies its state exactly, so the worker draws the
same stream and every output is the same bits as stepping inline.

An env claims a feed at its episode's first crowd tick.  The worker
runs only where a CPU is free for it beside the env: when the process
may use two or more CPUs (nn.two_way_on, the learner pool's rule too),
and not in a daemonic process (a worker of eval's episode pool), whose
pool already fills the CPUs; and the env claims none when its crowd
step has been replaced (crowd.defined_step).  It serves one feed at a
time: the first env to claim it holds it until its episode ends, its
next reset or its garbage collection, and any other env steps inline
meanwhile.  The worker is started at the first claim, as sys.executable
on this package's own path, and talks over its stdin and stdout pipes
in length-prefixed pickles; it exits when its stdin closes, or its
stdout while it waits on a full pipe, and the parent closes both and
waits for the worker at exit.  A worker that sends nothing for
RECV_TIMEOUT, or is gone, is killed, and the next claim starts another.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import subprocess
import sys
import threading
import weakref

from .crowd import step_rows

# seconds the parent waits for the worker to exit at its exit before killing it
EXIT_TIMEOUT = 5.0
# seconds the env waits for a message before it takes the worker for stuck
RECV_TIMEOUT = 60.0

# The protocol.  The parent sends ("start", rows, config, dt, rng, discs)
# to begin a stream and ("stop",) to end it.  The worker sends each
# tick's rows (a tuple), {"error": exc, "rng": rng} when step_rows raised
# exc, which ends the stream, and None once it has stopped a stream.  It
# reads a message only between ticks, and makes the next tick as soon as
# the last one is written; a stop reaches a worker blocked on a full
# pipe once the parent reads (_Worker.drain).


def _send(fd: int, message) -> None:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(4, "little") + data)
    while view:
        view = view[os.write(fd, view):]


class _Reader:
    """Length-prefixed pickles from a pipe, read in chunks."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buffer = bytearray()

    def _size(self) -> int:
        """The bytes of the first buffered message, or -1 when it is not all in."""
        buffer = self.buffer
        if len(buffer) < 4:
            return -1
        size = int.from_bytes(buffer[:4], "little") + 4
        return size if len(buffer) >= size else -1

    def ready(self) -> bool:
        """Whether recv would return without waiting for the writer."""
        return self._size() >= 0 or bool(select.select([self.fd], [], [], 0.0)[0])

    def recv(self, timeout=None):
        """The next message; EOFError once the writer has closed the pipe,
        TimeoutError when no byte came for timeout seconds (None: no limit)."""
        while (size := self._size()) < 0:
            if timeout is not None and not select.select([self.fd], [], [], timeout)[0]:
                raise TimeoutError(f"the crowd worker sent nothing for {timeout} s")
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError("crowd feed pipe closed")
            self.buffer += chunk
        message = pickle.loads(self.buffer[4:size])
        del self.buffer[:size]
        return message


def serve(in_fd: int = 0, out_fd: int = 1) -> None:
    """The worker's loop: run streams from in_fd, send their ticks to
    out_fd, and return when in_fd closes or out_fd's reader is gone."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends it by closing the pipe
    out = os.dup(out_fd)
    os.dup2(2, out_fd)  # so that a stray print cannot break the stream
    reader = _Reader(in_fd)
    stream = None  # (rows, config, dt, rng, discs) of the running stream
    try:
        while True:
            if stream is not None and not reader.ready():
                rows, config, dt, rng, discs = stream
                try:
                    rows = step_rows(rows, config, dt, rng, discs)
                except Exception as exc:  # the env raises it at this tick
                    stream = None  # and the stream ends there
                    _send(out, {"error": exc, "rng": rng})
                    continue
                stream = rows, config, dt, rng, discs
                _send(out, rows)  # blocks while the pipe is full
                continue
            message = reader.recv()
            if message[0] == "start":
                stream = message[1:]
            else:  # stop
                stream = None
                _send(out, None)
    except (EOFError, BrokenPipeError):
        return


class _Worker:
    """The worker process and the parent's ends of its pipes."""

    def __init__(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = f"import sys; sys.path.insert(0, {root!r}); from socnavsim.crowdfeed import serve; serve()"
        # the crowd step makes no BLAS call; one thread keeps the worker small
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.process = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, env=env)
        self.out = self.process.stdin.fileno()
        self.reader = _Reader(self.process.stdout.fileno())
        self.unread_stops = 0  # streams stopped whose None the parent has not read
        self.closed = False

    def send(self, message) -> None:
        if self.closed:
            raise BrokenPipeError("the crowd worker's pipes are closed")
        _send(self.out, message)

    def recv(self):
        if self.closed:
            raise EOFError("the crowd worker's pipes are closed")
        return self.reader.recv(RECV_TIMEOUT)

    def drain(self) -> None:
        """Read what stopped streams sent, so that the next message read
        belongs to the next stream."""
        while self.unread_stops:
            if self.recv() is None:
                self.unread_stops -= 1

    def close_pipes(self) -> None:
        self.closed = True
        self.process.stdin.close()
        self.process.stdout.close()

    def close(self) -> None:
        """Close the pipes, so that the worker exits, and wait for it."""
        self.close_pipes()
        try:
            self.process.wait(EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        """End a worker that is stuck, gone or mid-message at once."""
        if not self.closed:
            self.close_pipes()
        self.process.kill()
        self.process.wait()


_LOCK = threading.Lock()  # held by the one live feed
_WORKER: _Worker | None = None


def _shut_down() -> None:
    global _WORKER
    worker, _WORKER = _WORKER, None
    if worker is not None:
        worker.close()


def _discard(worker: _Worker) -> None:
    """Kill worker, so that the next claim starts a new one."""
    global _WORKER
    if _WORKER is worker:
        _WORKER = None
    worker.kill()


def _forget_worker() -> None:
    """In a forked child: the parent's worker is not the child's."""
    global _WORKER, _LOCK
    worker, _WORKER, _LOCK = _WORKER, None, threading.Lock()
    if worker is not None:
        worker.close_pipes()


atexit.register(_shut_down)
if hasattr(os, "register_at_fork"):  # where processes can fork
    os.register_at_fork(after_in_child=_forget_worker)


def _ahead_on() -> bool:
    """Whether a feed may run: two CPUs, no daemon."""
    from .nn import two_way_on

    if not (two_way_on() and sys.executable):
        return False
    mp = sys.modules.get("multiprocessing")  # not imported: no multiprocessing worker
    return mp is None or not mp.current_process().daemon


def _release(worker: _Worker, lock: threading.Lock) -> None:
    try:
        worker.send(("stop",))
        worker.unread_stops += 1
    except OSError:  # the worker is gone; the next claim finds out
        pass
    finally:
        lock.release()


class CrowdFeed:
    """The rows of one crowd episode's control ticks, from the worker."""

    def __init__(self, worker: _Worker):
        self._worker = worker
        self.rng = None  # the generator as a failed tick left it
        self.close = weakref.finalize(self, _release, worker, _LOCK)

    def next_rows(self) -> tuple:
        """The crowd's rows after the next control tick; raises what
        step_rows raised at that tick, once, then the feed is closed.
        When the worker is stuck or gone, or the wait is interrupted, the
        worker is killed, the feed closed and the error raised; rng then
        stays None."""
        worker = self._worker
        try:
            message = worker.recv()
        except BaseException:  # its pipes may hold part of a message
            _discard(worker)
            self.close()
            raise
        if isinstance(message, dict):
            self.close()
            self.rng = message["rng"]
            raise message["error"]
        return message


def open_feed(rows, config, dt: float, rng, discs) -> CrowdFeed | None:
    """A feed of the next ticks of a crowd of these rows, whose generator
    rng must not be drawn from while the feed is open; None when the env
    must step its crowd inline: no second CPU, another feed open, a
    daemonic process, or no worker to be had."""
    global _WORKER
    if not (_ahead_on() and _LOCK.acquire(blocking=False)):
        return None
    try:
        if _WORKER is None:
            _WORKER = _Worker()
        _WORKER.drain()
        _WORKER.send(("start", rows, config, dt, rng, discs))
    except BaseException as exc:
        if _WORKER is not None:
            _discard(_WORKER)  # its pipes may hold part of a message
        _LOCK.release()
        if isinstance(exc, (OSError, EOFError)):  # the worker could not start, has died or is stuck
            return None
        raise
    return CrowdFeed(_WORKER)
