"""A fake gateway daemon for the client's failure-mode tests.

:class:`FakeDaemon` listens on a Unix socket, answers ``hello``
correctly, and hands every later frame to :meth:`FakeDaemon.answer`.
By default that stays silent, or, with ``hangup_on_request``, hangs up
once the frame fully arrived: the "frame sent, daemon vanished" shape,
where the daemon *may* have acted before the channel died.

:meth:`FakeDaemon.stop` shuts the listener and the live connection down
before joining the serving thread: on Linux, closing a socket does not
wake a thread blocked in its ``accept`` or ``recv``.
"""

import socket
import threading

from repro.gateway.protocol import PROTOCOL_VERSION
from repro.wire import FrameDecoder, encode_frame


class FakeDaemon:
    def __init__(self, path, hangup_on_request=False):
        self.path = path
        self.requests_seen = 0
        self._hangup = hangup_on_request
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conn = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def answer(self, conn, frame) -> bool:
        """Handle one post-``hello`` frame; true hangs up the connection."""
        self.requests_seen += 1
        return self._hangup

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                if self._stop.is_set():
                    conn.close()
                    return
                self._conn = conn
            decoder = FrameDecoder()
            try:
                while not self._stop.is_set():
                    data = conn.recv(65536)
                    if not data:
                        break
                    hangup = False
                    for frame in decoder.feed(data):
                        if frame.get("op") == "hello":
                            conn.sendall(encode_frame(
                                {"id": frame.get("id"), "ok": True,
                                 "version": PROTOCOL_VERSION}))
                        else:
                            hangup = self.answer(conn, frame) or hangup
                    if hangup:
                        break
            except Exception:
                pass
            finally:
                with self._lock:
                    self._conn = None
                conn.close()

    def stop(self):
        with self._lock:
            self._stop.set()
            for sock in (self._listener, self._conn):
                if sock is not None:
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
        self._listener.close()
        self._thread.join(timeout=5.0)
