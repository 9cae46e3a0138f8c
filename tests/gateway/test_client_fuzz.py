"""Property fuzz: the client's reply path against a hostile daemon.

The reader thread is the one place a malicious or corrupt daemon
touches client memory, so it gets the adversarial treatment: a fake
server answers the hello handshake correctly and then replies to the
next request with *arbitrary bytes*.  Whatever arrives — junk framing,
valid frames with junk bodies, wrong correlation ids, malformed or
unknown-pid ``exit`` notices, half frames then EOF — the property is
the same:

* the blocked operation returns within its deadline with a **typed**
  error (the :class:`~repro.errors.GatewayError` hierarchy or
  :class:`~repro.errors.SpawnTimeout`), never a hang and never a raw
  ``ValueError``/``struct.error`` escaping the reader;
* the reader thread dies quietly instead of crashing the process;
* the correlation map and the exit-slot table are empty afterwards (no
  stale entries, no slot opened for a pid nobody was handed).

One listener serves all examples (hypothesis runs many), with a fresh
connection per example so one example's poisoned decoder cannot leak
into the next.
"""

import socket
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import GatewayError, SpawnError
from repro.gateway import GatewayClient
from repro.gateway.client import _encode_status
from repro.gateway.protocol import (PROTOCOL_VERSION, FrameDecoder,
                                    encode_frame)

TIMEOUT = 2.0


class _EvilServer:
    """Answers hello properly, then one scripted blob, then hangs up."""

    def __init__(self, path):
        self.path = path
        self.reply_blob = b""
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                self._one_connection(conn)
            except Exception:
                pass
            finally:
                conn.close()

    def _one_connection(self, conn):
        conn.settimeout(5.0)
        decoder = FrameDecoder()
        helloed = False
        while not self._stop.is_set():
            data = conn.recv(65536)
            if not data:
                return
            for frame in decoder.feed(data):
                if not helloed and frame.get("op") == "hello":
                    helloed = True
                    conn.sendall(encode_frame(
                        {"id": frame.get("id"), "ok": True,
                         "version": PROTOCOL_VERSION}))
                else:
                    # The request under test: answer with the blob.
                    if self.reply_blob:
                        conn.sendall(self.reply_blob)
                    return  # then hang up

    def stop(self):
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=5.0)


@pytest.fixture(scope="module")
def evil(tmp_path_factory):
    server = _EvilServer(str(tmp_path_factory.mktemp("fuzz") / "evil.sock"))
    yield server
    server.stop()


def _exercise(evil, blob):
    """One fuzz round: dial, send a stats op, meet the blob."""
    evil.reply_blob = blob
    client = GatewayClient(evil.path, tenant="fuzz", token="fuzz",
                           timeout=TIMEOUT, reconnect=False).connect()
    try:
        with pytest.raises((GatewayError, SpawnError)):
            client._roundtrip({"op": "stats"}, timeout=TIMEOUT)
        assert client._pending == {}
        assert client._exits == {}
        reader = client._reader
        if reader is not None:
            reader.join(timeout=TIMEOUT)
            assert not reader.is_alive()
    finally:
        client.close()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.binary(max_size=256))
def test_raw_bytes_never_hang_or_crash_the_reader(evil, blob):
    _exercise(evil, blob)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8))
def test_validly_framed_junk_is_still_typed(evil, payload):
    """A well-framed reply whose body is arbitrary JSON: wrong ids,
    wrong shapes, junk error objects — all still typed errors."""
    try:
        blob = encode_frame(payload if isinstance(payload, dict)
                            else {"junk": payload})
    except GatewayError:
        blob = b""
    _exercise(evil, blob)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(min_size=1, max_size=64),
       cut=st.integers(min_value=1, max_value=63))
def test_half_a_frame_then_eof_is_connection_lost(evil, data, cut):
    """A frame truncated by EOF mid-body: the reader must translate
    the dangling bytes into a typed channel death."""
    frame = encode_frame({"id": 0, "pad": data.hex()})
    _exercise(evil, frame[:min(cut, len(frame) - 1)])


_JUNK = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.text(max_size=8) | st.lists(st.integers(), max_size=2)
         | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(notices=st.lists(
    st.fixed_dictionaries({"exit": _JUNK},
                          optional={"status": _JUNK, "error": _JUNK,
                                    "id": _JUNK}),
    min_size=1, max_size=4))
def test_malformed_and_unknown_pid_exit_notices(evil, notices):
    """Exit notices for pids this client was never handed, with pids
    and statuses of every wrong shape (unhashable ones included): each
    is dropped or kills the channel typed — the reader never crashes,
    and no slot is ever opened from a notice."""
    _exercise(evil, b"".join(encode_frame(notice) for notice in notices))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(status=_JUNK)
def test_junk_status_for_a_handed_out_pid_is_typed_and_frees_the_slot(
        evil, status):
    """The notice for a pid the client *does* hold: an integer status
    reaps, anything else is a typed error — and either way the slot is
    gone afterwards and nobody waits past the notice."""
    evil.reply_blob = (encode_frame({"id": 1, "pid": 4242})
                       + encode_frame({"exit": 4242, "status": status}))
    client = GatewayClient(evil.path, tenant="fuzz", token="fuzz",
                           timeout=TIMEOUT, reconnect=False).connect()
    try:
        reply = client._roundtrip({"op": "spawn", "argv": ["x"]},
                                  timeout=TIMEOUT)
        assert reply["pid"] == 4242
        if type(status) is int:
            assert client._reap(4242, 0, TIMEOUT) == _encode_status(status)
        else:
            with pytest.raises(GatewayError, match="lost the exit status"):
                client._reap(4242, 0, TIMEOUT)
        assert client._exits == {} and client._pending == {}
    finally:
        client.close()
