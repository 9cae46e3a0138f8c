"""The forkserver helper: the whole program a ForkServer boots.

Deliberately dependency-free — stdlib only, and never ``repro``: the
helper must stay importable-nothing so its fork cost is the floor, not
the parent's.  That is why it carries its own copy of the framing in
``repro.wire`` (the one permitted second implementation; both are
fuzzed with the same corpus).  :class:`~repro.core.forkserver.ForkServer`
feeds this file's text to ``python -c`` with the control socket's fd as
the one argument, so ``sys.path[0]`` stays ``''`` — a zygote payload's
``import result`` must never resolve to a sibling of this file.

The helper is an event loop, never a blocker: it selects on the control
socket plus a SIGCHLD wakeup pipe, and the moment the kernel delivers
SIGCHLD it reaps the zombie and PUSHES an unsolicited
``{"exit": pid, "status": s}`` frame to the client.  Reaping costs the
client no request at all — one child is one wire round trip (its
spawn) — and spawns for other callers keep flowing meanwhile: a
blocking waitpid here would stall every in-flight request behind one
caller's child.

Every program is launched with posix_spawn, a ``cwd`` request's too,
and a launch that fails — a missing program, a bad ``cwd`` — is that
request's refusal, carrying the errno, never a child that exits 127.
The helper forks for one thing only: to park a template's children.

Beyond plain spawns the helper is a template zygote: ``specialize``
warms it into a workload profile and ``park`` pre-forks children that
block inside that warm runtime.  Both are launched by the one ``spawn``
op: a member carrying ``code`` wakes the oldest parked child with its
payload, a member carrying ``argv`` is a program and inherits what
``specialize`` prepared.  Every reply names the stock level.  A generic
forkserver simply never parks; an empty stock costs nothing.
"""

import array
import errno
import json
import os
import select
import signal
import socket
import struct
import sys
import time

LEN = struct.Struct("!I")
MAX_FRAME_BYTES = 4 * 1024 * 1024
SCM_MAX_FD = 253  # what one SCM_RIGHTS message can carry


def close_all(fds):
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


def recv_frame(chan, max_fds):
    """One frame off ``chan`` plus the descriptors granted with it:
    ``(request, fds)``, or ``(None, [])`` once the peer has hung up.

    Grants arrive close-on-exec: only the dup2'd 0-2 survive a child's
    exec, so no child inherits a batch sibling's (or any later
    request's) stdio by accident — fork leaks by default, we must not.
    A frame nobody should trust (oversized, not UTF-8, not JSON, not an
    object) raises ``ValueError`` with its grants closed: the stream
    can no longer be assumed to align on a frame boundary.
    """
    fds = array.array("i")
    space = socket.CMSG_LEN(max_fds * fds.itemsize)
    header = b""
    body = b""
    while len(header) < LEN.size:
        want = LEN.size - len(header)
        chunk, ancdata, _flags, _addr = chan.recvmsg(want, space, socket.MSG_CMSG_CLOEXEC)
        for level, ctype, data in ancdata:
            if level == socket.SOL_SOCKET and ctype == socket.SCM_RIGHTS:
                fds.frombytes(data[: len(data) - len(data) % fds.itemsize])
        if not chunk:
            close_all(fds)
            return None, []
        header += chunk
    (length,) = LEN.unpack(header)
    try:
        if length > MAX_FRAME_BYTES:
            raise ValueError("frame length %d exceeds the limit" % length)
        while len(body) < length:
            chunk = chan.recv(length - len(body))
            if not chunk:
                close_all(fds)
                return None, []
            body += chunk
        request = json.loads(body.decode("utf-8"))
        if not isinstance(request, dict):
            raise ValueError("frame body is not an object")
    except ValueError:
        close_all(fds)
        raise
    return request, list(fds)


def send_frame(chan, body, fds=()):
    ancdata = []
    if fds:
        ancdata = [(socket.SOL_SOCKET, socket.SCM_RIGHTS, array.array("i", fds).tobytes())]
    chan.sendmsg([LEN.pack(len(body)) + body], ancdata)


def which(name, env):
    # What execvpe did for a bare name: the first executable hit on the
    # PATH of ``env``, the environment the child will get, from where we
    # stand (a request's cwd, by now).  A miss is ENOENT.
    if "/" in name:
        return name
    path = env.get("PATH", os.defpath)
    for entry in path.split(os.pathsep):
        candidate = os.path.join(entry, name)
        if os.access(candidate, os.X_OK) and not os.path.isdir(candidate):
            return candidate
    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), name)


def spawn_one(req, grant, environ):
    # Launch one request whose stdio triple is ``grant`` and close the
    # grant on our side.  posix_spawn with dup2 file actions, and nothing
    # else: no fork of this interpreter, and the reply leaves after the
    # child's exec.  A cwd is ours for the length of the call — chdir,
    # look up, spawn, fchdir back — which only a single-threaded helper
    # may do.  ``env: null`` is ``environ``, our own environment as a
    # plain dict (os.environ is a Mapping, which posix_spawn walks
    # through Python); ``{}`` is empty.  Raises with the grant still
    # open — OSError from the chdir, the lookup or the spawn, whose errno
    # and filename the refusal carries; ValueError/TypeError for an argv
    # or env no exec could take — the caller owns cleanup so a batch can
    # account for every member.
    argv = req["argv"]
    env = req.get("env")
    if env is None:
        env = environ
    cwd = req.get("cwd")
    home = os.open(".", getattr(os, "O_PATH", os.O_RDONLY)) if cwd else None
    try:
        if cwd:
            os.chdir(cwd)
        dup2s = [(os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate(grant)]
        pid = os.posix_spawn(which(argv[0], env), argv, env, file_actions=dup2s)
    finally:
        if home is not None:
            os.fchdir(home)
            os.close(home)
    t_spawn = time.monotonic_ns()
    for fd in grant:
        os.close(fd)
    return pid, t_spawn


class StockExhausted(OSError):
    """No live parked child is left to take a payload."""


def refused(what, exc):
    # Why a launch raised, by name.
    if isinstance(exc, StockExhausted):
        return "EAGAIN: warm stock exhausted"
    if isinstance(exc, OSError):
        return "%s: %s failed: %s" % (errno.errorcode.get(exc.errno, "EIO"), what, exc)
    return "EINVAL: %s cannot be executed: %s" % (what, exc)


def parse_faults(spec):
    # Injected faults, compiled from the client's active FaultPlan (see
    # repro.faults).  Spec: "kind:seconds:times:after" entries, comma
    # separated; times -1 means unlimited.
    faults = {}
    for entry in spec.split(","):
        if not entry:
            continue
        parts = entry.split(":")
        faults[parts[0]] = [
            float(parts[1]) if len(parts) > 1 and parts[1] else 0.0,
            int(parts[2]) if len(parts) > 2 and parts[2] else -1,
            int(parts[3]) if len(parts) > 3 and parts[3] else 0,
        ]
    return faults


class Helper:
    """The event loop around one control socket."""

    def __init__(self, sock, faults):
        self.sock = sock
        self.faults = faults
        # What ``env: null`` launches from (the fault spec is popped by
        # now); op_specialize keeps it in step.
        self.environ = dict(os.environ)
        # Pre-forked parked children awaiting a payload, oldest first.
        # Each entry pairs a child pid with OUR end of its wake
        # socketpair; closing that end is how a park is withdrawn (the
        # child sees EOF and exits 0 on its own).
        self.stock = []
        # SIGCHLD -> a byte on this pipe -> select wakes -> zombies
        # reaped.  Pipe fds are CLOEXEC so spawned children never see
        # them.
        self.rwake, self.wwake = os.pipe()
        os.set_blocking(self.wwake, False)
        signal.signal(signal.SIGCHLD, lambda signum, frame: None)
        signal.set_wakeup_fd(self.wwake)
        self.running = True
        self.ops = {
            "ping": self.op_ping,
            "shutdown": self.op_shutdown,
            "spawn": self.op_spawn,
            "specialize": self.op_specialize,
            "park": self.op_park,
            "unpark": self.op_unpark,
        }

    def fault(self, name):
        # Arm one occurrence of an injected fault; returns its seconds
        # argument when it fires, None otherwise.
        spec = self.faults.get(name)
        if spec is None:
            return None
        if spec[2] > 0:
            spec[2] -= 1
            return None
        if spec[1] == 0:
            return None
        if spec[1] > 0:
            spec[1] -= 1
        return spec[0]

    def reap(self, push=True):
        # Collect every zombie and push each exit to the client at once,
        # all in one write; never block.  The client files a notice under
        # the pid (or drops it: parked template stock nobody leased).
        delay = self.fault("delay_sigchld")
        if delay:
            time.sleep(delay)
        frames = []
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
            for entry in self.stock:
                if entry[0] == pid:  # died while parked: it is stock no more
                    entry[1].close()
                    self.stock.remove(entry)
                    break
            body = b'{"exit":%d,"status":%d}' % (pid, status)
            frames.append(LEN.pack(len(body)) + body)
        if frames and push:
            try:
                self.sock.sendall(b"".join(frames))
            except OSError:
                raise SystemExit(0)  # the client is gone: nobody to tell

    def refusal(self, fds, want, what):
        # Why a request bearing ``fds`` must not run — its grants closed
        # — or None.  A grant that went missing (or partially arrived)
        # would wire the child to OUR stdio: refuse loudly, the client
        # retries with a fresh grant.
        if want is not None and len(fds) != want:
            error = "EPROTO: %s expected %d fds, got %d" % (what, want, len(fds))
        elif self.fault("refuse_exec") is not None:
            error = "EACCES: %s refused (injected fault)" % what
        else:
            return None
        close_all(fds)
        return error

    def serve(self):
        while self.running:
            ready, _, _ = select.select([self.sock, self.rwake], [], [])
            if self.rwake in ready:
                try:
                    os.read(self.rwake, 512)
                except OSError:
                    pass
            self.reap()
            if self.sock not in ready:
                continue
            try:
                request, fds = recv_frame(self.sock, SCM_MAX_FD)
            except ValueError:
                # Exit cleanly; the client sees EOF, fails its pending
                # requests, and replaces us.
                raise SystemExit(70)
            if request is None:
                raise SystemExit(0)
            stall = self.fault("stall_helper")
            if stall:
                time.sleep(stall)
            if request.get("op") != "spawn":
                close_all(fds)  # only a spawn takes a grant
                fds = []
            op = self.ops.get(request.get("op"))
            reply = op(request, fds) if op else {"error": "bad op"}
            reply["id"] = request.get("id")
            reply["stock"] = len(self.stock)
            body = json.dumps(reply).encode()
            self.sock.sendall(LEN.pack(len(body)) + body)
        # Shutdown.  Withdraw the parked stock: closing each wake end
        # EOFs its child (it exits 0 on its own); wait for each so none
        # outlives the template.  Then sweep whatever already exited so
        # no zombie outlives the service by our hand; still-running
        # children are init's from here.  Nothing is pushed: the client
        # has hung up.
        for pid, chan in self.stock:
            chan.close()
        for pid, chan in self.stock:
            try:
                os.waitpid(pid, 0)
            except OSError:
                pass
        del self.stock[:]
        self.reap(push=False)

    # -- ops: each takes (request, granted fds) and returns the reply -----

    def op_ping(self, request, fds):
        return {"ok": True}

    def op_shutdown(self, request, fds):
        self.running = False
        return {"ok": True}

    def op_spawn(self, request, fds):
        # N >= 1 launches, one frame, one reply: the grants arrived
        # concatenated in request order (member i's stdio triple is the
        # next reqs[i]["nfds"] fds).  A member carrying ``code`` wakes a
        # parked child, any other is spawned.  All-or-nothing: a grant
        # mismatch, a failed launch (a missing program included) or a dry
        # stock refuses/undoes EVERY member so the client never has to
        # guess which ran.  Each result's t_fork_ns is the launched-at
        # stamp (exec done on the posix_spawn path; CLOCK_MONOTONIC is
        # system-wide on Linux, so the client can splice it into its own
        # timeline).
        reqs = request.get("reqs") or []
        if not reqs:
            close_all(fds)
            return {"error": "EPROTO: spawn of no members"}
        error = self.refusal(fds, sum(r.get("nfds", 0) for r in reqs), "spawn of %d" % len(reqs))
        if error:
            return {"error": error}
        results = []
        offset = 0
        refusal = None
        for req in reqs:
            nfds = req.get("nfds", 0)
            grant = fds[offset : offset + nfds]
            offset += nfds
            try:
                if req.get("code") is None:
                    pid, t_spawn = spawn_one(req, grant, self.environ)
                else:
                    pid, t_spawn = self.wake_one(req, grant)
            except (OSError, ValueError, TypeError) as exc:
                # One request's refusal, not our death.  An OSError's
                # errno and filename ride along: the client judges whose
                # they are (the request's exec, or our resources).
                refusal = {"error": refused("spawn member %d" % len(results), exc)}
                if getattr(exc, "errno", None) is not None:
                    refusal.update(errno=exc.errno, path=exc.filename)
                close_all(grant + fds[offset:])
                break
            results.append({"pid": pid, "t_fork_ns": t_spawn})
        if refusal is None:
            return {"results": results}
        # Undo the partial launch: no silent survivors.  These pids were
        # launched moments ago and nothing has waited on them (reap()
        # only runs between loop iterations), so kill+waitpid here is
        # race-free — and no exit notice goes out for a pid the client
        # was never told about.
        for res in results:
            try:
                os.kill(res["pid"], signal.SIGKILL)
            except OSError:
                pass
        for res in results:
            try:
                os.waitpid(res["pid"], 0)
            except OSError:
                pass
        return refusal

    def op_specialize(self, request, fds):
        # Warm this helper into its profile: env/cwd apply to US (and so
        # to every child we park or fork), preloads import once HERE so
        # parked children inherit the warm modules, and preopen paths
        # become inherited read-only fds.
        failed = []
        for key, value in (request.get("env") or {}).items():
            os.environ[key] = value
        if request.get("cwd"):
            try:
                os.chdir(request["cwd"])
            except OSError as exc:
                failed.append("cwd: %s" % exc)
        for name in request.get("preload") or []:
            try:
                __import__(name)
            except Exception as exc:
                failed.append("%s: %s" % (name, exc))
        # The profile's variables, and whatever a preload set at import.
        self.environ = dict(os.environ)
        opened = 0
        for path in request.get("preopen") or []:
            try:
                fd = os.open(path, os.O_RDONLY)
                os.set_inheritable(fd, True)
                opened += 1
            except OSError as exc:
                failed.append("%s: %s" % (path, exc))
        return {"ok": not failed, "failed": failed, "opened": opened}

    def op_park(self, request, fds):
        try:
            self.stock.append(self.park_child())
        except OSError as exc:
            return {"error": "EAGAIN: park failed: %s" % exc}
        return {"pid": self.stock[-1][0]}

    def op_unpark(self, request, fds):
        if not self.stock:
            return {"pid": None}
        pid, chan = self.stock.pop(0)
        chan.close()  # EOF -> the parked child exits on its own
        return {"pid": pid}

    def wake_one(self, req, grant):
        # Hand the oldest LIVE parked child the payload member ``req``
        # and its grant, and close the grant on our side.  A child that
        # died while parked shows up as a send error (its end of the
        # socketpair is closed); skip it and try the next.  Raises
        # StockExhausted with the grant still open once none is left.
        payload = json.dumps(req).encode()
        while self.stock:
            pid, chan = self.stock.pop(0)
            try:
                send_frame(chan, payload, grant)
            except OSError:
                pid = None
            chan.close()
            if pid is not None:
                t_wake = time.monotonic_ns()
                close_all(grant)
                return pid, t_wake
        raise StockExhausted()

    def park_child(self):
        # Fork one child that BLOCKS inside the warm runtime until woken
        # with a payload.  It inherits everything specialize prepared —
        # imported modules, env, cwd, pre-opened fds — at zero marginal
        # cost; that payoff is the whole point of the template.
        ours, theirs = socket.socketpair()
        # The park is the fork itself: the child closes every socket
        # but ``theirs`` before it reads.
        pid = os.fork()  # lint-ok: F003, F013
        if pid == 0:
            status = 0
            try:
                ours.close()
                self.sock.close()
                signal.set_wakeup_fd(-1)
                signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                os.close(self.rwake)
                os.close(self.wwake)
                for sibling_pid, chan in self.stock:
                    chan.close()  # siblings' wake ends must EOF without us
                req, grant = recv_frame(theirs, 3)
                if req is None:
                    os._exit(0)  # the helper withdrew the park
                for target, fd in enumerate(grant):
                    os.dup2(fd, target)
                for fd in grant:
                    if fd > 2:
                        os.close(fd)
                if req.get("cwd"):
                    os.chdir(req["cwd"])
                # Run the payload INSIDE this warm runtime — no exec, so
                # the template's preloaded imports are free.
                if req.get("env"):
                    os.environ.update(req["env"])
                try:
                    exec(req.get("code") or "", {"__name__": "__main__"})
                except SystemExit as e:
                    if isinstance(e.code, int):
                        status = e.code
                    elif e.code is not None:
                        status = 1
            except BaseException:
                status = 125
            os._exit(status)
        theirs.close()
        return pid, ours


def main():
    sock = socket.socket(fileno=int(sys.argv[1]))
    # The control channel arrived inheritable (it had to survive our own
    # exec).  Flip it back so the children *we* spawn can never inherit
    # it: a child holding the socket would keep the service "connected"
    # after the real client is gone, and could read its traffic.
    os.set_inheritable(sock.fileno(), False)
    # Shed every other inherited descriptor.  The client grants none,
    # but code in its process may have left descriptors inheritable
    # (``os.set_inheritable``, ``os.dup2``), and any such descriptor we
    # kept would hold its pipe open forever (no EOF) and leak into
    # everything we fork.  Children receive exactly the stdio
    # triple granted per request, nothing else.
    try:
        inherited = [int(name) for name in os.listdir("/proc/self/fd")]
    except (FileNotFoundError, ValueError):
        inherited = list(range(3, 4096))
    close_all(fd for fd in inherited if fd > 2 and fd != sock.fileno())
    # Popped so the children we spawn never inherit the spec.
    faults = parse_faults(os.environ.pop("REPRO_HELPER_FAULTS", ""))
    Helper(sock, faults).serve()


if __name__ == "__main__":
    main()
