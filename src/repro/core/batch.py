"""The one batch shape every ``spawn_batch`` speaks.

A batch is a spawn of N: below the public API one unit of work is a list
of :class:`~repro.core.forkserver.SpawnRequest` members plus the
``(policy, deadline)`` it runs under, and a single spawn is that unit
with one member.  The four batch entry points — ``ForkServer``,
``ForkServerPool``, ``GatewayClient`` and the module-level ladder
:func:`repro.core.spawn_batch` — and the gateway protocol all take
exactly this shape:

* :class:`BatchRequest` — the members plus the batch-wide ``policy`` and
  ``deadline``.  Build one with :meth:`BatchRequest.of` (which coerces
  bare argv sequences and applies ``env``/``cwd`` defaults), or rebuild
  one from the wire with :meth:`BatchRequest.from_wire`.
* :class:`BatchResult` — the N children, plus which strategy tier
  actually served the batch.  It is a real ``Sequence`` of
  :class:`~repro.core.result.ChildProcess`, so callers ``len()``, index,
  iterate and ``zip`` it like a list.
* :func:`batch_unit` — the front door those entry points share: it
  refuses anything that is not a :class:`BatchRequest` (the 1.x bare
  sequences are gone; the error names :meth:`BatchRequest.of`) and
  anything no helper could take — a member no exec could take included
  — *before* a helper is picked: a caller's mistake must cost no
  strike, retry or breaker failure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import SpawnError
from ..wire import SCM_MAX_FD
from .attrs import SpawnAttributes, check_argv
from .forkserver import SpawnRequest
from .policy import SpawnPolicy
from .result import ChildProcess


class BatchRequest:
    """N spawn-request members plus the batch-wide execution terms.

    ``members`` are :class:`SpawnRequest` instances; ``policy`` and
    ``deadline`` govern the whole batch (the contract is all-or-nothing,
    so there is no per-member deadline).  Instances are iterable and
    sized like the member list.
    """

    __slots__ = ("members", "policy", "deadline")

    def __init__(self, members: Sequence[SpawnRequest], *,
                 policy: Optional[SpawnPolicy] = None,
                 deadline: Optional[float] = None):
        members = list(members)
        for member in members:
            if not isinstance(member, SpawnRequest):
                raise SpawnError(
                    f"BatchRequest members must be SpawnRequest, got "
                    f"{type(member).__name__}; use BatchRequest.of() to "
                    f"coerce argv sequences")
        self.members = members
        self.policy = policy
        self.deadline = deadline

    @classmethod
    def of(cls, requests: Sequence, *,
           env: Optional[Dict[str, str]] = None,
           cwd: Optional[str] = None,
           policy: Optional[SpawnPolicy] = None,
           deadline: Optional[float] = None) -> "BatchRequest":
        """The convenience constructor: coerce anything batch-shaped.

        ``requests`` may mix bare argv sequences and ready
        :class:`SpawnRequest` members; ``env``/``cwd`` are defaults for
        the bare ones (a ready member keeps its own).
        """
        if isinstance(requests, cls):
            if policy is not None or deadline is not None:
                return cls(requests.members,
                           policy=policy if policy is not None
                           else requests.policy,
                           deadline=deadline if deadline is not None
                           else requests.deadline)
            return requests
        members = [SpawnRequest.coerce(item, env=env, cwd=cwd)
                   for item in requests]
        return cls(members, policy=policy, deadline=deadline)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __bool__(self) -> bool:
        return bool(self.members)

    # -- the gateway's serialization ------------------------------------

    def wire(self) -> List[dict]:
        """The members as wire objects (fd grants travel separately)."""
        return [member.wire() for member in self.members]

    @classmethod
    def from_wire(cls, payload: Sequence, *,
                  policy: Optional[SpawnPolicy] = None,
                  deadline: Optional[float] = None) -> "BatchRequest":
        """Rebuild a batch from :meth:`wire` output (stdio re-granted
        by the transport, so members come back on default stdio).  A
        member that is not ``{"argv": [str, …], "env": {…} | null,
        "cwd": str | null}`` is refused by name."""
        members = []
        for item in payload:
            argv = item.get("argv") if isinstance(item, dict) else None
            if (not isinstance(argv, list)
                    or not all(isinstance(arg, str) for arg in argv)
                    or not isinstance(item.get("env"), (dict, type(None)))
                    or not isinstance(item.get("cwd"), (str, type(None)))):
                raise SpawnError(f"malformed spawn member: {item!r}")
            members.append(SpawnRequest(argv, env=item.get("env"),
                                        cwd=item.get("cwd")))
        return cls(members, policy=policy, deadline=deadline)

    def __repr__(self):
        return (f"<BatchRequest n={len(self.members)} "
                f"deadline={self.deadline}>")


class BatchResult(Sequence):
    """The N children a batch produced, and who produced them.

    A real ``Sequence`` of :class:`ChildProcess` — ``len``, indexing,
    slicing, iteration, and ``zip`` behave exactly like the plain list
    the batch entry points used to return — plus:

    * :attr:`strategy` — the tier that actually served the batch
      (``"forkserver-pool"``, ``"forkserver"``, or ``"posix_spawn"``
      after ladder degradation);
    * :attr:`pids` — the children's pids, in request order.
    """

    __slots__ = ("children", "strategy")

    def __init__(self, children: Sequence[ChildProcess],
                 strategy: str = "?"):
        self.children = list(children)
        self.strategy = strategy

    @property
    def pids(self) -> List[int]:
        return [child.pid for child in self.children]

    def __len__(self) -> int:
        return len(self.children)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BatchResult(self.children[index], self.strategy)
        return self.children[index]

    def __eq__(self, other):
        if isinstance(other, BatchResult):
            return (self.children == other.children
                    and self.strategy == other.strategy)
        if isinstance(other, (list, tuple)):
            return list(self.children) == list(other)
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self):
        return (f"<BatchResult n={len(self.children)} "
                f"via {self.strategy}>")


def batch_unit(entry: str, requests: BatchRequest, *,
               policy: Optional[SpawnPolicy] = None,
               deadline: Optional[float] = None) -> BatchRequest:
    """The shared front door of every ``spawn_batch``: ``requests`` with
    the call's ``policy``/``deadline`` overrides applied, checked once.

    Raises :class:`SpawnError` — before anything is picked, sent or
    charged to a breaker — for an argument that is not a
    :class:`BatchRequest`, an empty batch, more members than one
    SCM_RIGHTS message can carry stdio for, or a member no exec could
    take (the checks :class:`~repro.core.spawn.ProcessBuilder` runs:
    :func:`~repro.core.attrs.check_argv` and
    :meth:`SpawnAttributes.validate`).
    """
    if not isinstance(requests, BatchRequest):
        raise SpawnError(
            f"{entry} takes a BatchRequest, not "
            f"{type(requests).__name__}; build one with BatchRequest.of()")
    batch = BatchRequest.of(requests, policy=policy, deadline=deadline)
    if not batch:
        raise SpawnError("empty batch")
    if 3 * len(batch) > SCM_MAX_FD:
        raise SpawnError(
            f"batch of {len(batch)} needs {3 * len(batch)} fd grants; "
            f"one SCM_RIGHTS message carries at most {SCM_MAX_FD} "
            f"(= {SCM_MAX_FD // 3} members) — split the batch")
    for member in batch:
        check_argv(member.argv)
        SpawnAttributes(env=member.env, cwd=member.cwd).validate()
    return batch
