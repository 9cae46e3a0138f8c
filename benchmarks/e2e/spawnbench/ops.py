"""The seeded request stream: which op each caller issues next.

Everything a workload feeds the system under test is drawn here from
``--seed``: the same (workload, seed, caller) always yields the same
sequence, and the program under test only ever sees the generated argv
/ env / code.  In a *mixed* stream even-indexed ops reap with blocking
``wait()`` and odd ones with ``wait(timeout=30)``, so both reap paths
are timed in one run over one mix; the gated phase uses the unmixed
stream (every op blocking), because the poll path sleeps and a phase
that sleeps cannot be scaled by the floor (see README).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, NamedTuple

SIM_MECHS = ("fork", "vfork", "spawn", "xproc")
SIM_BALLAST_MIB = {"1m": 1, "64m": 64, "512m": 512}
BATCH_SIZE = 8

#: 64 variables x 32 bytes: a ~4 KiB frame that can never hit the frame cache
#: (every env-shape op also carries a fresh token in argv).
ENV_VARS = 64
ENV_VALUE_BYTES = 32


class Op(NamedTuple):
    index: int
    kind: str      # "single" | "batch" | "sim" | "xproc"
    shape: str     # null/capture/env, exec/zygote, or a sim mechanism
    token: str
    policy: bool = False
    ballast: str = ""
    reap: str = "block"   # "block" = child.wait(), "timed" = child.wait(timeout=30)

    @property
    def tags(self) -> Dict[str, str]:
        tags = {"kind": self.kind, "shape": self.shape, "reap": self.reap}
        if self.policy:
            tags["policy"] = "1"
        if self.ballast:
            tags["ballast"] = self.ballast
        return tags


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


def _three_shapes(rng, index) -> Op:
    draw = rng.random()
    shape = "null" if draw < 0.60 else "capture" if draw < 0.85 else "env"
    return Op(index, "single", shape, _token(rng))


def _direct(rng, index) -> Op:
    return _three_shapes(rng, index)._replace(policy=index % 4 == 3)


def _pool(rng, index) -> Op:
    draw, token = rng.random(), _token(rng)
    if draw < 0.30:
        return Op(index, "batch", "null", token)
    return Op(index, "single", "null" if draw < 0.65 else "capture", token)


def _template(rng, index) -> Op:
    # Pairs, so exec/zygote does not alias with the even/odd reap split.
    return Op(index, "single", ("exec", "zygote")[(index // 2) % 2], _token(rng))


def _gateway(rng, index) -> Op:
    draw = rng.random()
    return Op(index, "single", "capture" if draw < 0.5 else "null", _token(rng))


def _sim(rng, index) -> Op:
    mech, ballast = rng.choice(SIM_MECHS), rng.choice(sorted(SIM_BALLAST_MIB))
    if index % 10 == 9:
        return Op(index, "xproc", "launch", _token(rng))
    return Op(index, "sim", mech, _token(rng), ballast=ballast)


_MIXES = {
    "direct_seq": _direct,
    "wire_seq": _three_shapes,
    "pool_conc": _pool,
    "template_lease": _template,
    "gateway_conc": _gateway,
    "sim_creation": _sim,
}


def op_stream(workload: str, seed: int, caller: object = 0, *,
              mixed: bool = False) -> Iterator[Op]:
    """The endless op sequence of one caller (a thread index, or ``"warm<i>"``).

    ``mixed`` only changes how ops are reaped (odd-indexed ones with a timeout),
    never which ops are drawn.
    """
    rng = random.Random(f"spawnbench:{workload}:{seed}:{caller}")
    draw = _MIXES[workload]
    for index in itertools.count():
        op = draw(rng, index)
        yield op._replace(reap="timed") if mixed and index % 2 else op


def bench_env(seed: int) -> Dict[str, str]:
    """The replaced environment of env-shape ops, fixed for one run."""
    rng = random.Random(f"spawnbench:env:{seed}")
    return {f"SPAWNBENCH_{i:02d}": f"{rng.getrandbits(4 * ENV_VALUE_BYTES):0{ENV_VALUE_BYTES}x}"
            for i in range(ENV_VARS)}
