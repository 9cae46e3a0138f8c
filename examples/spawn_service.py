#!/usr/bin/env python3
"""A spawn *service* under load: one locked zygote vs the pipelined pool.

The zygote pattern fixes fork's cost, but a zygote is a service — and a
service is judged by the traffic it sustains.  This example offers the
same stream of spawn-and-wait requests, from a growing number of client
threads, to two designs:

* a single :class:`~repro.core.ForkServer` behind one
  ``threading.Lock`` held across spawn-and-wait — the historical
  design, one blocking round-trip at a time, so every caller waits out
  every other caller's child;
* a :class:`~repro.core.ForkServerPool` — correlation-id pipelining
  sharded across helpers, so requests overlap.

Run with ``python examples/spawn_service.py``.  The locked line stays
flat as clients are added; the pool line climbs.
"""

from repro.bench.workloads import ServiceWorkloads

CHILD = ["/bin/sleep", "0.01"]  # ~10ms of simulated service work
CONCURRENCIES = [1, 4, 8]
REQUESTS_PER_THREAD = 4


def main() -> None:
    print(f"spawn-and-wait of {' '.join(CHILD)!r}, "
          f"{REQUESTS_PER_THREAD} requests per client thread:\n")
    print(f"{'clients':>8s} {'locked zygote':>16s} {'pipelined pool':>16s}")
    with ServiceWorkloads(CHILD, pool_workers=4) as service:
        service.warm(["forkserver-locked", "forkserver-pool"])
        final = {}
        for concurrency in CONCURRENCIES:
            rates = {}
            for mechanism in ("forkserver-locked", "forkserver-pool"):
                result = service.measure(
                    mechanism, concurrency=concurrency,
                    requests_per_thread=REQUESTS_PER_THREAD)
                rates[mechanism] = result.per_second
            final = rates
            print(f"{concurrency:>8d} "
                  f"{rates['forkserver-locked']:>14.0f}/s "
                  f"{rates['forkserver-pool']:>14.0f}/s")
    ratio = final["forkserver-pool"] / final["forkserver-locked"]
    print(f"\nat {CONCURRENCIES[-1]} clients the pool sustains "
          f"{ratio:.1f}x the locked zygote: the lock turned offered "
          f"load into queueing.")
    print("full sweep with latency percentiles: "
          "`repro-bench run t5-throughput`")


if __name__ == "__main__":
    main()
