"""Every option of the spawn stack's public constructors, pinned by name.

The paper's case against ``fork()`` is an interface that keeps growing
special cases.  Each audited constructor's keyword parameters (or
dataclass fields) are listed here, so a new option is added to this
table on purpose, and a removed one stays removed: passing it is a
``TypeError``, and what stands in for it keeps its old default.
"""

import dataclasses
import inspect

import pytest

from repro.core import (AutoscaleConfig, Backoff, CircuitBreaker,
                        ForkServer, ForkServerPool, ForkServerPoolStrategy,
                        SpawnPolicy, SpawnPool, TemplateProfile,
                        TemplateRegistry, TemplateServer)
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           GatewaySupervisor, TenantConfig)

#: Constructor -> the options it takes, in order.
OPTIONS = {
    Backoff: ("base", "multiplier", "cap", "jitter"),
    SpawnPolicy: ("deadline", "retries", "backoff", "breaker_threshold",
                  "breaker_cooldown", "fallback", "retry_ambiguous"),
    CircuitBreaker: ("threshold", "cooldown", "clock"),
    ForkServer: ("frame_cache",),
    ForkServerPool: ("workers", "prestart"),
    ForkServerPoolStrategy: (),
    SpawnPool: ("workers", "strategy"),
    TemplateProfile: ("name", "preload", "env", "cwd", "preopen", "stock",
                      "max_stock"),
    TemplateServer: ("profile",),
    TemplateRegistry: ("policy", "autoscale"),
    AutoscaleConfig: ("step",),
    GatewayClient: ("address", "tenant", "token", "timeout",
                    "max_reconnects"),
    GatewaySupervisor: ("config", "check_interval", "backoff"),
    GatewayServer: ("config",),
    GatewayConfig: ("unix_path", "tcp_host", "tcp_port", "tenants",
                    "max_inflight", "drain_grace", "retry_after_hint",
                    "accept_backlog"),
    TenantConfig: ("name", "token", "max_queue", "rate", "burst", "weight",
                   "strategy", "policy", "max_children", "admin"),
}


def options(cls):
    if dataclasses.is_dataclass(cls):
        return tuple(field.name for field in dataclasses.fields(cls))
    return tuple(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", OPTIONS, ids=lambda cls: cls.__name__)
def test_each_constructor_takes_the_options_in_the_table(cls):
    assert options(cls) == OPTIONS[cls]


def client(**option):
    return GatewayClient("/nonexistent/gw.sock", tenant="t", token="t",
                         **option)


def supervisor(**option):
    return GatewaySupervisor(
        GatewayConfig(unix_path="/nonexistent/gw.sock",
                      tenants={"t": TenantConfig(name="t", token="t")}),
        **option)


#: (constructor, removed option, its old default, what stands in now).
REMOVED = [
    (SpawnPolicy, "backoff_multiplier", 2.0, lambda: Backoff().multiplier),
    (SpawnPolicy, "backoff_max", 2.0, lambda: Backoff().cap),
    (SpawnPolicy, "jitter", 0.5, lambda: Backoff().jitter),
    (client, "reconnect", True, lambda: inspect.signature(
        GatewayClient).parameters["max_reconnects"].default > 0),
    (client, "backoff", Backoff(), lambda: GatewayClient.backoff),
    (supervisor, "ping_timeout", 2.0, lambda: GatewaySupervisor.ping_timeout),
    (supervisor, "max_restarts", 8, lambda: GatewaySupervisor.max_restarts),
    (supervisor, "healthy_reset", 5.0,
     lambda: GatewaySupervisor.healthy_reset),
    (supervisor, "orphan_grace", 5.0, lambda: GatewaySupervisor.orphan_grace),
    (TemplateRegistry, "max_templates", 4,
     lambda: TemplateRegistry.max_templates),
    (TemplateRegistry, "miss_grace", 0.25,
     lambda: TemplateRegistry.miss_grace),
    (AutoscaleConfig, "idle_ttl", 5.0, lambda: TemplateRegistry.idle_ttl),
    # None meant the pool's own default: no constant stands in.
    (ForkServerPoolStrategy, "workers", None, None),
]


@pytest.mark.parametrize("make, option, old, now", REMOVED,
                         ids=[option for _, option, _, _ in REMOVED])
def test_a_removed_option_is_refused_and_its_default_kept(make, option,
                                                          old, now):
    with pytest.raises(TypeError, match=option):
        make(**{option: old})
    assert now is None or now() == old
