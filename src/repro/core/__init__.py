"""The paper's constructive contribution: a spawn-first process API.

Highlights:

* :class:`ProcessBuilder` / :func:`run` — fluent spawn API over
  ``posix_spawn`` (default), fork+exec, or the stdlib; ``run`` returns
  a :class:`CompletedChild` that still unpacks as ``(rc, stdout)``.
* :class:`Pipeline` — shell-style composition without fork.
* :class:`ForkServer` — the zygote pattern: fork a pristine helper, not
  the real parent — with a pipelined, correlation-id wire protocol.
* :class:`ForkServerPool` — the zygote pattern as a *service*: requests
  sharded across several helpers, with lazy start and crash recovery,
  and batched dispatch (:meth:`~ForkServerPool.spawn_batch`, N children
  in one wire frame, through the dispatch a single spawn takes).
* :class:`TemplateRegistry` — warm, specialized zygotes per workload
  profile, whose parked stock grows on a miss and decays when idle
  (:class:`AutoscaleConfig`).
* :func:`spawn_batch` — the policy-aware batch entry point: a
  :class:`BatchRequest` down the forkserver-pool → forkserver →
  posix_spawn degradation ladder, on the walker :class:`ProcessBuilder`
  spawns under — a batch is a spawn of N.
* :func:`register_strategy` / :func:`strategies` / :func:`get_strategy`
  — the launch-strategy registry.
* :mod:`repro.core.safety` — audit whether forking is safe right now;
  :mod:`repro.core.atfork` — the pthread_atfork discipline.

Every layer is instrumented through :mod:`repro.obs`: enable
``repro.obs.TELEMETRY`` and each spawn emits per-stage trace events and
aggregates latency histograms per strategy.
"""

from .attrs import SpawnAttributes
from .atfork import AtForkRegistry, fork_with_handlers, register
from .batch import BatchRequest, BatchResult
from .file_actions import FileActions
from .forkserver import ForkServer, SpawnRequest
from .forkserver_pool import ForkServerPool
from .framecache import FrameCache, frame_key
from .pipeline import Pipeline, PipelineResult
from .policy import (DEFAULT_FALLBACK, GATEWAY_FALLBACK, TEMPLATE_FALLBACK,
                     Backoff, CircuitBreaker, SpawnPolicy, breaker_for,
                     reset_breakers)
from .pool import SpawnPool, callable_spec
from .result import ChildProcess, CompletedChild
from .safety import Hazard, assess, guarded_fork, is_fork_safe
from .spawn import ProcessBuilder, SpawnedIO, run, spawn_batch
from .strategies import (ForkExecStrategy, ForkServerPoolStrategy,
                         ForkServerStrategy,
                         PosixSpawnStrategy, Strategy, SubprocessStrategy,
                         get_strategy, pick_default_strategy,
                         register_strategy, strategies)
from .templates import (AutoscaleConfig, TemplateMiss, TemplateProfile,
                        TemplateRegistry, TemplateServer)
from .xproc import CrossProcessBuilder, HostOFD, XProcStrategy


__all__ = [
    "AtForkRegistry", "AutoscaleConfig", "Backoff", "BatchRequest",
    "BatchResult",
    "ChildProcess", "CircuitBreaker",
    "CompletedChild", "CrossProcessBuilder",
    "DEFAULT_FALLBACK", "FileActions",
    "ForkExecStrategy", "GATEWAY_FALLBACK",
    "ForkServer", "ForkServerPool", "ForkServerPoolStrategy",
    "ForkServerStrategy", "FrameCache", "Hazard", "HostOFD",
    "Pipeline", "PipelineResult",
    "PosixSpawnStrategy", "ProcessBuilder", "SpawnAttributes",
    "SpawnPolicy", "SpawnPool", "SpawnRequest",
    "SpawnedIO", "Strategy", "SubprocessStrategy", "TEMPLATE_FALLBACK",
    "TemplateMiss", "TemplateProfile", "TemplateRegistry", "TemplateServer",
    "XProcStrategy", "assess", "breaker_for",
    "fork_with_handlers", "frame_key", "get_strategy", "guarded_fork",
    "is_fork_safe",
    "callable_spec", "pick_default_strategy", "register", "register_strategy",
    "reset_breakers", "run", "spawn_batch", "strategies",
]
