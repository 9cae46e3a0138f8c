"""spawnbench — the spawn-path benchmark behind ``BENCHMARK.json``.

Self-contained on purpose: the harness imports only ``repro``'s public
API (``repro.core``, ``repro.gateway``, ``repro.sim``, ``repro.obs``)
and keeps its own statistics, span and /proc code, so refactoring
``src/repro/bench`` can never move the ruler.  ``run.py`` next to this
package is the only entry point; see ``README.md`` there.
"""
