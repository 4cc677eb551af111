"""Structured export of simulation results as plain dictionaries.

Turns :class:`~repro.sim.replay.RunResult` and
:class:`~repro.sim.experiment.SuiteResult` into plain dictionaries so
results can be archived as JSON (``repro replay --json``, ``repro suite
--json``), diffed between runs, or consumed by plotting tools, without
those classes having to know about serialization.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.experiment import SuiteResult
from repro.sim.replay import RunResult


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Flatten one replay's results (omitting bulky per-tile arrays)."""
    return {
        "design_point": result.design_point,
        "l2_accesses": result.l2_accesses,
        "l2_misses": result.l2_misses,
        "dram_accesses": result.dram_accesses,
        "l1_accesses": result.l1_accesses,
        "l1_misses": result.l1_misses,
        "l1_miss_rate": result.l1_miss_rate,
        "l1_replication_factor": result.l1_replication_factor,
        "vertex_accesses": result.vertex_accesses,
        "tile_accesses": result.tile_accesses,
        "total_quads": result.total_quads,
        "framebuffer_write_lines": result.framebuffer_write_lines,
        "frame_cycles": result.frame_cycles,
        "sc_busy_cycles": list(result.timing.sc_busy_cycles),
        "sc_issue_cycles": list(result.timing.sc_issue_cycles),
        "fetch_cycles_total": result.timing.fetch_cycles_total,
        "energy_mj": {
            name: value
            for name, value in result.energy.components_mj.items()
        },
        "energy_total_mj": result.energy.total_mj,
    }


def suite_result_to_dict(suite: SuiteResult) -> Dict[str, Any]:
    """Flatten a whole suite run, keyed by game alias."""
    return {
        "design_point": suite.design_point,
        "total_l2_accesses": suite.total_l2_accesses,
        "games": {
            game: run_result_to_dict(result)
            for game, result in suite.per_game.items()
        },
    }
