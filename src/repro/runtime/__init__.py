"""Execution substrate: schedulers, memories, the BACKER protocol.

The paper separates a computation from its schedule; this subpackage
supplies the schedules (greedy and Cilk-style work stealing) and the
memory systems (a serialized SC memory and the BACKER distributed-cache
protocol, with optional fault injection), plus the discrete-event
executor tying them together into verifiable traces.

It also hosts the parallel sweep engine (:mod:`repro.runtime.parallel`)
that shards universe enumerations across a process pool for the model
checking benchmarks.
"""

from repro.runtime.backer import BackerMemory, BackerStats
from repro.runtime.parallel import (
    LatticeBatteryResult,
    ShardSpec,
    SweepStats,
    clear_sweep_caches,
    effective_jobs,
    make_shards,
    parallel_inclusion_matrix,
    parallel_lattice_battery,
    run_shards,
    sweep_cache_info,
)
from repro.runtime.directory import DirectoryMemory, DirectoryStats
from repro.runtime.executor import execute
from repro.runtime.hierarchy import (
    HIERARCHY_PRESETS,
    HierarchicalBackerMemory,
    HierarchyConfig,
    HierarchyStats,
    LevelConfig,
    LevelStats,
)
from repro.runtime.memory_base import MemorySystem, SerialMemory
from repro.runtime.replay import ReadDivergence, ReplayResult, replay
from repro.runtime.timed import TimedExecution, simulate_timed
from repro.runtime.scheduler import (
    Schedule,
    greedy_schedule,
    serial_schedule,
    work_stealing_schedule,
)
from repro.runtime.trace import ExecutionTrace, PartialObserver, ReadEvent

__all__ = [
    "Schedule",
    "greedy_schedule",
    "work_stealing_schedule",
    "serial_schedule",
    "MemorySystem",
    "SerialMemory",
    "BackerMemory",
    "BackerStats",
    "DirectoryMemory",
    "DirectoryStats",
    "HierarchicalBackerMemory",
    "HierarchyConfig",
    "HierarchyStats",
    "LevelConfig",
    "LevelStats",
    "HIERARCHY_PRESETS",
    "replay",
    "ReplayResult",
    "ReadDivergence",
    "execute",
    "simulate_timed",
    "TimedExecution",
    "ExecutionTrace",
    "PartialObserver",
    "ReadEvent",
    "ShardSpec",
    "SweepStats",
    "LatticeBatteryResult",
    "parallel_lattice_battery",
    "effective_jobs",
    "make_shards",
    "run_shards",
    "clear_sweep_caches",
    "sweep_cache_info",
    "parallel_inclusion_matrix",
]
