"""Multi-level BACKER: per-processor cache hierarchies over one store.

The paper's §7 protocol (and :mod:`repro.runtime.backer`) models a
single flat cache per processor.  Real machines — and the Cilk/BACKER
deployments of [BFJ+96a/b] — interpose a *hierarchy*: small fast levels
backed by larger slower ones, each moving data in lines.  SNIPPETS'
"models of memory hierarchy" frames the parameter space this module
makes concrete: per-level capacity (in lines), line size (locations per
line) and service latency, composed into one
:class:`~repro.runtime.memory_base.MemorySystem`.

Protocol
--------
Each processor owns a private stack of levels ``L1..LK`` over the shared
backing store.  The BACKER discipline generalizes level-wise:

* **fetch** — a read probes ``L1 → … → LK → store`` and fills every
  missed level with the containing line (only locations not already
  cached are filled, so dirty data is never overwritten);
* **reconcile** — dirty locations are pushed down level by level into
  the backing store.  Dirty sets are location-granular (diff
  reconciliation without materialized twins), so disjoint writers to
  one line merge instead of clobbering and any line size stays safe;
* **flush** — reconcile, then evict every level of the stack;
* **capacity eviction** — inserting into a full level evicts the LRU
  line, pushing its dirty locations down one level (possibly cascading).
  Real BACKER permits such spontaneous partial reconciles at any time.

Hooks are the usual dag-edge rule: ``node_completed`` with a
cross-processor successor reconciles, ``node_starting`` with a
cross-processor predecessor flushes.  The faithful protocol maintains
location consistency ([Luc97], Theorem 23's NN*) — every simulated run
in the test-suite and the ``repro hier sweep`` study is post-mortem
checked by the streaming LC verifier.

Telemetry
---------
Per level ``k`` the memory keeps fetch/hit/writeback/eviction counters
and a miss-*latency* histogram: a request that misses levels ``1..k``
and hits at level ``k+1`` (or the store) costs the sum of the probed
latencies, and that total is recorded at **every missed level** — so
deeper levels see a subset of strictly slower requests and the per-level
p50s are monotone by construction (the CI smoke asserts this).

**False sharing** is attributed fetch-side: when a line leaves a level
(eviction or flush) its values are shadowed; a later miss on location
``x`` whose refetched value is *unchanged* while some other location
``y`` on the same line *did* change means the line's traffic was caused
by ``y``, not ``x`` — counted per level and attributed to the offending
``(x, y)`` pair.  With ``line_size=1`` no ``y`` exists and the count is
structurally zero.

:meth:`HierarchicalBackerMemory.publish_obs` flushes the plain-int
counters into :mod:`repro.obs` (``hier.L<k>.*``), merges the latency
histograms, and attaches one hand-built span track per
``(processor, level)`` — rendered by the Chrome exporter as separate
Perfetto tracks next to the request-flow arrows.

Fault injection drops reconcile or flush writebacks at a chosen level
(dirty data marked clean but never propagated), producing executions the
post-mortem verifier must reject — the paper's motivating use case.

The real BACKER moved pages: a one-level shape with ``line_size =
page`` is page-granular BACKER, and its hazard is a fault too.  A
**clobbered** reconcile (``clobber_probability``) writes back *all*
cached words, stale ones included, of each fault-level line holding
dirty data, so concurrent disjoint updates to one page are lost (false
sharing the verifier rejects).  At unit lines it is harmless.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs
from repro.core.ops import Location
from repro.dag.random_dags import as_rng
from repro.obs.core import Histogram, Span
from repro.runtime.memory_base import MemorySystem

__all__ = [
    "LevelConfig",
    "HierarchyConfig",
    "LevelStats",
    "HierarchyStats",
    "HierarchicalBackerMemory",
    "HIERARCHY_PRESETS",
]

TRACK_EVENT_LIMIT = 128
"""Per-(processor, level) cap on protocol events kept for the Chrome
span tracks; counters always see everything."""


def _check_count(value: object, what: str) -> None:
    """Reject anything but an ``int >= 1`` (``bool`` included)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class LevelConfig:
    """Shape of one cache level.

    ``capacity`` is in *lines* (``None`` = unbounded, like the flat
    BACKER cache); ``line_size`` in locations per line; ``latency`` is
    the level's probe/service time in abstract cycles.
    """

    capacity: int | None = None
    line_size: int = 1
    latency: int = 1

    def __post_init__(self) -> None:
        if self.capacity is not None:
            _check_count(self.capacity, "capacity (lines, or None)")
        _check_count(self.line_size, "line_size (locations)")
        _check_count(self.latency, "latency (cycles)")

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "line_size": self.line_size,
            "latency": self.latency,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LevelConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"a level config must be an object, got {doc!r}")
        unknown = set(doc) - {"capacity", "line_size", "latency"}
        if unknown:
            raise ValueError(f"unknown level config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class HierarchyConfig:
    """A full hierarchy shape: ordered levels plus the store latency."""

    levels: tuple[LevelConfig, ...]
    memory_latency: int = 20
    name: str = "custom"

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a hierarchy needs at least one level")
        _check_count(self.memory_latency, "memory_latency (cycles)")
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def depth(self) -> int:
        return len(self.levels)

    def to_dict(self) -> dict:
        """JSON form (the ``repro hier`` config schema; see README)."""
        return {
            "name": self.name,
            "memory_latency": self.memory_latency,
            "levels": [lv.to_dict() for lv in self.levels],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HierarchyConfig":
        if not isinstance(doc, dict):
            raise ValueError("a hierarchy config must be a JSON object")
        unknown = set(doc) - {"name", "memory_latency", "levels"}
        if unknown:
            raise ValueError(f"unknown hierarchy config keys: {sorted(unknown)}")
        levels = doc.get("levels")
        if not isinstance(levels, (list, tuple)) or not levels:
            raise ValueError("hierarchy config needs a non-empty 'levels' list")
        return cls(
            levels=tuple(LevelConfig.from_dict(lv) for lv in levels),
            memory_latency=doc.get("memory_latency", 20),
            name=doc.get("name", "custom"),
        )

    @classmethod
    def preset(cls, name: str) -> "HierarchyConfig":
        try:
            return HIERARCHY_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown hierarchy preset {name!r} "
                f"(choose from {', '.join(sorted(HIERARCHY_PRESETS))})"
            ) from None


HIERARCHY_PRESETS: dict[str, HierarchyConfig] = {
    # Flat, unbounded, unit lines: semantically BackerMemory (the parity
    # tests lean on this).
    "flat": HierarchyConfig(
        levels=(LevelConfig(capacity=None, line_size=1, latency=1),),
        memory_latency=20,
        name="flat",
    ),
    "l1": HierarchyConfig(
        levels=(LevelConfig(capacity=16, line_size=4, latency=1),),
        memory_latency=20,
        name="l1",
    ),
    "l1l2": HierarchyConfig(
        levels=(
            LevelConfig(capacity=8, line_size=2, latency=1),
            LevelConfig(capacity=64, line_size=8, latency=4),
        ),
        memory_latency=40,
        name="l1l2",
    ),
    "l1l2l3": HierarchyConfig(
        levels=(
            LevelConfig(capacity=8, line_size=2, latency=1),
            LevelConfig(capacity=32, line_size=4, latency=4),
            LevelConfig(capacity=256, line_size=8, latency=12),
        ),
        memory_latency=80,
        name="l1l2l3",
    ),
}


@dataclass
class LevelStats:
    """Counters for one level, aggregated over all processors."""

    fetches: int = 0
    hits: int = 0
    writebacks: int = 0
    evictions: int = 0
    false_sharing: int = 0
    miss_latency: Histogram = field(default_factory=Histogram)


@dataclass
class HierarchyStats:
    """Per-level counters plus whole-hierarchy protocol events.

    ``fetches``/``writebacks`` (properties) are the *store-level*
    traffic — lines moved between the deepest level and the backing
    store — mirroring :class:`~repro.runtime.backer.BackerStats`
    semantics so :func:`repro.runtime.timed.simulate_timed` prices
    hierarchy traffic unchanged.
    """

    levels: list[LevelStats] = field(default_factory=list)
    reconciles: int = 0
    flushes: int = 0
    dropped_reconciles: int = 0
    dropped_flushes: int = 0
    memory_fetches: int = 0
    cache_hits: int = 0
    false_sharing_pairs: dict[tuple[int, tuple], int] = field(
        default_factory=dict
    )

    @property
    def fetches(self) -> int:
        """Lines fetched from the backing store (deepest-level misses)."""
        return self.memory_fetches

    @property
    def writebacks(self) -> int:
        """Locations written back into the backing store."""
        return self.levels[-1].writebacks if self.levels else 0

    @property
    def false_sharing_total(self) -> int:
        return sum(ls.false_sharing for ls in self.levels)

    @property
    def data_messages(self) -> int:
        """Lines/locations moved across any level boundary."""
        return sum(ls.fetches + ls.writebacks for ls in self.levels)

    @property
    def control_messages(self) -> int:
        """Protocol events that carry no data themselves."""
        return self.reconciles + self.flushes

    @property
    def messages(self) -> int:
        return self.data_messages + self.control_messages

    def top_pairs(self, limit: int = 5) -> list[tuple[int, tuple, int]]:
        """The heaviest ``(level, (loc, loc'), count)`` attributions."""
        ranked = sorted(
            self.false_sharing_pairs.items(),
            key=lambda kv: (-kv[1], repr(kv[0])),
        )
        return [(lvl, pair, n) for (lvl, pair), n in ranked[:limit]]


class _Line:
    """One cached line: location values plus the dirty subset."""

    __slots__ = ("data", "dirty")

    def __init__(self) -> None:
        self.data: dict[Location, int | None] = {}
        self.dirty: set[Location] = set()


def _pair_key(a: Location, b: Location) -> tuple:
    """Order-stable key for an unordered location pair."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


class HierarchicalBackerMemory(MemorySystem):
    """N-level per-processor BACKER caches over one backing store.

    Parameters
    ----------
    config:
        A :class:`HierarchyConfig`, a preset name (``"l1l2"``, …), or a
        config dict (the JSON schema of :meth:`HierarchyConfig.to_dict`).
    drop_reconcile_probability / drop_flush_probability:
        Fault-injection rates; a dropped reconcile marks dirty data
        clean without propagating it, a dropped flush evicts a level
        without writing its dirty data back.  ``fault_level`` picks the
        1-based level the faults strike (default: the first level).
    clobber_probability:
        Rate of whole-line writebacks at ``fault_level`` (stale words
        included) on reconciles, the ones flushes perform too.
    rng:
        Seed or ``random.Random`` for fault decisions.
    """

    name = "hier"

    def __init__(
        self,
        config: HierarchyConfig | str | dict | None = None,
        drop_reconcile_probability: float = 0.0,
        drop_flush_probability: float = 0.0,
        clobber_probability: float = 0.0,
        fault_level: int = 1,
        rng: random.Random | int | None = None,
    ) -> None:
        if config is None:
            config = HIERARCHY_PRESETS["l1l2"]
        elif isinstance(config, str):
            config = HierarchyConfig.preset(config)
        elif isinstance(config, dict):
            config = HierarchyConfig.from_dict(config)
        self.config = config
        # The shape, unpacked once for the per-event paths.
        self._depth = config.depth
        self._line_sizes = tuple(cfg.line_size for cfg in config.levels)
        self._capacities = tuple(cfg.capacity for cfg in config.levels)
        self._latencies = tuple(cfg.latency for cfg in config.levels)
        if not (0.0 <= drop_reconcile_probability <= 1.0):
            raise ValueError("drop_reconcile_probability must be in [0, 1]")
        if not (0.0 <= drop_flush_probability <= 1.0):
            raise ValueError("drop_flush_probability must be in [0, 1]")
        if not (0.0 <= clobber_probability <= 1.0):
            raise ValueError("clobber_probability must be in [0, 1]")
        if not (1 <= fault_level <= config.depth):
            raise ValueError(
                f"fault_level must be in [1, {config.depth}] for this shape"
            )
        self.drop_reconcile_probability = drop_reconcile_probability
        self.drop_flush_probability = drop_flush_probability
        self.clobber_probability = clobber_probability
        self.fault_level = fault_level
        self._rng = as_rng(rng)
        self._main: dict[Location, int] = {}
        # Per processor, per level: line id -> _Line, LRU-ordered (MRU
        # last).  Line ids are per-level first-touch location indices
        # divided by that level's line size.
        self._stacks: list[list[OrderedDict[int, _Line]]] = []
        self._loc_index: dict[Location, int] = {}
        # Per level: line id -> locations registered on that line.
        self._line_members: list[dict[int, list[Location]]] = []
        # Per processor, per level: line id -> value snapshot at the
        # moment the line last left that level (false-sharing shadows).
        self._shadows: list[list[dict[int, dict[Location, int | None]]]] = []
        # Per (proc, level): capped protocol event list for span tracks,
        # kept only when the collector was on at :meth:`attach`.
        self._track_events: dict[tuple[int, int], list[tuple[int, str]]] = {}
        self._tracking = False
        self._tick = 0
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    # Line geometry
    # ------------------------------------------------------------------

    def _index(self, loc: Location) -> int:
        """First-touch location index (stable within one execution)."""
        idx = self._loc_index.get(loc)
        if idx is None:
            idx = self._loc_index[loc] = len(self._loc_index)
            for members, size in zip(self._line_members, self._line_sizes):
                members.setdefault(idx // size, []).append(loc)
        return idx

    def _note(self, proc: int, level: int, kind: str) -> None:
        evs = self._track_events.setdefault((proc, level), [])
        if len(evs) < TRACK_EVENT_LIMIT:
            evs.append((self._tick, kind))

    # ------------------------------------------------------------------
    # Protocol primitives
    # ------------------------------------------------------------------

    def _probe_below(
        self, proc: int, below: int, loc: Location
    ) -> int | None:
        """The value visible at levels deeper than ``below``, else main."""
        idx = self._loc_index[loc]
        stack = self._stacks[proc]
        sizes = self._line_sizes
        for k in range(below + 1, self._depth):
            line = stack[k].get(idx // sizes[k])
            if line is not None and loc in line.data:
                return line.data[loc]
        return self._main.get(loc)

    def _insert(self, proc: int, level: int, line_id: int, line: _Line) -> None:
        """Install a line at ``level`` (MRU), evicting beyond capacity."""
        cache = self._stacks[proc][level]
        cache[line_id] = line
        cache.move_to_end(line_id)
        cap = self._capacities[level]
        while cap is not None and len(cache) > cap:
            victim_id, victim = cache.popitem(last=False)
            self._evict(proc, level, victim_id, victim)

    def _evict(
        self, proc: int, level: int, line_id: int, line: _Line
    ) -> None:
        """Push an evicted line's dirty locations down one level."""
        ls = self.stats.levels[level]
        ls.evictions += 1
        self._shadows[proc][level][line_id] = dict(line.data)
        if self._tracking:
            self._note(proc, level, "evict")
        if not line.dirty:
            return
        ls.writebacks += len(line.dirty)
        if self._tracking:
            self._note(proc, level, "writeback")
        if level + 1 >= self._depth:
            for loc in line.dirty:
                value = line.data[loc]
                assert value is not None, "dirty locations always hold a write"
                self._main[loc] = value
            return
        below_size = self._line_sizes[level + 1]
        below = self._stacks[proc][level + 1]
        for loc in line.dirty:
            below_id = self._loc_index[loc] // below_size
            target = below.get(below_id)
            if target is None:
                target = _Line()
                self._insert(proc, level + 1, below_id, target)
                # _insert may itself evict; re-fetch in case the dict
                # object was displaced (it cannot be: we just inserted
                # it MRU, and eviction pops LRU — but stay defensive).
                target = below[below_id]
            else:
                below.move_to_end(below_id)
            target.data[loc] = line.data[loc]
            target.dirty.add(loc)

    def _reconcile_all(
        self,
        proc: int,
        *,
        drop_level: int | None = None,
        skip_level: int | None = None,
    ) -> None:
        """Push every dirty location down into the backing store.

        ``drop_level`` (0-based) injects a fault: the downward flow is
        severed at that level — its (and shallower levels') dirty data
        is marked clean but never reaches the store.  ``skip_level``
        models a level that ignored the command entirely: its dirty
        data stays dirty in place (used by dropped flushes).  A
        clobber sends every word of a ``fault_level`` line down if the
        line holds a dirty location, its own or one passing through.
        """
        self.stats.reconciles += 1
        clobber_level = None
        if self.clobber_probability > 0.0 and self._rng.random() < self.clobber_probability:
            clobber_level = self.fault_level - 1
        outgoing: dict[Location, int | None] = {}
        depth = self._depth
        stack = self._stacks[proc]
        levels = self.stats.levels
        for k in range(depth):
            if k == skip_level:
                continue
            cache = stack[k]
            if k == clobber_level:
                for line in cache.values():
                    if line.dirty or not outgoing.keys().isdisjoint(line.data):
                        for loc, value in line.data.items():
                            if loc not in outgoing:
                                outgoing[loc] = value
                    line.dirty.clear()
            else:
                for line in cache.values():
                    for loc in line.dirty:
                        # A location dirty at several levels is freshest
                        # at the shallowest one (writes land in L1).
                        if loc not in outgoing:
                            outgoing[loc] = line.data[loc]
                    line.dirty.clear()
            if drop_level == k:
                outgoing = {}
                continue
            if outgoing:
                levels[k].writebacks += len(outgoing)
                if self._tracking:
                    self._note(proc, k, "writeback")
                if k + 1 < depth and k + 1 != skip_level:
                    # Refresh deeper copies so later refetches from the
                    # stack see the reconciled values.
                    below_size = self._line_sizes[k + 1]
                    below = stack[k + 1]
                    loc_index = self._loc_index
                    for loc, value in outgoing.items():
                        line = below.get(loc_index[loc] // below_size)
                        if line is not None and loc in line.data:
                            line.data[loc] = value
                            line.dirty.discard(loc)
        for loc, value in outgoing.items():
            if value is not None:
                self._main[loc] = value
            else:  # only a clobber writes back ⊥, erasing the entry
                assert clobber_level is not None, "dirty data holds a write"
                self._main.pop(loc, None)

    def _flush_all(self, proc: int, *, drop_level: int | None = None) -> None:
        """Reconcile then evict the whole stack.

        ``drop_level`` injects a fault: that level ignores the flush —
        its dirty data is neither written back nor evicted, and its
        stale lines survive the synchronization point (exactly the
        staleness BACKER's flush exists to prevent, so the post-mortem
        verifier must catch any read that observes it).
        """
        self._reconcile_all(proc, skip_level=drop_level)
        self.stats.reconciles -= 1  # folded into the flush event
        self.stats.flushes += 1
        for k in range(self._depth):
            if k == drop_level:
                continue
            cache = self._stacks[proc][k]
            shadows = self._shadows[proc][k]
            for line_id, line in cache.items():
                shadows[line_id] = dict(line.data)
            if cache and self._tracking:
                self._note(proc, k, "flush")
            cache.clear()

    # ------------------------------------------------------------------
    # MemorySystem interface
    # ------------------------------------------------------------------

    def attach(self, num_procs: int) -> None:
        depth = self._depth
        self._main = {}
        self._stacks = [
            [OrderedDict() for _ in range(depth)] for _ in range(num_procs)
        ]
        self._loc_index = {}
        self._line_members = [dict() for _ in range(depth)]
        self._shadows = [
            [dict() for _ in range(depth)] for _ in range(num_procs)
        ]
        self._track_events = {}
        self._tracking = obs.enabled()
        self._tick = 0
        self.stats = HierarchyStats(
            levels=[LevelStats() for _ in range(depth)]
        )

    def read(self, proc: int, node: int, loc: Location) -> int | None:
        self._tick += 1
        idx = self._index(loc)
        stack = self._stacks[proc]
        sizes = self._line_sizes
        st = self.stats
        latency = 0
        value: int | None
        for k, lat in enumerate(self._latencies):
            latency += lat
            line_id = idx // sizes[k]
            line = stack[k].get(line_id)
            if line is not None and loc in line.data:
                value = line.data[loc]
                stack[k].move_to_end(line_id)
                if k == 0:
                    st.cache_hits += 1
                    st.levels[0].hits += 1
                    return value
                st.levels[k].hits += 1
                break
        else:
            k = self._depth
            latency += self.config.memory_latency
            value = self._main.get(loc)
            st.memory_fetches += 1
        # Fill every missed level (all above ``k``) with the containing
        # line, recording the full service latency at each (deeper
        # histograms therefore hold strictly slower subsets: monotone
        # p50s by construction).
        for k in range(k - 1, -1, -1):
            ls = st.levels[k]
            ls.fetches += 1
            ls.miss_latency.record(latency)
            if self._tracking:
                self._note(proc, k, "fetch")
            line_id = idx // sizes[k]
            line = stack[k].get(line_id)
            fresh = line is None
            if fresh:
                line = _Line()
            for member in self._line_members[k][line_id]:
                if member not in line.data:
                    line.data[member] = self._probe_below(proc, k, member)
            self._false_sharing_check(proc, k, line_id, loc, line)
            if fresh:
                self._insert(proc, k, line_id, line)
            else:
                stack[k].move_to_end(line_id)
        return value

    def _false_sharing_check(
        self, proc: int, level: int, line_id: int, loc: Location, line: _Line
    ) -> None:
        """Attribute a refetch caused by the line's *other* locations."""
        shadow = self._shadows[proc][level].pop(line_id, None)
        if shadow is None or loc not in shadow:
            return
        if shadow[loc] != line.data.get(loc):
            return  # the requested datum itself changed: a true miss
        for other, old in shadow.items():
            if other is not loc and other != loc and line.data.get(other) != old:
                ls = self.stats.levels[level]
                ls.false_sharing += 1
                key = (level, _pair_key(loc, other))
                pairs = self.stats.false_sharing_pairs
                pairs[key] = pairs.get(key, 0) + 1
                return

    def write(self, proc: int, node: int, loc: Location) -> None:
        self._tick += 1
        line_id = self._index(loc) // self._line_sizes[0]
        cache = self._stacks[proc][0]
        line = cache.get(line_id)
        if line is None:
            # Write-allocate without a fetch (matching the flat BACKER
            # cache): the line starts partial and fills on later reads.
            line = _Line()
            line.data[loc] = node
            line.dirty.add(loc)
            self._insert(proc, 0, line_id, line)
            return
        line.data[loc] = node
        line.dirty.add(loc)
        cache.move_to_end(line_id)

    def node_starting(self, proc: int, node: int, cross_pred: bool) -> None:
        if not cross_pred:
            return
        if (
            self.drop_flush_probability > 0.0
            and self._rng.random() < self.drop_flush_probability
        ):
            self.stats.dropped_flushes += 1
            self._flush_all(proc, drop_level=self.fault_level - 1)
            return
        self._flush_all(proc)

    def node_completed(self, proc: int, node: int, cross_succ: bool) -> None:
        if not cross_succ:
            return
        if (
            self.drop_reconcile_probability > 0.0
            and self._rng.random() < self.drop_reconcile_probability
        ):
            self.stats.dropped_reconciles += 1
            self._reconcile_all(proc, drop_level=self.fault_level - 1)
            return
        self._reconcile_all(proc)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def publish_obs(self) -> None:
        """Flush accumulated telemetry into the global collector.

        Called by the executor after a run (duck-typed hook); hot-loop
        accounting stays plain-int and this pays the obs cost once.
        No-op while the collector is disabled.
        """
        if not obs.enabled():
            return
        o = obs.get()
        st = self.stats
        for k, ls in enumerate(st.levels, start=1):
            prefix = f"hier.L{k}."
            o.add(prefix + "fetches", ls.fetches)
            o.add(prefix + "hits", ls.hits)
            o.add(prefix + "writebacks", ls.writebacks)
            o.add(prefix + "evictions", ls.evictions)
            o.add(prefix + "false_sharing", ls.false_sharing)
            o.merge_histogram(prefix + "miss_latency", ls.miss_latency)
        o.add("hier.reconciles", st.reconciles)
        o.add("hier.flushes", st.flushes)
        o.add("hier.dropped_reconciles", st.dropped_reconciles)
        o.add("hier.dropped_flushes", st.dropped_flushes)
        o.add("hier.memory_fetches", st.memory_fetches)
        o.add("hier.false_sharing", st.false_sharing_total)
        obs.attach(self._track_span())

    def _track_span(self) -> Span:
        """Hand-built span tree: one Chrome track per (proc, level).

        Track children are laid out at their protocol tick (schematic
        simulated time, microseconds in the rendered trace); the ``track``
        attribute routes each to its own Perfetto process track.
        """
        root = Span("hier.tracks", attrs={"shape": self.config.name})
        for (proc, level), evs in sorted(self._track_events.items()):
            track = Span(
                f"p{proc}.L{level + 1}",
                attrs={
                    "track": f"hier p{proc} L{level + 1}",
                    "proc": proc,
                    "level": level + 1,
                    "events": len(evs),
                },
                start=0.0,
                duration=(evs[-1][0] + 1) * 1e-6 if evs else 1e-6,
            )
            for tick, kind in evs:
                track.children.append(
                    Span(kind, start=0.0, duration=1e-6, attrs={"tick": tick})
                )
            root.children.append(track)
        return root

    # ------------------------------------------------------------------
    # Introspection helpers (tests, sweep reporting)
    # ------------------------------------------------------------------

    def cached_locations(self, proc: int, level: int) -> set[Location]:
        """Locations currently cached by ``proc`` at 0-based ``level``."""
        out: set[Location] = set()
        for line in self._stacks[proc][level].values():
            out.update(line.data)
        return out
