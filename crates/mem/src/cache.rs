//! Cache hierarchy with MESI-style coherence statistics and a
//! value-carrying fault overlay.
//!
//! Geometry follows the paper's §3.1 platform: per-core L1I 32 kB /
//! 4-way and L1D 32 kB / 4-way, shared L2 512 kB / 8-way, 64-byte lines,
//! LRU replacement. Functionally the model stays write-through: data
//! lives in [`crate::PhysMem`] and the tag stores produce timing and
//! statistics. Two fault-state layers sit on top, both empty (and
//! zero-cost) in a fault-free run:
//!
//! * per-core [`StoreBuffer`]s — pending stores between core and L1D,
//!   with store-to-load forwarding once a strike taints an entry;
//! * lazy per-line *data overlays* — a [`MemSystem::flip_data_bit`]
//!   strike materialises a 64-byte copy of the struck line from memory,
//!   corrupts it, and the overlay (not memory) then answers loads that
//!   hit that physical line slot, so a cache-data upset serves a stale
//!   value exactly like a real SRAM flip would.

use crate::phys::PhysMem;
use crate::store::StoreBuffer;
use std::collections::BTreeMap;
use std::fmt;

/// What kind of access hits the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Instruction fetch (L1I path).
    Fetch,
    /// Data load (L1D path).
    DataRead,
    /// Data store (L1D path, write-allocate).
    DataWrite,
}

/// Cache geometry and latency parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// L1 (instruction and data) size in bytes.
    pub l1_size: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Shared L2 size in bytes.
    pub l2_size: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Cache line size in bytes.
    pub line: u32,
    /// Extra cycles for an L1 miss that hits L2.
    pub l2_hit_cycles: u32,
    /// Extra cycles for a miss that goes to memory.
    pub mem_cycles: u32,
}

impl CacheParams {
    /// The paper's configuration: L1 32 kB 4-way, L2 512 kB 8-way.
    pub fn paper() -> CacheParams {
        CacheParams {
            l1_size: 32 << 10,
            l1_ways: 4,
            l2_size: 512 << 10,
            l2_ways: 8,
            line: 64,
            l2_hit_cycles: 8,
            mem_cycles: 48,
        }
    }

    /// Number of lines in one L1 tag store (`set_count * ways`; 512 for
    /// the paper's 32 kB / 4-way geometry). This is the cache-state
    /// fault space's per-L1 extent, so it must match the slab
    /// [`MemSystem`] actually allocates.
    pub fn l1_lines(&self) -> u32 {
        (self.l1_size / self.line / self.l1_ways).max(1) * self.l1_ways
    }

    /// Number of lines in the shared L2 tag store (8192 for the paper's
    /// 512 kB / 8-way geometry).
    pub fn l2_lines(&self) -> u32 {
        (self.l2_size / self.line / self.l2_ways).max(1) * self.l2_ways
    }
}

impl Default for CacheParams {
    fn default() -> CacheParams {
        CacheParams::paper()
    }
}

/// Hit/miss and coherence counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines invalidated by another core's write (L1D only).
    pub invalidations: u64,
    /// Dirty lines written back on eviction or downgrade.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A rejected fault coordinate from one of the checked flip hooks
/// ([`MemSystem::flip_bit`], [`MemSystem::flip_data_bit`],
/// [`MemSystem::flip_storebuf`]). Campaign-sampled faults are in range
/// by construction; this surfaces a mis-derived geometry (a future
/// domain edit) as a harness anomaly instead of indexing garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipError {
    /// No such unit selector.
    UnknownUnit(u32),
    /// Core index past the hierarchy's core count.
    CoreRange {
        /// The rejected index.
        core: usize,
        /// The hierarchy's core count.
        cores: usize,
    },
    /// Line index past the selected tag store.
    LineRange {
        /// The rejected index.
        line: usize,
        /// The store's line count.
        lines: usize,
    },
    /// Store-buffer entry index past the FIFO depth.
    EntryRange {
        /// The rejected index.
        entry: usize,
        /// The FIFO depth.
        entries: usize,
    },
}

impl fmt::Display for FlipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlipError::UnknownUnit(unit) => write!(f, "unknown cache unit {unit}"),
            FlipError::CoreRange { core, cores } => {
                write!(f, "core {core} out of range (hierarchy has {cores})")
            }
            FlipError::LineRange { line, lines } => {
                write!(f, "line {line} out of range (store has {lines})")
            }
            FlipError::EntryRange { entry, entries } => {
                write!(
                    f,
                    "store-buffer entry {entry} out of range (depth {entries})"
                )
            }
        }
    }
}

impl std::error::Error for FlipError {}

/// MESI line states (the model distinguishes dirty vs clean and
/// shared vs exclusive for the coherence counters). `Invalid` never
/// arises in a fault-free run — occupancy is tracked by the
/// [`INVALID_TAG`] sentinel instead — it exists so a particle strike on
/// the 2-bit state field ([`SetAssoc::flip_line_bit`]) has somewhere to
/// land; an `Invalid` line misses on lookup like an empty way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mesi {
    Modified,
    Exclusive,
    Shared,
    Invalid,
}

impl Mesi {
    /// The 2-bit SRAM encoding of the state field the fault model
    /// flips: M=0, E=1, S=2, I=3.
    fn code(self) -> u32 {
        match self {
            Mesi::Modified => 0,
            Mesi::Exclusive => 1,
            Mesi::Shared => 2,
            Mesi::Invalid => 3,
        }
    }

    fn from_code(code: u32) -> Mesi {
        match code & 3 {
            0 => Mesi::Modified,
            1 => Mesi::Exclusive,
            2 => Mesi::Shared,
            _ => Mesi::Invalid,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u32,
    state: Mesi,
    lru: u64,
}

/// Tag sentinel marking an empty way. Real tags are
/// `addr >> (line_bits + set_bits)` with at least one bit shifted
/// out, so they can never be `u32::MAX`.
const INVALID_TAG: u32 = u32::MAX;

/// A materialised data copy of one resident cache line: the fault
/// overlay behind [`MemSystem::flip_data_bit`]. `base` is the line's
/// physical base address — the overlay serves a load only while the
/// slot's occupant still maps there, so a later tag strike cannot leak
/// the bytes to an unrelated address.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LineOverlay {
    base: u32,
    bytes: [u8; 64],
}

/// A set-associative tag store, laid out as one dense
/// `set_count * ways` slab (set `s` owns `lines[s*ways..(s+1)*ways]`)
/// so a lookup touches a single contiguous run of 12-byte entries —
/// this sits on the interpreter's per-instruction fetch path, where
/// the previous vec-of-vecs layout cost a dependent pointer chase per
/// access.
///
/// Replacement semantics are unchanged from the vec-of-vecs model:
/// fills prefer an empty way, otherwise evict the least recently used
/// (LRU stamps come from a strictly increasing per-cache tick, so the
/// minimum is unique and the victim choice cannot depend on way
/// order).
///
/// `lookup`/`insert`/`remove` report the slab index of the line they
/// touched so the data-overlay bookkeeping can key off the physical
/// slot without a second (tick-bumping, hence timing-visible) walk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SetAssoc {
    lines: Box<[Line]>,
    ways: usize,
    set_shift: u32,
    set_mask: u32,
    tick: u64,
}

impl SetAssoc {
    fn new(size: u32, ways: u32, line: u32) -> SetAssoc {
        let set_count = (size / line / ways).max(1);
        assert!(
            set_count.is_power_of_two(),
            "set count must be a power of two"
        );
        let empty = Line {
            tag: INVALID_TAG,
            state: Mesi::Shared,
            lru: 0,
        };
        SetAssoc {
            lines: vec![empty; (set_count * ways) as usize].into_boxed_slice(),
            ways: ways as usize,
            set_shift: line.trailing_zeros(),
            set_mask: set_count - 1,
            tick: 0,
        }
    }

    fn index(&self, addr: u32) -> (usize, u32) {
        let block = addr >> self.set_shift;
        (
            (block & self.set_mask) as usize,
            block >> self.set_mask.trailing_ones(),
        )
    }

    /// The line's physical base address, reconstructed from its slab
    /// slot and stored tag (the inverse of [`SetAssoc::index`]).
    fn base_addr(&self, slot: usize) -> u32 {
        let set = (slot / self.ways) as u32;
        let block = (self.lines[slot].tag << self.set_mask.trailing_ones()) | set;
        block << self.set_shift
    }

    #[inline]
    fn lookup(&mut self, addr: u32) -> Option<usize> {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let slot = self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .position(|l| l.tag == tag && l.state != Mesi::Invalid)?
            + set * self.ways;
        self.lines[slot].lru = tick;
        Some(slot)
    }

    /// Inserts a line, returning its slab slot and the evicted line if
    /// the set was full.
    fn insert(&mut self, addr: u32, state: Mesi) -> (usize, Option<Line>) {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let ways = &mut self.lines[set * self.ways..(set + 1) * self.ways];
        let (way, evicted) = match ways.iter().position(|l| l.tag == INVALID_TAG) {
            Some(empty) => (empty, None),
            None => {
                let victim = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty set");
                (victim, Some(ways[victim]))
            }
        };
        ways[way] = Line {
            tag,
            state,
            lru: tick,
        };
        (set * self.ways + way, evicted)
    }

    fn remove(&mut self, addr: u32) -> Option<(usize, Line)> {
        let (set, tag) = self.index(addr);
        let ways = &mut self.lines[set * self.ways..(set + 1) * self.ways];
        let i = ways
            .iter()
            .position(|l| l.tag == tag && l.state != Mesi::Invalid)?;
        let line = ways[i];
        ways[i] = Line {
            tag: INVALID_TAG,
            state: Mesi::Shared,
            lru: 0,
        };
        Some((set * self.ways + i, line))
    }

    /// Fault hook: XORs one bit of the `line`-th tag-store entry.
    /// The 40-bit per-line layout mirrors the SRAM a strike would hit —
    /// bits 0–31 the tag, 32–33 the 2-bit MESI state code, 34–39 the
    /// low six bits of the LRU stamp. `bit` wraps at 40 (the domain's
    /// adjacent-bit modulus); the caller has range-checked `line`. Pure
    /// XOR on every field, so applying the same flip twice is the
    /// identity.
    fn flip_line_bit(&mut self, line: usize, bit: u32) {
        let l = &mut self.lines[line];
        match bit % 40 {
            b @ 0..=31 => l.tag ^= 1 << b,
            b @ 32..=33 => l.state = Mesi::from_code(l.state.code() ^ (1 << (b - 32))),
            b => l.lru ^= 1 << (b - 34),
        }
    }

    /// Number of lines in this tag store.
    fn line_count(&self) -> usize {
        self.lines.len()
    }
}

/// The multicore cache hierarchy: one L1I + L1D pair per core, a shared
/// L2 with MESI bookkeeping between the L1 data caches, one
/// [`StoreBuffer`] per core, and the lazy data-overlay map behind the
/// `cachedata` fault domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSystem {
    params: CacheParams,
    l1i: Vec<SetAssoc>,
    l1d: Vec<SetAssoc>,
    l2: SetAssoc,
    l1i_stats: Vec<CacheStats>,
    l1d_stats: Vec<CacheStats>,
    l2_stats: CacheStats,
    /// Per-core line address (`addr >> line_bits`) of the most recent
    /// instruction fetch, or `u32::MAX` when unknown. Because the L1I
    /// is touched only by its own core's fetches (data snoops and
    /// invalidations act on the L1D side) and an L1I hit costs zero
    /// extra cycles, a repeat fetch to the same line can be answered
    /// without walking the tag store: the line is still resident, the
    /// answer is "hit, penalty 0", and skipping the intermediate LRU
    /// stamps cannot change any future eviction — no other L1I access
    /// interleaves with the repeats, so the line's relative recency
    /// against every other line is unchanged.
    fetch_line: Vec<u32>,
    /// Per-core store buffers. Shadow state is pushed on every store;
    /// only a strike makes one observable (see [`crate::store`]).
    sbuf: Vec<StoreBuffer>,
    /// Materialised data copies of struck lines, keyed by
    /// `(unit, core, slab slot)` (core 0 for the shared L2). Empty in
    /// a fault-free run; a `BTreeMap` so iteration order, equality and
    /// clones are deterministic.
    overlays: BTreeMap<(u32, u32, u32), LineOverlay>,
}

impl MemSystem {
    /// [`MemSystem::flip_bit`] unit selector: a per-core L1 instruction
    /// tag store.
    pub const UNIT_L1I: u32 = 0;
    /// [`MemSystem::flip_bit`] unit selector: a per-core L1 data tag
    /// store.
    pub const UNIT_L1D: u32 = 1;
    /// [`MemSystem::flip_bit`] unit selector: the shared L2 tag store.
    pub const UNIT_L2: u32 = 2;
    /// Bits per tag-store line in the cache-state fault model (32 tag +
    /// 2 MESI state + 6 LRU-stamp bits).
    pub const LINE_BITS: u32 = 40;
    /// Bits per line in the cache-data fault model (the 64 data bytes).
    pub const DATA_LINE_BITS: u32 = 512;

    /// Creates a hierarchy for `cores` cores.
    pub fn new(cores: usize, params: CacheParams) -> MemSystem {
        MemSystem {
            params,
            l1i: (0..cores)
                .map(|_| SetAssoc::new(params.l1_size, params.l1_ways, params.line))
                .collect(),
            l1d: (0..cores)
                .map(|_| SetAssoc::new(params.l1_size, params.l1_ways, params.line))
                .collect(),
            l2: SetAssoc::new(params.l2_size, params.l2_ways, params.line),
            l1i_stats: vec![CacheStats::default(); cores],
            l1d_stats: vec![CacheStats::default(); cores],
            l2_stats: CacheStats::default(),
            fetch_line: vec![u32::MAX; cores],
            sbuf: vec![StoreBuffer::default(); cores],
            overlays: BTreeMap::new(),
        }
    }

    /// Number of cores the hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1i.len()
    }

    /// The configured parameters.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Simulates one access by `core`, returning the extra latency in
    /// cycles beyond the L1-hit base cost (0 for an L1 hit). This is
    /// the timing-only entry point (instruction fetch, and data
    /// accesses that do not consult the value layers); loads and stores
    /// on the execution path go through [`MemSystem::data_read`] /
    /// [`MemSystem::data_write`], which produce identical timing.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn access(&mut self, core: usize, access: Access, addr: u32) -> u32 {
        match access {
            Access::Fetch => self.access_l1i(core, addr),
            Access::DataRead => self.l1d_slot_access(core, addr, false).0,
            Access::DataWrite => self.l1d_slot_access(core, addr, true).0,
        }
    }

    /// One data load by `core`: runs the exact timing access of
    /// [`Access::DataRead`] and additionally consults the value layers,
    /// youngest first — a tainted store-buffer entry forwards, else a
    /// data overlay on the serving L1D slot answers. Returns the
    /// penalty and `Some(value)` when a layer overrides the
    /// write-through memory value (never in a fault-free run).
    #[inline]
    pub fn data_read(&mut self, core: usize, addr: u32, bytes: u32) -> (u32, Option<u64>) {
        let forwarded = if self.sbuf[core].is_tainted() {
            self.sbuf[core].forward(addr, bytes as u8)
        } else {
            None
        };
        let (penalty, slot) = self.l1d_slot_access(core, addr, false);
        let value = forwarded.or_else(|| self.overlay_value(core, slot, addr, bytes));
        (penalty, value)
    }

    /// One data store by `core`: pushes the store into the core's
    /// buffer (recycling — and, if struck, draining — the oldest
    /// entry), runs the exact timing access of [`Access::DataWrite`]
    /// and folds the new value into any data overlay on the serving
    /// slot. The caller has already written `value` through to `mem`;
    /// an overlay that becomes byte-identical to memory dissolves.
    #[inline]
    pub fn data_write(
        &mut self,
        core: usize,
        addr: u32,
        bytes: u32,
        value: u64,
        mem: &mut PhysMem,
    ) -> u32 {
        self.sbuf[core].push(addr, bytes as u8, value, mem);
        let (penalty, slot) = self.l1d_slot_access(core, addr, true);
        if !self.overlays.is_empty() {
            self.store_into_overlay(core, slot, addr, bytes, value, mem);
        }
        penalty
    }

    /// Drains `core`'s store buffer to memory (a fence: SVC entry,
    /// halt, atomics). A no-op unless a strike tainted an entry.
    #[inline]
    pub fn drain_store_buffer(&mut self, core: usize, mem: &mut PhysMem) {
        self.sbuf[core].drain_all(mem);
    }

    #[inline]
    fn access_l1i(&mut self, core: usize, addr: u32) -> u32 {
        // Same-line repeat fetch: resident by construction (see
        // `fetch_line`), hit with zero penalty.
        let line = addr >> self.params.line.trailing_zeros();
        if self.fetch_line[core] == line {
            self.l1i_stats[core].hits += 1;
            return 0;
        }
        self.fetch_line[core] = line;
        if self.l1i[core].lookup(addr).is_some() {
            self.l1i_stats[core].hits += 1;
            return 0;
        }
        self.l1i_stats[core].misses += 1;
        let (penalty, _) = self.access_l2(addr, false);
        self.l1i[core].insert(addr, Mesi::Shared);
        penalty
    }

    /// The L1D access path, returning the penalty and the slab slot of
    /// the line that served (or was just filled for) `addr`. All data-
    /// overlay bookkeeping rides the slots the timing walk already
    /// computed — never an extra `lookup`, which would bump LRU ticks
    /// and change golden timing.
    fn l1d_slot_access(&mut self, core: usize, addr: u32, write: bool) -> (u32, usize) {
        // Hit path.
        if let Some(slot) = self.l1d[core].lookup(addr) {
            self.l1d_stats[core].hits += 1;
            let line = &mut self.l1d[core].lines[slot];
            let upgrade = write && line.state == Mesi::Shared;
            if write {
                line.state = Mesi::Modified;
            }
            if upgrade {
                // BusUpgr: invalidate every other copy.
                self.invalidate_others(core, addr);
            }
            return (0, slot);
        }
        self.l1d_stats[core].misses += 1;

        // Snoop other L1Ds; a Modified copy elsewhere must be written back.
        let mut shared_elsewhere = false;
        for other in 0..self.l1d.len() {
            if other == core {
                continue;
            }
            if write {
                if let Some((oslot, line)) = self.l1d[other].remove(addr) {
                    self.l1d_stats[other].invalidations += 1;
                    if line.state == Mesi::Modified {
                        self.l1d_stats[other].writebacks += 1;
                    }
                    self.drop_overlay(Self::UNIT_L1D, other, oslot);
                }
            } else if let Some(oslot) = self.l1d[other].lookup(addr) {
                let line = &mut self.l1d[other].lines[oslot];
                if line.state == Mesi::Modified {
                    self.l1d_stats[other].writebacks += 1;
                }
                line.state = Mesi::Shared;
                shared_elsewhere = true;
            }
        }

        let (penalty, l2_hit_slot) = self.access_l2(addr, write);
        let state = if write {
            Mesi::Modified
        } else if shared_elsewhere {
            Mesi::Shared
        } else {
            Mesi::Exclusive
        };
        let (slot, evicted) = self.l1d[core].insert(addr, state);
        if let Some(evicted) = evicted {
            if evicted.state == Mesi::Modified {
                self.l1d_stats[core].writebacks += 1;
            }
        }
        if !self.overlays.is_empty() {
            // The fill replaces the slot's occupant: its overlay (if
            // any) leaves with it — a clean-line eviction discards the
            // strike — and a struck L2 copy of the *new* line
            // propagates down with the fill.
            self.drop_overlay(Self::UNIT_L1D, core, slot);
            if let Some(l2s) = l2_hit_slot {
                self.propagate_l2_overlay(l2s, addr, core, slot);
            }
        }
        (penalty, slot)
    }

    fn access_l2(&mut self, addr: u32, write: bool) -> (u32, Option<usize>) {
        if let Some(slot) = self.l2.lookup(addr) {
            self.l2_stats.hits += 1;
            if write {
                self.l2.lines[slot].state = Mesi::Modified;
            }
            return (self.params.l2_hit_cycles, Some(slot));
        }
        self.l2_stats.misses += 1;
        let state = if write {
            Mesi::Modified
        } else {
            Mesi::Exclusive
        };
        let (slot, evicted) = self.l2.insert(addr, state);
        if let Some(evicted) = evicted {
            if evicted.state == Mesi::Modified {
                self.l2_stats.writebacks += 1;
            }
        }
        // The fill comes from memory, so the slot's previous occupant's
        // overlay (if struck) is discarded with it.
        self.drop_overlay(Self::UNIT_L2, 0, slot);
        (self.params.l2_hit_cycles + self.params.mem_cycles, None)
    }

    fn invalidate_others(&mut self, core: usize, addr: u32) {
        for other in 0..self.l1d.len() {
            if other != core {
                if let Some((oslot, _)) = self.l1d[other].remove(addr) {
                    self.l1d_stats[other].invalidations += 1;
                    self.drop_overlay(Self::UNIT_L1D, other, oslot);
                }
            }
        }
    }

    // ----- data-overlay bookkeeping ---------------------------------------

    fn drop_overlay(&mut self, unit: u32, core: usize, slot: usize) {
        if !self.overlays.is_empty() {
            self.overlays.remove(&(unit, core as u32, slot as u32));
        }
    }

    /// Copies a struck L2 line's overlay down to the L1D slot a fill
    /// just installed it in: the L1D fill reads the (corrupted) L2
    /// copy, not memory.
    fn propagate_l2_overlay(&mut self, l2_slot: usize, addr: u32, core: usize, l1_slot: usize) {
        let base = addr & !(self.params.line - 1);
        if let Some(ov) = self.overlays.get(&(Self::UNIT_L2, 0, l2_slot as u32)) {
            if ov.base == base {
                let ov = ov.clone();
                self.overlays
                    .insert((Self::UNIT_L1D, core as u32, l1_slot as u32), ov);
            }
        }
    }

    /// The overlay-served value for a load that the L1D answered from
    /// `slot`, or `None` when no (address-matching) overlay covers it.
    fn overlay_value(&self, core: usize, slot: usize, addr: u32, bytes: u32) -> Option<u64> {
        if self.overlays.is_empty() {
            return None;
        }
        let line_mask = self.params.line - 1;
        let ov = self
            .overlays
            .get(&(Self::UNIT_L1D, core as u32, slot as u32))?;
        if ov.base != addr & !line_mask {
            return None;
        }
        let off = (addr & line_mask) as usize;
        let end = off + bytes as usize;
        if end > ov.bytes.len() {
            return None;
        }
        let mut v = 0u64;
        for (i, &b) in ov.bytes[off..end].iter().enumerate() {
            v |= u64::from(b) << (8 * i);
        }
        Some(v)
    }

    /// Folds a store's value into the overlay covering its serving
    /// slot, dissolving the overlay if it becomes byte-identical to
    /// memory (the store overwrote the corrupted bytes).
    fn store_into_overlay(
        &mut self,
        core: usize,
        slot: usize,
        addr: u32,
        bytes: u32,
        value: u64,
        mem: &PhysMem,
    ) {
        let line_mask = self.params.line - 1;
        let key = (Self::UNIT_L1D, core as u32, slot as u32);
        let Some(ov) = self.overlays.get_mut(&key) else {
            return;
        };
        if ov.base != addr & !line_mask {
            return;
        }
        let off = (addr & line_mask) as usize;
        let end = off + bytes as usize;
        if end > ov.bytes.len() {
            return;
        }
        for (i, b) in ov.bytes[off..end].iter_mut().enumerate() {
            *b = (value >> (8 * i)) as u8;
        }
        if let Ok(current) = mem.read_bytes(ov.base, 64) {
            if current == ov.bytes {
                self.overlays.remove(&key);
            }
        }
    }

    /// Per-core L1 instruction-cache statistics.
    pub fn l1i_stats(&self, core: usize) -> CacheStats {
        self.l1i_stats[core]
    }

    /// Per-core L1 data-cache statistics.
    pub fn l1d_stats(&self, core: usize) -> CacheStats {
        self.l1d_stats[core]
    }

    /// Shared L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2_stats
    }

    /// Lines per L1 tag store (each of L1I and L1D, per core).
    pub fn l1_line_count(&self) -> usize {
        self.l1i.first().map_or(0, SetAssoc::line_count)
    }

    /// Lines in the shared L2 tag store.
    pub fn l2_line_count(&self) -> usize {
        self.l2.line_count()
    }

    /// Fault hook: XORs one bit of a tag-store line. `unit` selects the
    /// store — [`MemSystem::UNIT_L1I`], [`MemSystem::UNIT_L1D`] or
    /// [`MemSystem::UNIT_L2`] (`core` is ignored for the shared L2) —
    /// and `bit` addresses the 40-bit line layout of
    /// `SetAssoc::flip_line_bit` (tag, MESI code, low LRU bits),
    /// wrapping at 40. Out-of-range units, cores and lines are rejected
    /// with a [`FlipError`] so a mis-derived fault coordinate surfaces
    /// as a campaign anomaly instead of silently landing nowhere.
    ///
    /// The same-line fetch memo (`fetch_line`) is deliberately *not*
    /// reset by an L1I flip: the memo models the core's fetch line
    /// buffer, which holds the streamed instructions themselves and is
    /// untouched by a strike on the tag SRAM behind it. The corruption
    /// becomes observable at the next fetch that leaves the buffered
    /// line — the first real tag lookup — and keeping the hook pure
    /// XOR/toggle preserves the apply-twice-is-identity involution every
    /// registered fault domain guarantees.
    ///
    /// # Errors
    ///
    /// [`FlipError`] on an out-of-range unit, core or line; the flip is
    /// not applied.
    pub fn flip_bit(
        &mut self,
        unit: u32,
        core: usize,
        line: usize,
        bit: u32,
    ) -> Result<(), FlipError> {
        let store = self.unit_store(unit, core)?;
        let lines = store.line_count();
        if line >= lines {
            return Err(FlipError::LineRange { line, lines });
        }
        store.flip_line_bit(line, bit);
        Ok(())
    }

    /// Fault hook behind the `cachedata` domain: XORs one bit of a
    /// resident line's 64-byte data copy. `unit` is
    /// [`MemSystem::UNIT_L1D`] or [`MemSystem::UNIT_L2`] (the L1I's
    /// data is the text domain's territory) and `bit` wraps at
    /// [`MemSystem::DATA_LINE_BITS`].
    ///
    /// The copy is materialised lazily: the first strike on a line
    /// snapshots its bytes from `mem` into an overlay and corrupts
    /// that; loads served from the slot then read the overlay. A strike
    /// on an empty or `Invalid` way is a no-op (there is no data to
    /// corrupt — the fault masks), as is one on a phantom line whose
    /// reconstructed address falls outside memory. An overlay that
    /// returns to byte-equality with memory dissolves, which is what
    /// makes the hook an involution: the same flip twice restores the
    /// snapshot exactly and the overlay map returns to its prior state.
    ///
    /// # Errors
    ///
    /// [`FlipError`] on an out-of-range or non-data unit, core or line;
    /// the flip is not applied.
    pub fn flip_data_bit(
        &mut self,
        unit: u32,
        core: usize,
        line: usize,
        bit: u32,
        mem: &PhysMem,
    ) -> Result<(), FlipError> {
        if unit != Self::UNIT_L1D && unit != Self::UNIT_L2 {
            return Err(FlipError::UnknownUnit(unit));
        }
        let store = self.unit_store(unit, core)?;
        let lines = store.line_count();
        if line >= lines {
            return Err(FlipError::LineRange { line, lines });
        }
        let l = store.lines[line];
        if l.tag == INVALID_TAG || l.state == Mesi::Invalid {
            return Ok(()); // empty way: the strike masks
        }
        let base = store.base_addr(line);
        let key = (
            unit,
            if unit == Self::UNIT_L2 {
                0
            } else {
                core as u32
            },
            line as u32,
        );
        let mut ov = match self.overlays.get(&key) {
            Some(ov) if ov.base == base => ov.clone(),
            _ => {
                let Ok(bytes) = mem.read_bytes(base, 64) else {
                    return Ok(()); // phantom line outside memory: masks
                };
                let mut copy = [0u8; 64];
                copy.copy_from_slice(bytes);
                LineOverlay { base, bytes: copy }
            }
        };
        let bit = bit % Self::DATA_LINE_BITS;
        ov.bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        let dissolved = mem
            .read_bytes(base, 64)
            .is_ok_and(|current| current == ov.bytes);
        if dissolved {
            self.overlays.remove(&key);
        } else {
            self.overlays.insert(key, ov);
        }
        Ok(())
    }

    /// Fault hook behind the `storebuf` domain: XORs one bit of a
    /// store-buffer entry's 97-bit payload (see [`StoreBuffer::flip`]
    /// for the layout; `bit` wraps per entry so an MBU burst never
    /// crosses entries).
    ///
    /// # Errors
    ///
    /// [`FlipError`] on an out-of-range core or entry; the flip is not
    /// applied.
    pub fn flip_storebuf(&mut self, core: usize, entry: usize, bit: u32) -> Result<(), FlipError> {
        let cores = self.sbuf.len();
        let Some(sb) = self.sbuf.get_mut(core) else {
            return Err(FlipError::CoreRange { core, cores });
        };
        if entry >= crate::store::STORE_BUFFER_ENTRIES {
            return Err(FlipError::EntryRange {
                entry,
                entries: crate::store::STORE_BUFFER_ENTRIES,
            });
        }
        sb.flip(entry, bit);
        Ok(())
    }

    fn unit_store(&mut self, unit: u32, core: usize) -> Result<&mut SetAssoc, FlipError> {
        let cores = self.l1i.len();
        match unit {
            Self::UNIT_L1I => self
                .l1i
                .get_mut(core)
                .ok_or(FlipError::CoreRange { core, cores }),
            Self::UNIT_L1D => self
                .l1d
                .get_mut(core)
                .ok_or(FlipError::CoreRange { core, cores }),
            Self::UNIT_L2 => Ok(&mut self.l2),
            _ => Err(FlipError::UnknownUnit(unit)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheParams {
        CacheParams {
            l1_size: 1024,
            l1_ways: 2,
            l2_size: 4096,
            l2_ways: 4,
            line: 64,
            l2_hit_cycles: 8,
            mem_cycles: 40,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = MemSystem::new(1, small());
        assert_eq!(m.access(0, Access::DataRead, 0x1000), 48);
        assert_eq!(m.access(0, Access::DataRead, 0x1000), 0);
        assert_eq!(
            m.access(0, Access::DataRead, 0x1020),
            0,
            "same 64-byte line"
        );
        assert_eq!(m.l1d_stats(0).hits, 2);
        assert_eq!(m.l1d_stats(0).misses, 1);
    }

    #[test]
    fn l2_backs_l1_evictions() {
        let mut m = MemSystem::new(1, small());
        // L1: 1024 B / 64 B / 2 ways = 8 sets. Three lines mapping to the
        // same set evict one from L1 but it stays in L2.
        let set_stride = 8 * 64;
        m.access(0, Access::DataRead, 0);
        m.access(0, Access::DataRead, set_stride);
        m.access(0, Access::DataRead, 2 * set_stride); // evicts line 0 from L1
        let penalty = m.access(0, Access::DataRead, 0);
        assert_eq!(penalty, 8, "L1 miss, L2 hit");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut m = MemSystem::new(1, small());
        let set_stride = 8 * 64;
        m.access(0, Access::DataRead, 0);
        m.access(0, Access::DataRead, set_stride);
        m.access(0, Access::DataRead, 0); // refresh line 0
        m.access(0, Access::DataRead, 2 * set_stride); // must evict line 1
        assert_eq!(m.access(0, Access::DataRead, 0), 0, "line 0 still resident");
    }

    #[test]
    fn write_invalidates_other_cores() {
        let mut m = MemSystem::new(2, small());
        m.access(0, Access::DataRead, 0x2000);
        m.access(1, Access::DataRead, 0x2000);
        // Core 1 writes: core 0's copy must be invalidated.
        m.access(1, Access::DataWrite, 0x2000);
        assert_eq!(m.l1d_stats(0).invalidations, 1);
        // Core 0 re-reads: that's a miss now.
        let misses_before = m.l1d_stats(0).misses;
        m.access(0, Access::DataRead, 0x2000);
        assert_eq!(m.l1d_stats(0).misses, misses_before + 1);
    }

    #[test]
    fn modified_line_written_back_when_snooped() {
        let mut m = MemSystem::new(2, small());
        m.access(0, Access::DataWrite, 0x3000);
        m.access(1, Access::DataRead, 0x3000);
        assert_eq!(m.l1d_stats(0).writebacks, 1);
    }

    #[test]
    fn fetch_uses_instruction_cache() {
        let mut m = MemSystem::new(1, small());
        m.access(0, Access::Fetch, 0x1000);
        m.access(0, Access::Fetch, 0x1000);
        assert_eq!(m.l1i_stats(0).hits, 1);
        assert_eq!(m.l1i_stats(0).misses, 1);
        assert_eq!(m.l1d_stats(0).accesses(), 0);
    }

    #[test]
    fn paper_geometry_is_valid() {
        // 32 kB / 64 B / 4 ways = 128 sets; 512 kB / 64 B / 8 = 1024 sets.
        let m = MemSystem::new(4, CacheParams::paper());
        assert_eq!(m.cores(), 4);
    }

    #[test]
    fn line_counts_match_paper_geometry() {
        let p = CacheParams::paper();
        assert_eq!(p.l1_lines(), 512, "32 kB / 64 B = 512 lines");
        assert_eq!(p.l2_lines(), 8192, "512 kB / 64 B = 8192 lines");
        let m = MemSystem::new(2, p);
        assert_eq!(m.l1_line_count(), 512);
        assert_eq!(m.l2_line_count(), 8192);
    }

    #[test]
    fn line_flips_are_involutions() {
        let mut m = MemSystem::new(2, small());
        m.access(0, Access::DataWrite, 0x3000);
        m.access(0, Access::Fetch, 0x1000);
        m.access(1, Access::DataRead, 0x2000);
        let golden = m.clone();
        for unit in [MemSystem::UNIT_L1I, MemSystem::UNIT_L1D, MemSystem::UNIT_L2] {
            for bit in [0, 17, 31, 32, 33, 34, 39] {
                let mut faulty = golden.clone();
                faulty.flip_bit(unit, 0, 3, bit).unwrap();
                faulty.flip_bit(unit, 0, 3, bit).unwrap();
                assert_eq!(faulty, golden, "unit {unit} bit {bit}");
            }
        }
    }

    #[test]
    fn out_of_range_flips_are_rejected() {
        let mut m = MemSystem::new(2, small());
        let golden = m.clone();
        assert_eq!(m.flip_bit(9, 0, 0, 0), Err(FlipError::UnknownUnit(9)));
        assert_eq!(
            m.flip_bit(MemSystem::UNIT_L1D, 99, 0, 0),
            Err(FlipError::CoreRange { core: 99, cores: 2 })
        );
        assert_eq!(
            m.flip_bit(MemSystem::UNIT_L2, 0, 1 << 20, 0),
            Err(FlipError::LineRange {
                line: 1 << 20,
                lines: 64
            })
        );
        let mem = PhysMem::new(1 << 16);
        assert_eq!(
            m.flip_data_bit(MemSystem::UNIT_L1I, 0, 0, 0, &mem),
            Err(FlipError::UnknownUnit(MemSystem::UNIT_L1I)),
            "L1I data is the text domain's territory"
        );
        assert_eq!(
            m.flip_data_bit(MemSystem::UNIT_L1D, 0, 4096, 0, &mem),
            Err(FlipError::LineRange {
                line: 4096,
                lines: 16
            })
        );
        assert_eq!(
            m.flip_storebuf(7, 0, 0),
            Err(FlipError::CoreRange { core: 7, cores: 2 })
        );
        assert_eq!(
            m.flip_storebuf(0, 99, 0),
            Err(FlipError::EntryRange {
                entry: 99,
                entries: crate::store::STORE_BUFFER_ENTRIES
            })
        );
        assert_eq!(m, golden, "rejected flips must not change state");
    }

    #[test]
    fn state_flip_to_invalid_forces_a_miss() {
        let mut m = MemSystem::new(1, small());
        m.access(0, Access::DataRead, 0x1000);
        assert_eq!(m.access(0, Access::DataRead, 0x1000), 0, "resident");
        // Find the line and flip its state code from Exclusive (1) to
        // Invalid (3): XOR bit 33 (state bit 1 of the 2-bit code).
        let line = m.l1d[0]
            .lines
            .iter()
            .position(|l| l.tag != INVALID_TAG)
            .expect("one resident line");
        m.flip_bit(MemSystem::UNIT_L1D, 0, line, 33).unwrap();
        assert_eq!(m.l1d[0].lines[line].state, Mesi::Invalid);
        let misses = m.l1d_stats(0).misses;
        assert!(
            m.access(0, Access::DataRead, 0x1000) > 0,
            "invalidated line must miss"
        );
        assert_eq!(m.l1d_stats(0).misses, misses + 1);
    }

    #[test]
    fn l1i_flip_shows_after_the_fetch_buffer_moves_on() {
        let mut m = MemSystem::new(1, small());
        m.access(0, Access::Fetch, 0x1000);
        let line = m.l1i[0]
            .lines
            .iter()
            .position(|l| l.tag != INVALID_TAG)
            .expect("one resident line");
        m.flip_bit(MemSystem::UNIT_L1I, 0, line, 5).unwrap();
        // Same-line repeat fetch still streams from the fetch line
        // buffer — a tag-SRAM strike does not touch the buffered
        // instructions.
        let hits = m.l1i_stats(0).hits;
        assert_eq!(m.access(0, Access::Fetch, 0x1004), 0);
        assert_eq!(m.l1i_stats(0).hits, hits + 1);
        // Once fetch leaves the line and returns, the corrupted tag is
        // consulted for real and the line misses.
        m.access(0, Access::Fetch, 0x2000);
        let misses = m.l1i_stats(0).misses;
        assert!(m.access(0, Access::Fetch, 0x1000) > 0, "tag corrupted");
        assert_eq!(m.l1i_stats(0).misses, misses + 1);
    }

    #[test]
    fn tag_flip_can_create_a_phantom_hit() {
        let mut m = MemSystem::new(1, small());
        m.access(0, Access::DataRead, 0x1000);
        let line = m.l1d[0]
            .lines
            .iter()
            .position(|l| l.tag != INVALID_TAG)
            .expect("one resident line");
        // Flip tag bit 0: 0x1000's line now answers for a different
        // address in the same set (aliasing, the classic tag-SRAM
        // failure mode) and no longer for 0x1000 itself.
        m.flip_bit(MemSystem::UNIT_L1D, 0, line, 0).unwrap();
        let misses = m.l1d_stats(0).misses;
        m.access(0, Access::DataRead, 0x1000);
        assert_eq!(m.l1d_stats(0).misses, misses + 1);
    }

    // ----- value layers ---------------------------------------------------

    fn resident_l1d_slot(m: &MemSystem, core: usize) -> usize {
        m.l1d[core]
            .lines
            .iter()
            .position(|l| l.tag != INVALID_TAG)
            .expect("one resident line")
    }

    #[test]
    fn data_paths_match_access_timing_and_are_transparent_when_clean() {
        let mut mem = PhysMem::new(1 << 16);
        mem.write_u32(0x1000, 77).unwrap();
        let mut a = MemSystem::new(1, small());
        let mut b = MemSystem::new(1, small());
        let pa = a.access(0, Access::DataRead, 0x1000);
        let (pb, over) = b.data_read(0, 0x1000, 4);
        assert_eq!(pa, pb);
        assert_eq!(over, None, "clean hierarchy never overrides memory");
        let pa = a.access(0, Access::DataWrite, 0x1040);
        mem.write_u32(0x1040, 5).unwrap();
        let pb = b.data_write(0, 0x1040, 4, 5, &mut mem);
        assert_eq!(pa, pb);
        assert_eq!(a, b, "identical timing state; value layers empty");
    }

    #[test]
    fn data_flip_serves_a_corrupted_load_and_is_an_involution() {
        let mut mem = PhysMem::new(1 << 16);
        mem.write_u32(0x1000, 0xff).unwrap();
        let mut m = MemSystem::new(1, small());
        m.data_read(0, 0x1000, 4);
        let slot = resident_l1d_slot(&m, 0);
        let golden = m.clone();
        m.flip_data_bit(MemSystem::UNIT_L1D, 0, slot, 3, &mem)
            .unwrap();
        let (_, over) = m.data_read(0, 0x1000, 4);
        assert_eq!(over, Some(0xff ^ 8), "overlay serves the struck value");
        assert_eq!(mem.read_u32(0x1000).unwrap(), 0xff, "memory untouched");
        // The same flip twice dissolves the overlay entirely.
        let mut twice = golden.clone();
        twice
            .flip_data_bit(MemSystem::UNIT_L1D, 0, slot, 3, &mem)
            .unwrap();
        twice
            .flip_data_bit(MemSystem::UNIT_L1D, 0, slot, 3, &mem)
            .unwrap();
        assert_eq!(twice, golden);
        assert!(twice.overlays.is_empty());
    }

    #[test]
    fn store_over_the_struck_bytes_dissolves_the_overlay() {
        let mut mem = PhysMem::new(1 << 16);
        mem.write_u32(0x2000, 1).unwrap();
        let mut m = MemSystem::new(1, small());
        m.data_read(0, 0x2000, 4);
        let slot = resident_l1d_slot(&m, 0);
        m.flip_data_bit(MemSystem::UNIT_L1D, 0, slot, 0, &mem)
            .unwrap();
        assert!(!m.overlays.is_empty());
        // Overwrite the corrupted word: cache copy and memory re-agree.
        mem.write_u32(0x2000, 42).unwrap();
        m.data_write(0, 0x2000, 4, 42, &mut mem);
        assert!(m.overlays.is_empty(), "overlay equal to memory dissolves");
        assert_eq!(m.data_read(0, 0x2000, 4).1, None);
    }

    #[test]
    fn eviction_discards_the_struck_line() {
        let mem = PhysMem::new(1 << 16);
        let mut m = MemSystem::new(1, small());
        m.data_read(0, 0, 4);
        let slot = resident_l1d_slot(&m, 0);
        m.flip_data_bit(MemSystem::UNIT_L1D, 0, slot, 0, &mem)
            .unwrap();
        // Two more lines in the same set (8 sets, 2 ways) evict line 0
        // from the L1D; its overlay leaves with it. The L2 copy was
        // never struck, so a re-read serves memory again.
        let set_stride = 8 * 64;
        m.data_read(0, set_stride, 4);
        m.data_read(0, 2 * set_stride, 4);
        assert!(
            !m.overlays
                .contains_key(&(MemSystem::UNIT_L1D, 0, slot as u32)),
            "clean eviction discards the strike"
        );
        assert_eq!(m.data_read(0, 0, 4).1, None);
    }

    #[test]
    fn struck_line_evicted_unread_compares_equal_again() {
        let mem = PhysMem::new(1 << 16);
        let mut golden = MemSystem::new(1, small());
        golden.data_read(0, 0, 4);
        let mut faulty = golden.clone();
        let slot = resident_l1d_slot(&faulty, 0);
        faulty
            .flip_data_bit(MemSystem::UNIT_L1D, 0, slot, 9, &mem)
            .unwrap();
        assert_ne!(faulty, golden, "the overlay is part of the state");
        // The same two conflicting reads on both sides evict line 0
        // before anything reads the struck byte.
        let set_stride = 8 * 64;
        for m in [&mut golden, &mut faulty] {
            m.data_read(0, set_stride, 4);
            m.data_read(0, 2 * set_stride, 4);
        }
        assert_eq!(faulty, golden, "the strike left no trace");
    }

    #[test]
    fn drained_store_buffer_strike_dirties_its_page_and_never_matches() {
        let mut golden_mem = PhysMem::new(1 << 16);
        let mut golden = MemSystem::new(1, small());
        golden_mem.write_u32(0x3000, 6).unwrap();
        golden.data_write(0, 0x3000, 4, 6, &mut golden_mem);
        let (mut mem, mut faulty) = (golden_mem.clone(), golden.clone());
        // Dirty tracking restarts at the common point, as it does when a
        // faulty run restores a checkpoint.
        mem.clear_dirty();
        faulty.flip_storebuf(0, 0, 40).unwrap(); // data bit 8
        for (m, mem) in [(&mut golden, &mut golden_mem), (&mut faulty, &mut mem)] {
            m.drain_store_buffer(0, mem);
            mem.write_u32(0x8000, 1).unwrap();
            m.data_write(0, 0x8000, 4, 1, mem);
            m.drain_store_buffer(0, mem);
        }
        // The drain emptied the diff: the hierarchies agree, and the
        // corruption now lives only in memory.
        assert_eq!(faulty, golden);
        assert_eq!(mem.read_u32(0x3000).unwrap(), 6 ^ 0x100);
        let page = 0x3000 / crate::phys::SNAP_PAGE;
        assert!(mem.dirty_pages().contains(page), "the drain marks its page");
        let rung = golden_mem.snapshot();
        assert!(!mem.matches_snapshot_within(&rung, mem.dirty_pages()));
        assert!(!mem.matches_snapshot(&rung));
    }

    #[test]
    fn l2_strike_propagates_down_with_the_fill() {
        let mut mem = PhysMem::new(1 << 16);
        mem.write_u32(0, 10).unwrap();
        let mut m = MemSystem::new(1, small());
        m.data_read(0, 0, 4);
        // Evict the line from L1 (it stays in L2), then strike the L2
        // data copy.
        let set_stride = 8 * 64;
        m.data_read(0, set_stride, 4);
        m.data_read(0, 2 * set_stride, 4);
        let l2_slot = (0..m.l2.line_count())
            .find(|&s| m.l2.lines[s].tag != INVALID_TAG && m.l2.base_addr(s) == 0)
            .expect("line resident in L2");
        m.flip_data_bit(MemSystem::UNIT_L2, 0, l2_slot, 1, &mem)
            .unwrap();
        // Refill the L1D from the struck L2 copy: the load sees it.
        let (_, over) = m.data_read(0, 0, 4);
        assert_eq!(over, Some(10 ^ 2), "L1 fill reads the corrupted L2 data");
    }

    #[test]
    fn strike_on_an_empty_way_masks() {
        let mem = PhysMem::new(1 << 16);
        let mut m = MemSystem::new(1, small());
        let golden = m.clone();
        m.flip_data_bit(MemSystem::UNIT_L1D, 0, 0, 5, &mem).unwrap();
        assert_eq!(m, golden, "no resident data to corrupt");
    }

    #[test]
    fn store_buffer_taint_forwards_through_data_read() {
        let mut mem = PhysMem::new(1 << 16);
        mem.write_u32(0x3000, 6).unwrap();
        let mut m = MemSystem::new(1, small());
        m.data_write(0, 0x3000, 4, 6, &mut mem);
        m.flip_storebuf(0, 0, 32).unwrap(); // data bit 0 of the pending store
        let (_, over) = m.data_read(0, 0x3000, 4);
        assert_eq!(over, Some(6 ^ 1), "tainted entry forwards to the load");
        m.drain_store_buffer(0, &mut mem);
        assert_eq!(mem.read_u32(0x3000).unwrap(), 6 ^ 1, "fence commits it");
    }

    #[test]
    fn miss_ratio() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
