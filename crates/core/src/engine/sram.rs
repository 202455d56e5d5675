//! The per-engine grid SRAM: caches one resolution level's lookup table
//! on-chip so grid lookups never pay the off-chip penalty (paper Fig. 9).
//!
//! Capacity accounting uses fp16 feature storage (2 bytes per parameter),
//! matching the paper's 1 MB sizing argument; values are kept as `f32`
//! internally so functional results stay bit-identical to the software
//! reference. The backing storage is an `Arc` so that the 16 engines of
//! an NFP (and the NFPs of a cluster) share one read-only copy of the
//! grid tables instead of duplicating hundreds of megabytes — purely an
//! implementation-level sharing; each engine still *models* its own SRAM.

use std::sync::Arc;

/// Bytes per stored feature parameter for capacity accounting.
pub const SRAM_BYTES_PER_PARAM: usize = 2;

/// Access statistics of one grid SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SramStats {
    /// Total feature-vector reads.
    pub reads: u64,
    /// Table loads (level (re)configuration).
    pub loads: u64,
    /// Extra cycles lost to bank conflicts across corner bursts.
    pub bank_conflict_cycles: u64,
}

/// A banked on-chip SRAM holding one level's feature table.
#[derive(Debug, Clone)]
pub struct GridSram {
    capacity_bytes: usize,
    banks: u32,
    features_per_entry: usize,
    /// Shared backing storage (the whole grid's parameter buffer).
    table: Arc<Vec<f32>>,
    /// First feature-vector of this SRAM's level within `table`.
    base_entry: usize,
    /// Number of feature-vectors held.
    entries: usize,
    stats: SramStats,
}

impl GridSram {
    /// Create an empty SRAM of `capacity_bytes` with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two (address interleaving
    /// requires it).
    pub fn new(capacity_bytes: usize, banks: u32) -> Self {
        assert!(banks.is_power_of_two(), "banks must be a power of two");
        GridSram {
            capacity_bytes,
            banks,
            features_per_entry: 0,
            table: Arc::new(Vec::new()),
            base_entry: 0,
            entries: 0,
            stats: SramStats::default(),
        }
    }

    /// Point the SRAM at a level slice of a shared grid buffer, returning
    /// the number of *streaming passes* needed per batch: a level larger
    /// than the SRAM is processed partition-by-partition, re-streaming
    /// each partition from L2 (paper levels with `T = 2^19, F = 2` occupy
    /// 2 MiB at fp16 — twice the 1 MB SRAM — and thus take two passes).
    /// Functional contents are exact because the full slice stays
    /// readable.
    pub fn load_table_shared(
        &mut self,
        table: Arc<Vec<f32>>,
        base_entry: usize,
        entries: usize,
        features_per_entry: usize,
    ) -> u32 {
        debug_assert!((base_entry + entries) * features_per_entry <= table.len());
        self.table = table;
        self.base_entry = base_entry;
        self.entries = entries;
        self.features_per_entry = features_per_entry;
        self.stats.loads += 1;
        let bytes = entries * features_per_entry * SRAM_BYTES_PER_PARAM;
        bytes.div_ceil(self.capacity_bytes).max(1) as u32
    }

    /// Number of loaded entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Feature vector at `entry`.
    ///
    /// # Panics
    ///
    /// Panics if the entry is out of range or no table is loaded.
    pub fn read(&mut self, entry: usize) -> &[f32] {
        self.stats.reads += 1;
        assert!(entry < self.entries, "sram read out of range");
        let f = self.features_per_entry;
        let at = (self.base_entry + entry) * f;
        &self.table[at..at + f]
    }

    /// Model a burst of corner reads issued in the same cycle: entries
    /// map to banks by low-order interleaving; the burst takes as many
    /// cycles as the most-loaded bank.
    pub fn burst_cycles(&mut self, entries: &[usize]) -> u64 {
        let mut per_bank = vec![0u64; self.banks as usize];
        for &e in entries {
            per_bank[e & (self.banks as usize - 1)] += 1;
        }
        let cycles = per_bank.iter().copied().max().unwrap_or(0).max(1);
        self.stats.bank_conflict_cycles += cycles - 1;
        cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SramStats {
        self.stats
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An SRAM of `capacity_bytes` and `banks` holding all of `table`
    /// (2 features an entry), in one pass.
    fn loaded(capacity_bytes: usize, banks: u32, table: Vec<f32>) -> GridSram {
        let mut sram = GridSram::new(capacity_bytes, banks);
        let entries = table.len() / 2;
        assert_eq!(sram.load_table_shared(Arc::new(table), 0, entries, 2), 1);
        sram
    }

    #[test]
    fn load_and_read_round_trip() {
        let mut sram = loaded(1024, 8, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(sram.entries(), 3);
        assert_eq!(sram.read(1), &[3.0, 4.0]);
    }

    #[test]
    fn shared_slice_reads_at_offset() {
        let mut sram = GridSram::new(1024, 4);
        let backing = Arc::new((0..20).map(|i| i as f32).collect::<Vec<f32>>());
        // Entries 3..7 of a 2-feature table.
        let passes = sram.load_table_shared(backing, 3, 4, 2);
        assert_eq!(passes, 1);
        assert_eq!(sram.entries(), 4);
        assert_eq!(sram.read(0), &[6.0, 7.0]);
        assert_eq!(sram.read(3), &[12.0, 13.0]);
    }

    #[test]
    fn one_mb_fits_a_2to19_level() {
        // The paper's sizing: T = 2^19 entries x F = 2 features x fp16
        // = 2 MiB... which does NOT fit 1 MB; such levels stream in two
        // passes. Check the boundary math.
        let mut sram = GridSram::new(1 << 20, 8);
        let small = Arc::new(vec![0.0f32; 1 << 19]); // 1 MiB at fp16
        assert_eq!(sram.load_table_shared(small, 0, 1 << 18, 2), 1);
        let big = Arc::new(vec![0.0f32; 1 << 20]); // 2 MiB at fp16
        assert_eq!(sram.load_table_shared(big, 0, 1 << 19, 2), 2);
    }

    #[test]
    fn conflict_free_burst_takes_one_cycle() {
        let mut sram = loaded(1024, 8, vec![0.0; 32]);
        // Eight distinct banks.
        let cycles = sram.burst_cycles(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(cycles, 1);
        assert_eq!(sram.stats().bank_conflict_cycles, 0);
    }

    #[test]
    fn same_bank_burst_serialises() {
        let mut sram = loaded(1024, 8, vec![0.0; 64]);
        // All entries congruent mod 8 -> same bank.
        let cycles = sram.burst_cycles(&[0, 8, 16, 24]);
        assert_eq!(cycles, 4);
        assert_eq!(sram.stats().bank_conflict_cycles, 3);
    }

    #[test]
    fn stats_count_reads_and_loads() {
        let mut sram = loaded(1024, 2, vec![0.0; 8]);
        sram.read(0);
        sram.read(1);
        assert_eq!(sram.stats().reads, 2);
        assert_eq!(sram.stats().loads, 1);
    }

    #[test]
    fn sharing_does_not_duplicate_backing() {
        let backing = Arc::new(vec![0.0f32; 1000]);
        let mut a = GridSram::new(1 << 20, 8);
        let mut b = GridSram::new(1 << 20, 8);
        a.load_table_shared(Arc::clone(&backing), 0, 100, 2);
        b.load_table_shared(Arc::clone(&backing), 100, 100, 2);
        assert_eq!(Arc::strong_count(&backing), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let mut sram = loaded(1024, 2, vec![0.0; 8]);
        sram.read(4);
    }
}
