//! Gshare branch direction predictor and branch target buffer.

use crate::check::CheckError;

/// Gshare predictor: a table of 2-bit saturating counters indexed by
/// `PC ⊕ global history`.
///
/// # Examples
///
/// ```
/// use dse_sim::branch::Gshare;
/// let mut g = Gshare::new(1024);
/// let pc = 0x400_0040;
/// // After the global history saturates, the branch becomes predictable.
/// for _ in 0..20 { g.update(pc, true); }
/// assert!(g.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    index_mask: u64,
    history: u64,
    history_mask: u64,
    /// History is folded into the *high* index bits so that larger tables
    /// separate static branches by PC (capacity helps biased branches)
    /// while history still disambiguates patterned ones.
    history_shift: u64,
    predictions: u64,
    mispredictions: u64,
}

/// Global-history length in bits. Kept short so that table capacity is
/// spent separating static branches (the dominant effect across the
/// paper's 1K–32K predictor range) while still capturing short repeating
/// patterns.
const HISTORY_BITS: u64 = 3;

impl Gshare {
    /// Creates a predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two.
    pub fn new(entries: u64) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "gshare table must be a positive power of two"
        );
        let bits = entries.trailing_zeros() as u64;
        let hist_bits = HISTORY_BITS.min(bits);
        Self {
            table: vec![1; entries as usize], // weakly not-taken
            index_mask: entries - 1,
            history: 0,
            history_mask: (1 << hist_bits) - 1,
            history_shift: bits - hist_bits,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ (self.history << self.history_shift)) & self.index_mask) as usize
    }

    /// Predicted direction for the branch at `pc` (true = taken).
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Records the actual outcome, updating the counter, the global
    /// history and the misprediction statistics.
    ///
    /// Returns whether the prediction made *before* the update was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx] >= 2;
        let correct = predicted == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
        correct
    }

    /// Number of direction predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Number of mispredicted directions.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Sanitizer hook: statistics and table self-consistency — counters
    /// must be 2-bit saturating values, the history must fit its mask and
    /// mispredictions can never exceed predictions.
    pub fn check_invariants(&self) -> Result<(), CheckError> {
        if self.mispredictions > self.predictions {
            return Err(CheckError::new(
                0,
                "bpred-accounting",
                format!(
                    "mispredictions {} exceed predictions {}",
                    self.mispredictions, self.predictions
                ),
            ));
        }
        if self.history & !self.history_mask != 0 {
            return Err(CheckError::new(
                0,
                "bpred-history",
                format!(
                    "history {:#x} overflows mask {:#x}",
                    self.history, self.history_mask
                ),
            ));
        }
        if let Some(&c) = self.table.iter().find(|&&c| c > 3) {
            return Err(CheckError::new(
                0,
                "bpred-counter-range",
                format!("saturating counter holds {c}, must be 0..=3"),
            ));
        }
        Ok(())
    }
}

/// Direct-mapped branch target buffer with tags.
#[derive(Debug, Clone)]
pub struct Btb {
    /// Stores `pc + 1` so that `0` marks an empty slot and the array
    /// starts life on zero pages (no `u64::MAX` memset per construction).
    tags: Vec<u64>,
    targets: Vec<u32>,
    mask: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two.
    pub fn new(entries: u64) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "BTB must be a positive power of two"
        );
        Self {
            tags: vec![0; entries as usize],
            targets: vec![0; entries as usize],
            mask: entries - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&self, pc: u64) -> Option<u32> {
        let idx = self.index(pc);
        if self.tags[idx] == pc + 1 {
            Some(self.targets[idx])
        } else {
            None
        }
    }

    /// Installs or refreshes the target of a taken branch.
    pub fn update(&mut self, pc: u64, target: u32) {
        let idx = self.index(pc);
        self.tags[idx] = pc + 1;
        self.targets[idx] = target;
    }

    /// Sanitizer hook: every valid tag must live in the slot its PC
    /// indexes to, otherwise lookups would silently fail or alias.
    pub fn check_invariants(&self) -> Result<(), CheckError> {
        for (i, &stored) in self.tags.iter().enumerate() {
            if stored != 0 && self.index(stored - 1) != i {
                let pc = stored - 1;
                return Err(CheckError::new(
                    0,
                    "btb-tag-placement",
                    format!(
                        "pc {pc:#x} stored in slot {i}, indexes to {}",
                        self.index(pc)
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut g = Gshare::new(4096);
        let pc = 0x40_0000;
        let mut correct = 0;
        for i in 0..1000 {
            if g.update(pc, true) && i >= 10 {
                correct += 1;
            }
        }
        assert!(correct >= 980, "correct {correct}");
    }

    #[test]
    fn random_branch_near_chance() {
        let mut g = Gshare::new(4096);
        let mut rng = dse_rng::Xoshiro256::seed_from(3);
        for _ in 0..20_000 {
            g.update(0x40_0000, rng.next_bool(0.5));
        }
        let rate = g.mispredictions() as f64 / g.predictions() as f64;
        assert!((0.35..0.65).contains(&rate), "miss rate {rate}");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        // T N T N ... is perfectly predictable with 1 bit of history.
        let mut g = Gshare::new(4096);
        let pc = 0x40_0100;
        let mut last_miss = 0;
        for i in 0..2000u64 {
            if !g.update(pc, i % 2 == 0) {
                last_miss = i;
            }
        }
        assert!(last_miss < 200, "still missing at {last_miss}");
    }

    #[test]
    fn small_table_aliases_more_than_large() {
        // Many static branches with different biases: the small table must
        // mispredict more due to destructive aliasing.
        let run = |entries: u64| {
            let mut g = Gshare::new(entries);
            let mut seeder = dse_rng::Xoshiro256::seed_from(9);
            // Scattered PCs and random biases so collisions are destructive.
            let branches: Vec<(u64, f64)> = (0..512)
                .map(|_| {
                    let pc = 0x40_0000 + (seeder.next_range(1 << 20)) * 4;
                    let bias = if seeder.next_bool(0.5) { 0.95 } else { 0.05 };
                    (pc, bias)
                })
                .collect();
            let mut rng = dse_rng::Xoshiro256::seed_from(10);
            for _ in 0..100_000 {
                let (pc, bias) = branches[rng.next_index(branches.len())];
                g.update(pc, rng.next_bool(bias));
            }
            g.mispredictions() as f64 / g.predictions() as f64
        };
        let small = run(64);
        let large = run(32 * 1024);
        assert!(
            small > large + 0.02,
            "small {small} should alias more than large {large}"
        );
    }

    #[test]
    fn btb_round_trips() {
        let mut b = Btb::new(1024);
        assert_eq!(b.lookup(0x400_0000), None);
        b.update(0x400_0000, 0x400_0400);
        assert_eq!(b.lookup(0x400_0000), Some(0x400_0400));
    }

    #[test]
    fn btb_conflicts_evict() {
        let mut b = Btb::new(16);
        b.update(0x400_0000, 1);
        // Same index (pc + 16*4), different tag.
        b.update(0x400_0040, 2);
        assert_eq!(b.lookup(0x400_0000), None);
        assert_eq!(b.lookup(0x400_0040), Some(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn gshare_rejects_non_power_of_two() {
        Gshare::new(1000);
    }

    #[test]
    fn invariants_hold_after_heavy_use() {
        let mut g = Gshare::new(256);
        let mut b = Btb::new(64);
        let mut rng = dse_rng::Xoshiro256::seed_from(5);
        for _ in 0..5_000 {
            let pc = 0x40_0000 + rng.next_range(1 << 12) * 4;
            let taken = rng.next_bool(0.6);
            g.update(pc, taken);
            if taken {
                b.update(pc, (pc + 8) as u32);
            }
        }
        g.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn corrupted_predictor_state_is_caught() {
        let mut g = Gshare::new(64);
        g.update(0x40, true);
        g.table[3] = 7; // not a 2-bit value
        assert_eq!(
            g.check_invariants().unwrap_err().invariant,
            "bpred-counter-range"
        );

        let mut b = Btb::new(16);
        b.update(0x400_0000, 1);
        b.tags.swap(0, 1); // displace the entry from its indexed slot
        assert_eq!(
            b.check_invariants().unwrap_err().invariant,
            "btb-tag-placement"
        );
    }
}
