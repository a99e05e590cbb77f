//! The behavioural DRAM chip model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svard_dram::{DramCommand, DramError};
use svard_obs::{Collect, Counter, Hist, MetricsSnapshot, ObsSink, Recorder};
use svard_vulnerability::cells;
use svard_vulnerability::factors::{rowpress_amplification, temperature_factor};
use svard_vulnerability::ModuleVulnerabilityProfile;

use crate::bank::{BankState, RowState};
use crate::config::ChipConfig;
use crate::stats::ChipStats;
use crate::trr::TrrState;
use crate::weak_cells::WeakCellCache;

/// A behavioural model of one DRAM device (all banks of one module's rank), with
/// read-disturbance physics driven by a [`ModuleVulnerabilityProfile`].
///
/// Rows are addressed with *logical* row numbers (as a memory controller would); the
/// configured [`svard_dram::mapping::RowScramble`] translates them to physical
/// locations internally, exactly like a real chip's internal remapping.
///
/// Materializing a row flips its weakest cells, at most once each between writes
/// of their byte. The chip caches the weakest-cell ranking prefixes of at most 8
/// rows, one per physical row mod 8, so the cache never holds more than
/// `8 x bits_per_row` cell indices (4 bytes each: 32 KiB at 128-byte rows). The
/// cache holds no memory until the first bitflip.
#[derive(Debug, Clone)]
pub struct SimChip {
    profile: ModuleVulnerabilityProfile,
    config: ChipConfig,
    banks: Vec<BankState>,
    trr: Vec<TrrState>,
    stats: ChipStats,
    /// Weakest-cell ranking prefixes of recently materialized rows.
    weak_cells: WeakCellCache,
    /// Always-on cycle-free metrics recorder (hammer burst sizes, bitflips).
    /// Trace rings are zero-capacity: the chip records metrics, not events.
    obs: Recorder,
    rng: StdRng,
    now_ns: f64,
}

/// The physical rows adjacent to a row within its subarray: at most two, held
/// inline so that finding them never allocates. Iterates lower row first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Neighbours {
    rows: [usize; 2],
    len: usize,
}

impl Neighbours {
    fn push(&mut self, row: usize) {
        if let Some(slot) = self.rows.get_mut(self.len) {
            *slot = row;
            self.len += 1;
        }
    }

    /// The neighbours, lower row first.
    pub fn as_slice(&self) -> &[usize] {
        self.rows.get(..self.len).unwrap_or(&[])
    }
}

impl IntoIterator for Neighbours {
    type Item = usize;
    type IntoIter = std::iter::Take<std::array::IntoIter<usize, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter().take(self.len)
    }
}

impl SimChip {
    /// Build a chip from a vulnerability profile and a configuration. The chip has
    /// as many banks as the profile and as many rows per bank as the profile's spec.
    pub fn new(profile: ModuleVulnerabilityProfile, config: ChipConfig) -> Self {
        let rows = profile.rows_per_bank();
        let banks = (0..profile.num_banks())
            .map(|_| BankState::new(rows, config.row_size_bytes))
            .collect();
        let trr = match &config.trr {
            Some(t) => (0..profile.num_banks())
                .map(|_| TrrState::new(t.clone()))
                .collect(),
            None => Vec::new(),
        };
        let rng = StdRng::seed_from_u64(profile.seed() ^ 0xC41B_57EE);
        Self {
            profile,
            config,
            banks,
            trr,
            stats: ChipStats::default(),
            weak_cells: WeakCellCache::default(),
            obs: Recorder::with_trace_capacity(0),
            rng,
            now_ns: 0.0,
        }
    }

    /// The ground-truth vulnerability profile driving this chip.
    pub fn profile(&self) -> &ModuleVulnerabilityProfile {
        &self.profile
    }

    /// The chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// A mergeable metrics snapshot (`chip.*`): the cumulative counters plus
    /// recorded hammer-burst and bitflip observations.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.stats.to_metrics();
        snap.merge(&self.obs.snapshot());
        snap
    }

    /// Cumulative event counters.
    pub fn stats(&self) -> &ChipStats {
        &self.stats
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Number of rows per bank.
    pub fn rows_per_bank(&self) -> usize {
        self.profile.rows_per_bank()
    }

    /// Current model time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    fn to_physical(&self, logical_row: usize) -> usize {
        self.config
            .scramble
            .logical_to_physical(logical_row, self.rows_per_bank())
    }

    fn check_bank(&self, bank: usize) -> Result<(), DramError> {
        if bank >= self.banks.len() {
            return Err(DramError::InvalidConfig {
                reason: format!("bank {bank} out of range ({} banks)", self.banks.len()),
            });
        }
        Ok(())
    }

    fn check_row(&self, row: usize) -> Result<(), DramError> {
        if row >= self.rows_per_bank() {
            return Err(DramError::InvalidConfig {
                reason: format!("row {row} out of range ({} rows)", self.rows_per_bank()),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checked internal accessors
    //
    // All indexing into bank/row storage funnels through these four
    // functions. Callers either validated the index via `check_bank` /
    // `check_row` at the public API boundary or derived it from an in-range
    // enumeration; `to_physical` maps valid logical rows to valid physical
    // rows by construction.
    // ------------------------------------------------------------------

    fn bank_state(&self, bank: usize) -> &BankState {
        // lint: allow(panic) -- bank validated by check_bank at the API boundary
        &self.banks[bank]
    }

    fn bank_state_mut(&mut self, bank: usize) -> &mut BankState {
        // lint: allow(panic) -- bank validated by check_bank at the API boundary
        &mut self.banks[bank]
    }

    fn row_state(&self, bank: usize, phys: usize) -> &RowState {
        // lint: allow(panic) -- bank/phys validated by check_bank/check_row at the API boundary
        &self.banks[bank].rows[phys]
    }

    fn row_state_mut(&mut self, bank: usize, phys: usize) -> &mut RowState {
        // lint: allow(panic) -- bank/phys validated by check_bank/check_row at the API boundary
        &mut self.banks[bank].rows[phys]
    }

    // ------------------------------------------------------------------
    // Command-level interface
    // ------------------------------------------------------------------

    /// Execute a single DRAM command at time `now_ns`. Time must be monotone.
    pub fn execute(&mut self, cmd: &DramCommand, now_ns: f64) -> Result<(), DramError> {
        if now_ns + 1e-9 < self.now_ns {
            return Err(DramError::TimingViolation {
                parameter: "time",
                reason: format!("time went backwards: {} -> {}", self.now_ns, now_ns),
            });
        }
        self.now_ns = now_ns;
        match cmd {
            DramCommand::Activate(a) => self.activate(self.flat_bank_of(a), a.row, now_ns),
            DramCommand::Precharge(b) => {
                let flat = b.index_in_rank(self.config.banks_per_group) % self.banks.len();
                self.precharge(flat, now_ns)
            }
            DramCommand::PrechargeAll { .. } => {
                let open: Vec<usize> = self
                    .banks
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.is_open())
                    .map(|(i, _)| i)
                    .collect();
                for b in open {
                    self.precharge(b, now_ns)?;
                }
                Ok(())
            }
            DramCommand::Read(a) => {
                let _ = self.read(self.flat_bank_of(a), a.row, a.column)?;
                Ok(())
            }
            DramCommand::Write(a) => self.write(self.flat_bank_of(a), a.row, a.column, 0),
            DramCommand::Refresh { .. } => {
                self.refresh_all();
                Ok(())
            }
            DramCommand::WaitNs(ns) => {
                self.now_ns += ns;
                Ok(())
            }
        }
    }

    fn flat_bank_of(&self, a: &svard_dram::DramAddress) -> usize {
        (a.bank_group * self.config.banks_per_group + a.bank) % self.banks.len()
    }

    /// Activate (open) a logical row in a bank. Any read disturbance the row has
    /// accumulated materializes as bitflips at this point, and its dose resets
    /// (sensing restores the cell charge).
    pub fn activate(
        &mut self,
        bank: usize,
        logical_row: usize,
        now_ns: f64,
    ) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(logical_row)?;
        if self.bank_state(bank).is_open() {
            return Err(DramError::ProtocolViolation {
                reason: format!("ACT to bank {bank} which already has an open row"),
            });
        }
        let phys = self.to_physical(logical_row);
        self.materialize(bank, phys);
        self.row_state_mut(bank, phys).activations += 1;
        let b = self.bank_state_mut(bank);
        b.open_row = Some(phys);
        b.open_since_ns = now_ns;
        self.stats.activations += 1;
        if let Some(trr) = self.trr.get_mut(bank) {
            trr.observe_activation(phys);
        }
        Ok(())
    }

    /// Precharge (close) a bank's open row. The time the row has been open
    /// determines the RowPress amplification of the disturbance it inflicted on its
    /// physical neighbours.
    pub fn precharge(&mut self, bank: usize, now_ns: f64) -> Result<(), DramError> {
        self.check_bank(bank)?;
        let Some(phys) = self.bank_state(bank).open_row else {
            return Err(DramError::ProtocolViolation {
                reason: format!("PRE to bank {bank} with no open row"),
            });
        };
        let t_on = (now_ns - self.bank_state(bank).open_since_ns).max(0.0);
        self.disturb_neighbours(bank, phys, 1, t_on.max(36.0));
        self.bank_state_mut(bank).open_row = None;
        self.stats.precharges += 1;
        Ok(())
    }

    /// Read one column (64-byte cache line worth of data, truncated to the row size)
    /// from the bank's open row.
    pub fn read(
        &mut self,
        bank: usize,
        logical_row: usize,
        column: usize,
    ) -> Result<Vec<u8>, DramError> {
        self.check_bank(bank)?;
        let phys = self.to_physical(logical_row);
        if self.bank_state(bank).open_row != Some(phys) {
            return Err(DramError::ProtocolViolation {
                reason: format!("RD to bank {bank} row {logical_row} which is not open"),
            });
        }
        self.stats.reads += 1;
        let data = &self.row_state(bank, phys).data;
        let start = (column * 64).min(data.len());
        let end = (start + 64).min(data.len());
        Ok(data.get(start..end).unwrap_or(&[]).to_vec())
    }

    /// Write one byte to every cell of a 64-byte column of the open row.
    pub fn write(
        &mut self,
        bank: usize,
        logical_row: usize,
        column: usize,
        byte: u8,
    ) -> Result<(), DramError> {
        self.check_bank(bank)?;
        let phys = self.to_physical(logical_row);
        if self.bank_state(bank).open_row != Some(phys) {
            return Err(DramError::ProtocolViolation {
                reason: format!("WR to bank {bank} row {logical_row} which is not open"),
            });
        }
        self.stats.writes += 1;
        let (seed, bits) = (self.profile.seed(), self.config.bits_per_row());
        let Self {
            banks, weak_cells, ..
        } = self;
        let Some(row) = banks.get_mut(bank).and_then(|b| b.rows.get_mut(phys)) else {
            return Ok(());
        };
        let start = (column * 64).min(row.data.len());
        let end = (start + 64).min(row.data.len());
        row.write_bytes(start..end, byte, move |flipped| {
            weak_cells.weakest(seed, bank, phys, bits, flipped)
        });
        Ok(())
    }

    /// Rank-level auto-refresh: refreshes the next few rows of every bank
    /// (round-robin) and, if on-die TRR is enabled, additionally refreshes the
    /// neighbours of suspected aggressor rows.
    pub fn refresh_all(&mut self) {
        self.stats.refreshes += 1;
        let rows = self.rows_per_bank();
        // DDR4 refreshes the whole device in 8192 REF commands.
        let per_ref = rows.div_ceil(8192).max(1);
        for bank in 0..self.banks.len() {
            for _ in 0..per_ref {
                let cursor = self.bank_state(bank).refresh_cursor;
                self.refresh_physical_row(bank, cursor);
                self.bank_state_mut(bank).refresh_cursor = (cursor + 1) % rows;
            }
            let aggressors = match self.trr.get_mut(bank) {
                Some(trr) => trr.on_refresh(),
                None => continue,
            };
            for phys in aggressors {
                for victim in self.physical_neighbours(phys) {
                    self.refresh_physical_row(bank, victim);
                    self.stats.trr_refreshes += 1;
                }
            }
        }
    }

    /// Refresh a single row identified by *logical* address (used by defenses that
    /// issue targeted victim refreshes).
    pub fn refresh_row(&mut self, bank: usize, logical_row: usize) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(logical_row)?;
        let phys = self.to_physical(logical_row);
        self.refresh_physical_row(bank, phys);
        Ok(())
    }

    fn refresh_physical_row(&mut self, bank: usize, phys: usize) {
        self.materialize(bank, phys);
    }

    // ------------------------------------------------------------------
    // Fast-path characterization interface
    // ------------------------------------------------------------------

    /// Fill an entire logical row with a repeated byte (models WR to every column of
    /// the activated row; protocol handled internally).
    pub fn fill_row(&mut self, bank: usize, logical_row: usize, byte: u8) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(logical_row)?;
        let phys = self.to_physical(logical_row);
        // Sensing the row materializes pending disturbance first.
        self.materialize(bank, phys);
        self.row_state_mut(bank, phys).fill(byte);
        Ok(())
    }

    /// Read back an entire logical row. Sensing the row materializes any pending
    /// read disturbance first, so this is what Algorithm 1's `compare_data` sees.
    pub fn read_row(&mut self, bank: usize, logical_row: usize) -> Result<Vec<u8>, DramError> {
        self.check_bank(bank)?;
        self.check_row(logical_row)?;
        let phys = self.to_physical(logical_row);
        self.materialize(bank, phys);
        Ok(self.row_state(bank, phys).data.clone())
    }

    // lint: hot-path
    /// Count the bits of a logical row that differ from a repeated expected byte.
    /// Counts in place over the stored row — no copy of the row data is made.
    pub fn count_bitflips(
        &mut self,
        bank: usize,
        logical_row: usize,
        expected: u8,
    ) -> Result<usize, DramError> {
        self.check_bank(bank)?;
        self.check_row(logical_row)?;
        let phys = self.to_physical(logical_row);
        // Sensing the row materializes pending disturbance first, exactly as
        // `read_row` would.
        self.materialize(bank, phys);
        Ok(self
            .row_state(bank, phys)
            .data
            .iter()
            .map(|b| (b ^ expected).count_ones() as usize)
            .sum())
    }
    // lint: end-hot-path

    /// Double-sided hammering fast path (the paper's `hammer_doublesided`):
    /// activate each of the victim's two physically adjacent neighbours
    /// `hammer_count` times with the given aggressor on-time, then return the number
    /// of victim bits this burst newly flipped. Cells that already flipped since
    /// their byte was last written do not flip back or count again, so a second
    /// identical burst on an unwritten victim returns 0.
    ///
    /// This is analytically equivalent to issuing `2 * hammer_count` ACT/PRE pairs
    /// through [`execute`](Self::execute) but runs in constant time, which is what
    /// makes full-bank characterization sweeps tractable.
    pub fn hammer_double_sided(
        &mut self,
        bank: usize,
        victim_logical: usize,
        hammer_count: u64,
        t_agg_on_ns: f64,
    ) -> Result<u64, DramError> {
        self.check_bank(bank)?;
        self.check_row(victim_logical)?;
        let victim_phys = self.to_physical(victim_logical);
        let flips_before = self.stats.bitflips_materialized;
        for aggressor in self.physical_neighbours(victim_phys) {
            self.hammer_physical_aggressor(bank, aggressor, hammer_count, t_agg_on_ns);
        }
        self.materialize(bank, victim_phys);
        Ok(self.stats.bitflips_materialized - flips_before)
    }

    /// Single-sided hammering fast path: activate one *logical* aggressor row
    /// `hammer_count` times. Returns the logical addresses of the rows that received
    /// disturbance (the aggressor's physical neighbours), which is the observable
    /// used by the subarray reverse engineering (Key Insight 1).
    pub fn hammer_single_sided(
        &mut self,
        bank: usize,
        aggressor_logical: usize,
        hammer_count: u64,
        t_agg_on_ns: f64,
    ) -> Result<Vec<usize>, DramError> {
        self.check_bank(bank)?;
        self.check_row(aggressor_logical)?;
        let phys = self.to_physical(aggressor_logical);
        let victims = self.physical_neighbours(phys);
        self.hammer_physical_aggressor(bank, phys, hammer_count, t_agg_on_ns);
        Ok(victims
            .into_iter()
            .map(|v| {
                self.config
                    .scramble
                    .physical_to_logical(v, self.rows_per_bank())
            })
            .collect())
    }

    /// Attempt an intra-subarray RowClone (ACT–PRE–ACT with violated timing) from
    /// `src` to `dst` (logical addresses). Returns `true` if the copy succeeded.
    ///
    /// Copies across subarray boundaries always fail (the rows do not share local
    /// bitlines); copies within a subarray succeed with the configured probability.
    pub fn attempt_rowclone(
        &mut self,
        bank: usize,
        src_logical: usize,
        dst_logical: usize,
    ) -> Result<bool, DramError> {
        self.check_bank(bank)?;
        self.check_row(src_logical)?;
        self.check_row(dst_logical)?;
        let src = self.to_physical(src_logical);
        let dst = self.to_physical(dst_logical);
        let same_subarray = self.profile.bank(bank).subarrays().same_subarray(src, dst);
        let success = same_subarray && self.rng.random::<f64>() < self.config.rowclone_success_rate;
        if success {
            let data = self.row_state(bank, src).data.clone();
            self.row_state_mut(bank, dst).overwrite(data);
            self.stats.rowclone_successes += 1;
        } else {
            self.stats.rowclone_failures += 1;
        }
        Ok(success)
    }

    /// Direct, physics-free access to a row's stored bytes (test/debug only: does not
    /// materialize disturbance and does not count as an access).
    pub fn peek_row(&self, bank: usize, logical_row: usize) -> Result<&[u8], DramError> {
        self.check_bank(bank)?;
        self.check_row(logical_row)?;
        let phys = self.to_physical(logical_row);
        Ok(&self.row_state(bank, phys).data)
    }

    /// Accumulated (not yet materialized) disturbance dose of a row, in effective
    /// hammer pairs. Exposed for tests and for defense-evaluation sanity checks.
    pub fn pending_dose(&self, bank: usize, logical_row: usize) -> Result<f64, DramError> {
        self.check_bank(bank)?;
        self.check_row(logical_row)?;
        let phys = self.to_physical(logical_row);
        Ok(self.row_state(bank, phys).dose)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    // lint: hot-path
    /// The physical rows adjacent to `phys` *within the same subarray*. Rows at a
    /// subarray boundary have only one such neighbour; this is what makes boundary
    /// rows observable to the reverse-engineering analysis.
    pub fn physical_neighbours(&self, phys: usize) -> Neighbours {
        let sa = self.profile.bank(0).subarrays();
        let mut out = Neighbours::default();
        if phys > 0 && sa.same_subarray(phys, phys - 1) {
            out.push(phys - 1);
        }
        if phys + 1 < self.rows_per_bank() && sa.same_subarray(phys, phys + 1) {
            out.push(phys + 1);
        }
        out
    }

    fn hammer_physical_aggressor(
        &mut self,
        bank: usize,
        aggressor_phys: usize,
        count: u64,
        t_agg_on_ns: f64,
    ) {
        self.row_state_mut(bank, aggressor_phys).activations += count;
        self.stats.activations += count;
        self.stats.precharges += count;
        self.obs.counter(Counter::ChipHammerBursts, 1);
        self.obs.observe(Hist::ChipHammerCount, count);
        if let Some(trr) = self.trr.get_mut(bank) {
            // The TRR sketch sees every activation; feed it a bounded number of
            // observations to keep the fast path fast while preserving ranking.
            for _ in 0..count.min(64) {
                trr.observe_activation(aggressor_phys);
            }
        }
        self.disturb_neighbours(bank, aggressor_phys, count, t_agg_on_ns);
    }

    fn disturb_neighbours(
        &mut self,
        bank: usize,
        aggressor_phys: usize,
        activations: u64,
        t_agg_on_ns: f64,
    ) {
        let amp =
            rowpress_amplification(t_agg_on_ns) * temperature_factor(self.config.temperature_c);
        let rows = self.rows_per_bank();
        // Distance-1 victims (same subarray only).
        for victim in self.physical_neighbours(aggressor_phys) {
            let coupling = self.estimate_coupling(bank, aggressor_phys, victim);
            self.row_state_mut(bank, victim).dose += 0.5 * activations as f64 * amp * coupling;
        }
        // Weak distance-2 victims.
        if self.config.distance2_coupling > 0.0 {
            for offset in [-2isize, 2] {
                let v = aggressor_phys as isize + offset;
                if v < 0 || (v as usize) >= rows {
                    continue;
                }
                let v = v as usize;
                if !self
                    .profile
                    .bank(0)
                    .subarrays()
                    .same_subarray(aggressor_phys, v)
                {
                    continue;
                }
                let coupling = self.estimate_coupling(bank, aggressor_phys, v);
                self.row_state_mut(bank, v).dose +=
                    0.5 * activations as f64 * amp * coupling * self.config.distance2_coupling;
            }
        }
    }

    /// Estimate the data-pattern coupling factor between an aggressor and a victim
    /// row from the first bytes of their stored data: opposite uniform data (row
    /// stripe) couples hardest, checkerboard-style opposite data next, identical
    /// data least (Table 2 ordering).
    fn estimate_coupling(&self, bank: usize, aggressor_phys: usize, victim_phys: usize) -> f64 {
        let a = &self.row_state(bank, aggressor_phys).data;
        let v = &self.row_state(bank, victim_phys).data;
        let n = a.len().min(v.len()).min(16);
        if n == 0 {
            return 1.0;
        }
        let mut sum = 0.0;
        for (&ab, &vb) in a.iter().zip(v.iter()).take(n) {
            let x = ab ^ vb;
            sum += if x == 0xFF {
                // Fully opposite bits: row stripe if the bytes are uniform, else
                // checkerboard-like.
                if ab == 0x00 || ab == 0xFF {
                    1.0
                } else {
                    0.82
                }
            } else {
                0.55 + 0.27 * (x.count_ones() as f64 / 8.0)
            };
        }
        sum / n as f64
    }

    /// Turn a row's accumulated dose into bitflips: flip the row's weakest cells
    /// up to its BER at that dose, skipping those already flipped since their
    /// byte was last written, and reset the dose.
    fn materialize(&mut self, bank: usize, phys: usize) {
        let (seed, bits) = (self.profile.seed(), self.config.bits_per_row());
        let Self {
            profile,
            banks,
            weak_cells,
            stats,
            obs,
            ..
        } = self;
        let Some(row) = banks.get_mut(bank).and_then(|b| b.rows.get_mut(phys)) else {
            return;
        };
        let dose = row.dose;
        if dose <= 0.0 {
            return;
        }
        row.dose = 0.0;
        let row_profile = profile.row(bank, phys);
        if !row_profile.flips_at_effective(dose) {
            return;
        }
        let target = cells::flipped_cell_count(bits, row_profile.ber_at_effective(dose));
        if row.flipped_mask.is_none() && target <= row.flipped {
            return;
        }
        let flipped = row.flip_weakest(weak_cells.weakest(seed, bank, phys, bits, target));
        if flipped > 0 {
            stats.bitflips_materialized += flipped;
            obs.counter(Counter::ChipBitflips, flipped);
        }
    }
    // lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use svard_dram::mapping::RowScramble;
    use svard_vulnerability::{ModuleSpec, ProfileGenerator};

    fn small_chip() -> SimChip {
        let profile = ProfileGenerator::new(42).generate(&ModuleSpec::s0().scaled(256), 2);
        SimChip::new(profile, ChipConfig::for_characterization(128))
    }

    #[test]
    fn fill_and_read_roundtrip() {
        let mut chip = small_chip();
        chip.fill_row(0, 10, 0xA5).unwrap();
        let data = chip.read_row(0, 10).unwrap();
        assert!(data.iter().all(|&b| b == 0xA5));
        assert_eq!(chip.count_bitflips(0, 10, 0xA5).unwrap(), 0);
    }

    #[test]
    fn hammering_above_threshold_flips_bits() {
        let mut chip = small_chip();
        let victim = 64;
        chip.fill_row(0, victim, 0x00).unwrap();
        chip.fill_row(0, victim - 1, 0xFF).unwrap();
        chip.fill_row(0, victim + 1, 0xFF).unwrap();
        // 256K hammers is well above any S0 threshold (max 128K).
        let flips = chip
            .hammer_double_sided(0, victim, 256 * 1024, 36.0)
            .unwrap();
        assert!(flips > 0);
        assert_eq!(chip.count_bitflips(0, victim, 0x00).unwrap() as u64, {
            // bitflips persist in the stored data
            chip.peek_row(0, victim)
                .unwrap()
                .iter()
                .map(|b| b.count_ones() as u64)
                .sum::<u64>()
        });
    }

    /// Fill `victim` with 0x00 and its two neighbours with 0xFF (row stripe).
    fn row_stripe(chip: &mut SimChip, bank: usize, victim: usize) {
        chip.fill_row(bank, victim, 0x00).unwrap();
        chip.fill_row(bank, victim - 1, 0xFF).unwrap();
        chip.fill_row(bank, victim + 1, 0xFF).unwrap();
    }

    #[test]
    fn a_second_burst_never_unflips_bits() {
        let mut chip = small_chip();
        let victim = 64;
        row_stripe(&mut chip, 0, victim);
        let first = chip
            .hammer_double_sided(0, victim, 256 * 1024, 36.0)
            .unwrap();
        assert!(first > 0);
        // The same cells flip again, so nothing is new and nothing flips back.
        let second = chip
            .hammer_double_sided(0, victim, 256 * 1024, 36.0)
            .unwrap();
        assert_eq!(second, 0, "a repeated burst reported newly flipped bits");
        assert_eq!(chip.count_bitflips(0, victim, 0x00).unwrap() as u64, first);
        // A stronger burst flips only the cells past the first burst's.
        let stronger = chip.hammer_double_sided(0, victim, 4 << 20, 36.0).unwrap();
        assert!(stronger > 0);
        assert_eq!(
            chip.count_bitflips(0, victim, 0x00).unwrap() as u64,
            first + stronger
        );
        // Rewriting the victim lets every cell flip again.
        row_stripe(&mut chip, 0, victim);
        let again = chip
            .hammer_double_sided(0, victim, 256 * 1024, 36.0)
            .unwrap();
        assert_eq!(again, first);
        assert!(chip.banks[0].rows.iter().all(|r| r.flipped_mask.is_none()));
    }

    #[test]
    fn a_column_write_lets_only_its_cells_flip_again() {
        let mut chip = small_chip();
        let victim = 64;
        row_stripe(&mut chip, 0, victim);
        let first = chip.hammer_double_sided(0, victim, 4 << 20, 36.0).unwrap();
        let column0 = chip.peek_row(0, victim).unwrap()[..64]
            .iter()
            .map(|b| b.count_ones() as u64)
            .sum::<u64>();
        assert!(column0 > 0 && column0 < first, "{column0} of {first}");
        // Rewrite column 0 through the command interface.
        chip.activate(0, victim, 0.0).unwrap();
        chip.write(0, victim, 0, 0x00).unwrap();
        chip.precharge(0, 50.0).unwrap();
        assert_eq!(
            chip.count_bitflips(0, victim, 0x00).unwrap() as u64,
            first - column0
        );
        // The same burst again re-flips exactly the rewritten column's cells.
        let second = chip.hammer_double_sided(0, victim, 4 << 20, 36.0).unwrap();
        assert_eq!(second, column0);
        assert_eq!(chip.count_bitflips(0, victim, 0x00).unwrap() as u64, first);
        assert_eq!(
            chip.hammer_double_sided(0, victim, 4 << 20, 36.0).unwrap(),
            0
        );
    }

    #[test]
    fn a_warm_cache_changes_no_row_data() {
        let mut warm = small_chip();
        // Warm every cache slot, in both banks, on rows the sequence below never
        // reads back.
        for bank in 0..2 {
            for victim in [10, 17, 33, 140, 200, 203, 230, 245] {
                row_stripe(&mut warm, bank, victim);
                warm.hammer_double_sided(bank, victim, 1 << 20, 36.0)
                    .unwrap();
            }
        }
        let mut cold = small_chip();
        // Same slot (row mod 8) in one bank and across banks, deepening and
        // shallower prefixes.
        let sequence = [
            (0, 64, 256 << 10),
            (0, 66, 1 << 20),
            (1, 64, 512 << 10),
            (0, 72, 4 << 20),
            (0, 64, 64 << 10),
            (1, 80, 8 << 20),
            (0, 64, 2 << 20),
        ];
        let mut flips = [Vec::new(), Vec::new()];
        for (chip, flips) in [&mut cold, &mut warm].into_iter().zip(&mut flips) {
            for &(bank, victim, hc) in &sequence {
                row_stripe(chip, bank, victim);
                flips.push(chip.hammer_double_sided(bank, victim, hc, 36.0).unwrap());
                // A second burst on the unwritten victim, and a neighbour's.
                flips.push(chip.hammer_double_sided(bank, victim, hc, 36.0).unwrap());
                flips.push(
                    chip.hammer_double_sided(bank, victim + 2, hc, 36.0)
                        .unwrap(),
                );
            }
        }
        assert_eq!(flips[0], flips[1]);
        assert!(flips[0].iter().any(|&f| f > 0));
        for bank in 0..2 {
            for row in 56..96 {
                assert_eq!(
                    cold.peek_row(bank, row).unwrap(),
                    warm.peek_row(bank, row).unwrap(),
                    "bank {bank} row {row}"
                );
            }
        }
    }

    #[test]
    fn neighbours_stop_at_subarray_boundaries() {
        let chip = small_chip();
        let sa = chip.profile().bank(0).subarrays().clone();
        let start = sa.subarray_range(1).start;
        assert_eq!(chip.physical_neighbours(start).as_slice(), &[start + 1]);
        assert_eq!(chip.physical_neighbours(start - 1).as_slice(), &[start - 2]);
        let inner = chip.physical_neighbours(start + 1);
        assert_eq!(inner.as_slice(), &[start, start + 2]);
        assert_eq!(
            inner.into_iter().collect::<Vec<_>>(),
            vec![start, start + 2]
        );
        assert_eq!(chip.physical_neighbours(0).as_slice(), &[1]);
    }

    #[test]
    fn hammering_below_threshold_causes_no_flips() {
        let mut chip = small_chip();
        let victim = 100;
        chip.fill_row(0, victim, 0x00).unwrap();
        chip.fill_row(0, victim - 1, 0xFF).unwrap();
        chip.fill_row(0, victim + 1, 0xFF).unwrap();
        // S0's minimum HC_first is 32K; 1K hammers must never flip anything.
        let flips = chip.hammer_double_sided(0, victim, 1024, 36.0).unwrap();
        assert_eq!(flips, 0);
        assert_eq!(chip.count_bitflips(0, victim, 0x00).unwrap(), 0);
    }

    #[test]
    fn rowpress_lowers_the_flip_threshold() {
        let profile = ProfileGenerator::new(7).generate(&ModuleSpec::s0().scaled(256), 1);
        let config = ChipConfig::for_characterization(128);
        let victim = 40;
        let hc_36 = {
            let mut chip = SimChip::new(profile.clone(), config.clone());
            chip.fill_row(0, victim, 0x00).unwrap();
            chip.fill_row(0, victim - 1, 0xFF).unwrap();
            chip.fill_row(0, victim + 1, 0xFF).unwrap();
            chip.hammer_double_sided(0, victim, 40 * 1024, 36.0)
                .unwrap()
        };
        let hc_press = {
            let mut chip = SimChip::new(profile, config);
            chip.fill_row(0, victim, 0x00).unwrap();
            chip.fill_row(0, victim - 1, 0xFF).unwrap();
            chip.fill_row(0, victim + 1, 0xFF).unwrap();
            chip.hammer_double_sided(0, victim, 40 * 1024, 2000.0)
                .unwrap()
        };
        assert!(hc_press >= hc_36, "pressing must not reduce disturbance");
    }

    #[test]
    fn preventive_refresh_resets_accumulated_dose() {
        let mut chip = small_chip();
        let victim = 80;
        chip.fill_row(0, victim, 0x00).unwrap();
        chip.fill_row(0, victim - 1, 0xFF).unwrap();
        chip.fill_row(0, victim + 1, 0xFF).unwrap();
        // Hammer to just below the minimum threshold, refresh, hammer again: the two
        // half-doses must not add up to a flip.
        chip.hammer_double_sided(0, victim, 20 * 1024, 36.0)
            .unwrap();
        // hammer_double_sided materializes (and thus resets) the victim at the end,
        // so explicitly accumulate dose without materializing via single-sided calls.
        chip.hammer_single_sided(0, victim - 1, 20 * 1024, 36.0)
            .unwrap();
        assert!(chip.pending_dose(0, victim).unwrap() > 0.0);
        chip.refresh_row(0, victim).unwrap();
        assert_eq!(chip.pending_dose(0, victim).unwrap(), 0.0);
        let flips = chip.count_bitflips(0, victim, 0x00).unwrap();
        assert_eq!(flips, 0);
    }

    #[test]
    fn protocol_violations_are_reported() {
        let mut chip = small_chip();
        assert!(chip.precharge(0, 10.0).is_err());
        chip.activate(0, 5, 0.0).unwrap();
        assert!(chip.activate(0, 6, 10.0).is_err());
        chip.precharge(0, 50.0).unwrap();
        assert!(chip.read(0, 5, 0).is_err());
    }

    #[test]
    fn command_interface_matches_fast_path() {
        let profile = ProfileGenerator::new(3).generate(&ModuleSpec::m0().scaled(128), 1);
        let mut chip = SimChip::new(profile, ChipConfig::for_characterization(64));
        // Pick a victim that is not at a subarray boundary so it has two aggressors.
        let victim = (2..126)
            .find(|&r| {
                let sa = chip.profile().bank(0).subarrays();
                !sa.is_boundary_row(r) && !sa.is_boundary_row(r - 1) && !sa.is_boundary_row(r + 1)
            })
            .unwrap();
        chip.fill_row(0, victim, 0x00).unwrap();
        chip.fill_row(0, victim - 1, 0xFF).unwrap();
        chip.fill_row(0, victim + 1, 0xFF).unwrap();
        // Issue explicit ACT/PRE pairs to both aggressors.
        let mut t = 0.0;
        for _ in 0..200 {
            for agg in [victim - 1, victim + 1] {
                chip.activate(0, agg, t).unwrap();
                t += 36.0;
                chip.precharge(0, t).unwrap();
                t += 15.0;
            }
        }
        // 200 hammers accumulate a dose of ~200 on the victim.
        let dose = chip.pending_dose(0, victim).unwrap();
        assert!((dose - 200.0).abs() < 10.0, "dose = {dose}");
    }

    #[test]
    fn scrambled_chip_disturbs_physical_neighbours() {
        let profile = ProfileGenerator::new(9).generate(&ModuleSpec::s0().scaled(256), 1);
        let config = ChipConfig::for_characterization(64).with_scramble(RowScramble::LowBitSwizzle);
        let mut chip = SimChip::new(profile, config);
        let aggressor_logical = 50;
        let disturbed = chip
            .hammer_single_sided(0, aggressor_logical, 1000, 36.0)
            .unwrap();
        // The disturbed logical rows, once mapped to physical space, are adjacent to
        // the aggressor's physical location.
        let scramble = RowScramble::LowBitSwizzle;
        let agg_phys = scramble.logical_to_physical(aggressor_logical, 256);
        for v in disturbed {
            let vp = scramble.logical_to_physical(v, 256);
            assert_eq!(vp.abs_diff(agg_phys), 1);
        }
    }

    #[test]
    fn bank_flattening_respects_configured_banks_per_group() {
        use svard_dram::{DramAddress, DramCommand};
        // 8 banks arranged as 4 groups of 2 (not the DDR4 default of 4 per group).
        let profile = ProfileGenerator::new(11).generate(&ModuleSpec::s0().scaled(64), 8);
        let config = ChipConfig::for_characterization(64).with_banks_per_group(2);
        let mut chip = SimChip::new(profile, config);
        // (bank_group 1, bank 0) flattens to bank 2 under 2 banks/group (it would
        // be bank 4 under the old hard-coded DDR4 grouping).
        let addr = DramAddress {
            bank_group: 1,
            bank: 0,
            row: 5,
            ..DramAddress::default()
        };
        chip.execute(&DramCommand::Activate(addr.clone()), 0.0)
            .unwrap();
        assert_eq!(chip.banks[2].open_row, Some(5));
        assert!(chip.banks[4].open_row.is_none());
        // Precharge through the command interface closes the same bank.
        chip.execute(&DramCommand::Precharge(addr.bank_id()), 50.0)
            .unwrap();
        assert!(chip.banks[2].open_row.is_none());
    }

    #[test]
    fn rowclone_only_works_within_a_subarray() {
        let mut chip = small_chip();
        let sa = chip.profile().bank(0).subarrays().clone();
        // Find two rows in the same subarray and two in different subarrays.
        let range0 = sa.subarray_range(0);
        let (src, dst_same) = (range0.start, range0.start + 1);
        let dst_other = sa.subarray_range(1).start;
        chip.fill_row(0, src, 0x77).unwrap();
        chip.fill_row(0, dst_same, 0x00).unwrap();
        chip.fill_row(0, dst_other, 0x00).unwrap();
        // Across subarrays: always fails.
        assert!(!chip.attempt_rowclone(0, src, dst_other).unwrap());
        // Within a subarray: succeeds with high probability; retry a few times.
        let ok = (0..10).any(|_| chip.attempt_rowclone(0, src, dst_same).unwrap());
        assert!(ok);
        assert!(chip
            .peek_row(0, dst_same)
            .unwrap()
            .iter()
            .all(|&b| b == 0x77));
    }

    #[test]
    fn trr_protects_against_moderate_hammering_when_refresh_runs() {
        use crate::trr::TrrConfig;
        let spec = ModuleSpec::m0().scaled(256);
        let profile = ProfileGenerator::new(5).generate(&spec, 1);
        let min_hc = profile.min_true_threshold() as u64;
        let mut with_trr = SimChip::new(
            profile.clone(),
            ChipConfig::for_characterization(64).with_trr(TrrConfig::default()),
        );
        let mut without_trr = SimChip::new(profile, ChipConfig::for_characterization(64));

        // Pick the weakest row in bank 0 as the victim.
        let victim = (0..256)
            .min_by(|&a, &b| {
                with_trr
                    .profile()
                    .true_threshold(0, a)
                    .partial_cmp(&with_trr.profile().true_threshold(0, b))
                    .unwrap()
            })
            .unwrap();
        let victim = victim.clamp(1, 254);

        for chip in [&mut with_trr, &mut without_trr] {
            chip.fill_row(0, victim, 0x00).unwrap();
            chip.fill_row(0, victim - 1, 0xFF).unwrap();
            chip.fill_row(0, victim + 1, 0xFF).unwrap();
        }

        // Hammer in small chunks with interleaved REF commands, exceeding the
        // threshold overall. TRR should keep resetting the victim's dose.
        let chunk = (min_hc / 16).max(1);
        for _ in 0..32 {
            with_trr
                .hammer_double_sided(0, victim - 1, 0, 36.0)
                .unwrap(); // no-op keeps API parity
            for chip in [&mut with_trr, &mut without_trr] {
                for agg in [victim - 1, victim + 1] {
                    chip.hammer_single_sided(0, agg, chunk, 36.0).unwrap();
                }
            }
            with_trr.refresh_all();
            without_trr.refresh_all();
        }
        let flips_with = with_trr.count_bitflips(0, victim, 0x00).unwrap();
        let flips_without = without_trr.count_bitflips(0, victim, 0x00).unwrap();
        assert!(flips_without > 0, "victim should flip without TRR");
        assert!(
            flips_with <= flips_without,
            "TRR should not make things worse"
        );
    }
}
