//! DDR4 timing parameters (§2.1 of the paper).
//!
//! All parameters are stored in **picoseconds** to avoid floating-point drift, with
//! helpers that convert to controller clock cycles (rounding up, as a real memory
//! controller must).

/// DDR4 timing parameters relevant to row activation, column access, precharge and
/// refresh, plus the read-disturbance-relevant `tAggOn` knob used by RowPress tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingParams {
    /// Clock period in picoseconds (DDR4-3200: 625 ps).
    pub t_ck_ps: u64,
    /// Activate-to-read/write delay (row activation latency).
    pub t_rcd_ps: u64,
    /// Precharge latency.
    pub t_rp_ps: u64,
    /// Activate-to-precharge minimum (charge restoration latency).
    pub t_ras_ps: u64,
    /// Column access (read) latency.
    pub t_cl_ps: u64,
    /// Column write latency.
    pub t_cwl_ps: u64,
    /// Read-to-read, different bank group.
    pub t_ccd_s_ps: u64,
    /// Read-to-read, same bank group.
    pub t_ccd_l_ps: u64,
    /// Activate-to-activate, different bank group.
    pub t_rrd_s_ps: u64,
    /// Activate-to-activate, same bank group.
    pub t_rrd_l_ps: u64,
    /// Four-activate window.
    pub t_faw_ps: u64,
    /// Write recovery time.
    pub t_wr_ps: u64,
    /// Write-to-read turnaround.
    pub t_wtr_ps: u64,
    /// Read-to-precharge.
    pub t_rtp_ps: u64,
    /// Refresh command latency.
    pub t_rfc_ps: u64,
    /// Refresh interval (time between REF commands).
    pub t_refi_ps: u64,
    /// Refresh window (time within which every row must be refreshed once).
    pub t_refw_ps: u64,
    /// Data burst length in cycles (BL8 on a DDR bus = 4 clock cycles).
    pub burst_cycles: u64,
}

impl TimingParams {
    /// JEDEC-like DDR4-3200AA timings (22-22-22), 64 ms refresh window.
    pub fn ddr4_3200() -> Self {
        Self {
            t_ck_ps: 625,
            t_rcd_ps: 13_750,
            t_rp_ps: 13_750,
            t_ras_ps: 32_000,
            t_cl_ps: 13_750,
            t_cwl_ps: 10_000,
            t_ccd_s_ps: 2_500,
            t_ccd_l_ps: 5_000,
            t_rrd_s_ps: 2_500,
            t_rrd_l_ps: 4_900,
            t_faw_ps: 21_000,
            t_wr_ps: 15_000,
            t_wtr_ps: 7_500,
            t_rtp_ps: 7_500,
            t_rfc_ps: 350_000,
            t_refi_ps: 7_800_000,
            t_refw_ps: 64_000_000_000,
            burst_cycles: 4,
        }
    }

    /// Convert a picosecond duration to controller cycles, rounding up.
    pub fn ps_to_cycles(&self, ps: u64) -> u64 {
        ps.div_ceil(self.t_ck_ps)
    }

    /// Convert a nanosecond duration to controller cycles, rounding up.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        self.ps_to_cycles((ns * 1000.0).ceil() as u64)
    }

    /// Convert controller cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        (cycles * self.t_ck_ps) as f64 / 1000.0
    }

    /// tRCD in cycles.
    pub fn t_rcd(&self) -> u64 {
        self.ps_to_cycles(self.t_rcd_ps)
    }
    /// tRP in cycles.
    pub fn t_rp(&self) -> u64 {
        self.ps_to_cycles(self.t_rp_ps)
    }
    /// tRAS in cycles.
    pub fn t_ras(&self) -> u64 {
        self.ps_to_cycles(self.t_ras_ps)
    }
    /// tCL in cycles.
    pub fn t_cl(&self) -> u64 {
        self.ps_to_cycles(self.t_cl_ps)
    }
    /// tCWL in cycles.
    pub fn t_cwl(&self) -> u64 {
        self.ps_to_cycles(self.t_cwl_ps)
    }
    /// tRC (tRAS + tRP) in cycles: minimum time between two activations of the same bank.
    pub fn t_rc(&self) -> u64 {
        self.ps_to_cycles(self.t_ras_ps + self.t_rp_ps)
    }
    /// tRFC in cycles.
    pub fn t_rfc(&self) -> u64 {
        self.ps_to_cycles(self.t_rfc_ps)
    }
    /// tREFI in cycles.
    pub fn t_refi(&self) -> u64 {
        self.ps_to_cycles(self.t_refi_ps)
    }
    /// tFAW in cycles.
    pub fn t_faw(&self) -> u64 {
        self.ps_to_cycles(self.t_faw_ps)
    }
    /// tRRD (same bank group) in cycles.
    pub fn t_rrd_l(&self) -> u64 {
        self.ps_to_cycles(self.t_rrd_l_ps)
    }
    /// tCCD (same bank group) in cycles.
    pub fn t_ccd_l(&self) -> u64 {
        self.ps_to_cycles(self.t_ccd_l_ps)
    }

    /// The maximum number of double-sided "hammers" (one activation to each of the
    /// two aggressor rows) that fit in one refresh window, given an aggressor
    /// on-time of `t_agg_on_ns`. This bounds what an attacker can do between
    /// refreshes of the victim and is the reference point used when scaling
    /// `HC_first` thresholds.
    pub fn max_hammers_per_refresh_window(&self, t_agg_on_ns: f64) -> u64 {
        let per_act_ps = (t_agg_on_ns * 1000.0).max(self.t_ras_ps as f64) + self.t_rp_ps as f64;
        let pair_ps = 2.0 * per_act_ps;
        (self.t_refw_ps as f64 / pair_ps) as u64
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_3200()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_3200_cycle_conversions() {
        let t = TimingParams::ddr4_3200();
        assert_eq!(t.t_rcd(), 22);
        assert_eq!(t.t_rp(), 22);
        assert_eq!(t.t_cl(), 22);
        assert_eq!(t.t_ras(), 52); // 32 ns / 0.625 ns = 51.2 -> 52
    }

    #[test]
    fn ns_cycle_roundtrip_is_monotone() {
        let t = TimingParams::default();
        let c = t.ns_to_cycles(36.0);
        assert!(t.cycles_to_ns(c) >= 36.0);
        assert!(t.cycles_to_ns(c) < 36.0 + 1.0);
    }

    #[test]
    fn max_hammers_matches_paper_order_of_magnitude() {
        let t = TimingParams::ddr4_3200();
        // With minimum tRAS + tRP per activation, a 64 ms window allows on the order
        // of several hundred thousand double-sided hammer pairs.
        let n = t.max_hammers_per_refresh_window(36.0);
        assert!(n > 400_000 && n < 1_000_000, "n = {n}");
        // Pressing the row for 2 us per activation reduces the budget by ~40x.
        let pressed = t.max_hammers_per_refresh_window(2000.0);
        assert!(pressed < n / 30);
    }

    #[test]
    fn refresh_interval_and_window_are_consistent() {
        let t = TimingParams::default();
        // 64 ms / 7.8 us ~= 8192 refresh commands per window.
        let refs = t.t_refw_ps / t.t_refi_ps;
        assert!((8000..=8500).contains(&refs));
    }
}
