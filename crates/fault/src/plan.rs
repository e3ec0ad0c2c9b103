//! The deterministic fault plan.
//!
//! A [`FaultPlan`] is the single source of fault decisions for one
//! `World`: the datapath consults it at well-defined points (one PDU
//! put on the wire, one transmit completion, one simulated event) and
//! the plan answers from its private xorshift stream. Because the
//! event loop itself is deterministic, the whole faulted run is a pure
//! function of the seed — the property the swarm tests rely on to
//! replay any failure from its printed seed alone.

use genie_machine::SimTime;

use crate::rng::XorShift64;

/// Fault rates and targets. All rates are per-mille probabilities; a
/// zero config ([`FaultConfig::none`]) makes the plan inert, which the
/// datapath uses to keep the fault-free fast path byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the plan's private PRNG.
    pub seed: u64,
    /// Per-PDU chance of losing one cell on the wire.
    pub cell_loss_per_mille: u16,
    /// Per-PDU chance of corrupting one cell's payload byte.
    pub cell_corrupt_per_mille: u16,
    /// Per-PDU chance of two cells swapping places in flight.
    pub cell_swap_per_mille: u16,
    /// Per-PDU chance of extra propagation delay, letting a later PDU
    /// overtake this one (PDU-level reordering).
    pub pdu_delay_per_mille: u16,
    /// Per-PDU chance of transient credit starvation on its VC.
    pub credit_starve_per_mille: u16,
    /// Per-PDU chance that the transmit-complete interrupt is late.
    pub completion_delay_per_mille: u16,
    /// Per-event chance of a memory-pressure episode (frame hoarding
    /// plus a pageout storm) on one host.
    pub pressure_per_mille: u16,
    /// Per-output chance that an optimized semantics degrades to its
    /// basic counterpart (TCOW/region caching unavailable).
    pub degrade_per_mille: u16,
    /// Total fault budget: once this many faults have fired, the plan
    /// goes quiet so every faulted run terminates.
    pub max_faults: u32,
    /// Targeted damage: lose cell `.1` of the `.0`-th PDU put on the
    /// wire (0-based), independent of the random rates and the budget.
    /// Precision tests use this to fault one exact cell.
    pub target_cell: Option<(u64, usize)>,
}

impl FaultConfig {
    /// The all-off config.
    pub const NONE: FaultConfig = FaultConfig {
        seed: 0,
        cell_loss_per_mille: 0,
        cell_corrupt_per_mille: 0,
        cell_swap_per_mille: 0,
        pdu_delay_per_mille: 0,
        credit_starve_per_mille: 0,
        completion_delay_per_mille: 0,
        pressure_per_mille: 0,
        degrade_per_mille: 0,
        max_faults: 0,
        target_cell: None,
    };

    /// No faults (the default).
    pub fn none() -> Self {
        FaultConfig::NONE
    }

    /// The swarm-test stress profile: every fault class enabled at
    /// moderate rates, bounded by a budget so recovery always
    /// converges.
    pub fn swarm(seed: u64) -> Self {
        FaultConfig {
            seed,
            cell_loss_per_mille: 120,
            cell_corrupt_per_mille: 120,
            cell_swap_per_mille: 60,
            pdu_delay_per_mille: 120,
            credit_starve_per_mille: 80,
            completion_delay_per_mille: 80,
            pressure_per_mille: 40,
            degrade_per_mille: 100,
            max_faults: 6,
            target_cell: None,
        }
    }

    /// The swarm profile restricted to *observably masked* faults:
    /// wire damage, reordering, starvation and completion delay — all
    /// of which the protocol machinery recovers from without any
    /// application-visible effect. Memory pressure (which evicts
    /// non-recoverable pages an application could still read) and
    /// semantics degradation (which changes the reported effective
    /// semantics) stay off. The model-differential harness uses this
    /// profile so strict state equality holds even on faulted runs.
    pub fn masked(seed: u64) -> Self {
        FaultConfig {
            pressure_per_mille: 0,
            degrade_per_mille: 0,
            ..FaultConfig::swarm(seed)
        }
    }

    /// A latency-spike profile: only the delay faults (PDU propagation
    /// delay and late transmit-complete interrupts) are enabled, at
    /// high rates and with a generous budget. Nothing is damaged and
    /// nothing degrades, so all traffic completes with clean payloads —
    /// only the completion *times* jitter. The CQ property tests use
    /// this profile to check that the queue layer still conserves
    /// every tag and reports clean checksums when completions arrive
    /// late.
    pub fn delay_only(seed: u64) -> Self {
        FaultConfig {
            seed,
            pdu_delay_per_mille: 300,
            completion_delay_per_mille: 300,
            max_faults: 64,
            ..FaultConfig::none()
        }
    }

    /// True if any fault can ever fire under this config.
    pub fn active(&self) -> bool {
        self.target_cell.is_some()
            || self.cell_loss_per_mille > 0
            || self.cell_corrupt_per_mille > 0
            || self.cell_swap_per_mille > 0
            || self.pdu_delay_per_mille > 0
            || self.credit_starve_per_mille > 0
            || self.completion_delay_per_mille > 0
            || self.pressure_per_mille > 0
            || self.degrade_per_mille > 0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Damage applied to one PDU's cell train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDamage {
    /// Cell `i` is lost.
    DropCell(usize),
    /// One payload byte of cell `i` is flipped.
    CorruptCell(usize),
    /// Cells `i` and `j` arrive in each other's slot.
    SwapCells(usize, usize),
}

/// The plan's verdict for one PDU transmission.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireVerdict {
    /// Cell-level damage, if any.
    pub damage: Option<WireDamage>,
    /// Extra propagation delay (PDU reordering), if any.
    pub extra_delay: Option<SimTime>,
}

/// One transient credit-starvation episode.
#[derive(Clone, Copy, Debug)]
pub struct CreditStarve {
    /// Credits withheld from the VC.
    pub cells: u32,
    /// How long before they are restored.
    pub hold: SimTime,
}

/// One memory-pressure episode.
#[derive(Clone, Copy, Debug)]
pub struct Pressure {
    /// Host index (0 or 1) under pressure.
    pub host: usize,
    /// Free frames to hoard (bounded by the injector's safety margin).
    pub hoard_frames: usize,
    /// How long the hoard is held.
    pub hold: SimTime,
    /// Pages the pageout daemon storms through right now.
    pub pageout_pages: usize,
}

/// A seeded, deterministic fault plan.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: XorShift64,
    budget_left: u32,
    pdus_sent: u64,
}

impl FaultPlan {
    /// Builds a plan from a config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            rng: XorShift64::new(cfg.seed),
            budget_left: cfg.max_faults,
            pdus_sent: 0,
        }
    }

    /// The inert plan: no faults, and the datapath's fault hooks stay
    /// byte-identical to a world without the fault subsystem.
    pub fn none() -> Self {
        FaultPlan::new(FaultConfig::none())
    }

    /// A plan with the swarm stress profile.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan::new(FaultConfig::swarm(seed))
    }

    /// True if this plan can inject anything (the datapath's gate for
    /// all fault bookkeeping). Budget exhaustion does not turn this
    /// off: recovery machinery for already-injected faults must keep
    /// running.
    pub fn active(&self) -> bool {
        self.cfg.active()
    }

    /// The configuration (printed by failing swarm tests as the
    /// reproducer).
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Consumes one unit of fault budget; false once exhausted.
    fn spend(&mut self) -> bool {
        if self.budget_left == 0 {
            return false;
        }
        self.budget_left -= 1;
        true
    }

    /// Decides the fate of one PDU of `cells` cells put on the wire.
    pub fn wire(&mut self, cells: usize) -> WireVerdict {
        let pdu_index = self.pdus_sent;
        self.pdus_sent += 1;
        let mut v = WireVerdict::default();
        if let Some((target_pdu, cell)) = self.cfg.target_cell {
            if pdu_index == target_pdu {
                v.damage = Some(WireDamage::DropCell(cell.min(cells.saturating_sub(1))));
                return v;
            }
        }
        if !self.cfg.active() {
            return v;
        }
        // One rng draw per decision, in fixed order, so the stream is
        // reproducible regardless of which faults fire.
        let lose = self.rng.chance(self.cfg.cell_loss_per_mille);
        let corrupt = self.rng.chance(self.cfg.cell_corrupt_per_mille);
        let swap = self.rng.chance(self.cfg.cell_swap_per_mille);
        let delay = self.rng.chance(self.cfg.pdu_delay_per_mille);
        let pick = self.rng.below(cells.max(1) as u64) as usize;
        let pick2 = self.rng.below(cells.max(1) as u64) as usize;
        let delay_us = 40 + self.rng.below(160);
        if lose && self.spend() {
            v.damage = Some(WireDamage::DropCell(pick));
        } else if corrupt && self.spend() {
            v.damage = Some(WireDamage::CorruptCell(pick));
        } else if swap && cells >= 2 && pick != pick2 && self.spend() {
            v.damage = Some(WireDamage::SwapCells(pick.min(pick2), pick.max(pick2)));
        }
        if delay && self.spend() {
            v.extra_delay = Some(SimTime::from_us(delay_us as f64));
        }
        v
    }

    /// Decides whether this PDU's VC suffers transient credit
    /// starvation before transmission.
    pub fn credit_starve(&mut self) -> Option<CreditStarve> {
        if !self.rng.chance(self.cfg.credit_starve_per_mille) {
            return None;
        }
        let cells = 1 + self.rng.below(64) as u32;
        let hold_us = 60 + self.rng.below(200);
        if !self.spend() {
            return None;
        }
        Some(CreditStarve {
            cells,
            hold: SimTime::from_us(hold_us as f64),
        })
    }

    /// Extra delay before the transmit-complete interrupt, if any.
    pub fn completion_delay(&mut self) -> Option<SimTime> {
        if !self.rng.chance(self.cfg.completion_delay_per_mille) {
            return None;
        }
        let us = 20 + self.rng.below(120);
        if !self.spend() {
            return None;
        }
        Some(SimTime::from_us(us as f64))
    }

    /// Decides whether a memory-pressure episode starts now.
    pub fn pressure(&mut self) -> Option<Pressure> {
        if !self.rng.chance(self.cfg.pressure_per_mille) {
            return None;
        }
        let host = (self.rng.next_u64() & 1) as usize;
        let hoard = 8 + self.rng.below(56) as usize;
        let hold_us = 100 + self.rng.below(400);
        let pageout = 2 + self.rng.below(14) as usize;
        if !self.spend() {
            return None;
        }
        Some(Pressure {
            host,
            hoard_frames: hoard,
            hold: SimTime::from_us(hold_us as f64),
            pageout_pages: pageout,
        })
    }

    /// Decides whether this output degrades from optimized to basic
    /// semantics (region cache / TCOW unavailable under pressure).
    pub fn degrade(&mut self) -> bool {
        self.rng.chance(self.cfg.degrade_per_mille) && self.spend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let mut p = FaultPlan::none();
        assert!(!p.active());
        for cells in [1usize, 10, 100] {
            let v = p.wire(cells);
            assert!(v.damage.is_none() && v.extra_delay.is_none());
        }
        assert!(p.credit_starve().is_none());
        assert!(p.completion_delay().is_none());
        assert!(p.pressure().is_none());
        assert!(!p.degrade());
    }

    #[test]
    fn same_seed_same_decisions() {
        let runs: Vec<Vec<String>> = (0..2)
            .map(|_| {
                let mut p = FaultPlan::seeded(99);
                (0..50)
                    .map(|i| {
                        format!(
                            "{:?}/{:?}/{:?}/{:?}/{}",
                            p.wire(4 + i % 7),
                            p.credit_starve().map(|c| c.cells),
                            p.completion_delay(),
                            p.pressure().map(|pr| (pr.host, pr.hoard_frames)),
                            p.degrade(),
                        )
                    })
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn masked_profile_disables_unmaskable_faults() {
        let cfg = FaultConfig::masked(7);
        assert!(cfg.active());
        assert_eq!(cfg.pressure_per_mille, 0);
        assert_eq!(cfg.degrade_per_mille, 0);
        assert_eq!(
            cfg.cell_loss_per_mille,
            FaultConfig::swarm(7).cell_loss_per_mille
        );
    }

    #[test]
    fn delay_only_profile_never_damages() {
        let cfg = FaultConfig::delay_only(11);
        assert!(cfg.active());
        assert_eq!(cfg.cell_loss_per_mille, 0);
        assert_eq!(cfg.cell_corrupt_per_mille, 0);
        assert_eq!(cfg.cell_swap_per_mille, 0);
        assert_eq!(cfg.credit_starve_per_mille, 0);
        assert_eq!(cfg.pressure_per_mille, 0);
        assert_eq!(cfg.degrade_per_mille, 0);
        let mut p = FaultPlan::new(cfg);
        let mut delays = 0;
        for _ in 0..200 {
            let v = p.wire(8);
            assert!(v.damage.is_none());
            if v.extra_delay.is_some() {
                delays += 1;
            }
            if p.completion_delay().is_some() {
                delays += 1;
            }
        }
        assert!(delays > 0, "delay profile should actually delay something");
    }

    #[test]
    fn budget_bounds_total_faults() {
        let mut cfg = FaultConfig::swarm(3);
        cfg.cell_loss_per_mille = 1000; // every PDU would lose a cell
        cfg.max_faults = 4;
        let mut p = FaultPlan::new(cfg);
        let fired = (0..100).filter(|_| p.wire(10).damage.is_some()).count();
        assert_eq!(fired, 4);
    }

    #[test]
    fn target_cell_hits_exactly_one_pdu() {
        let mut cfg = FaultConfig::none();
        cfg.target_cell = Some((2, 5));
        assert!(cfg.active());
        let mut p = FaultPlan::new(cfg);
        assert!(p.wire(8).damage.is_none());
        assert!(p.wire(8).damage.is_none());
        assert_eq!(p.wire(8).damage, Some(WireDamage::DropCell(5)));
        assert!(p.wire(8).damage.is_none());
    }

    #[test]
    fn target_cell_clamps_to_pdu_length() {
        let mut cfg = FaultConfig::none();
        cfg.target_cell = Some((0, 99));
        let mut p = FaultPlan::new(cfg);
        assert_eq!(p.wire(3).damage, Some(WireDamage::DropCell(2)));
    }
}
