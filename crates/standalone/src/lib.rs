//! The standalone single-router matching model (§5.1, Figures 8 and 9).
//!
//! "Our first model — what we call the standalone model — allows us to
//! evaluate the matching capabilities of MCM, PIM, PIM1, WFA, and SPAA in
//! a single 21364 router (just like a cache simulator would allow one to
//! evaluate the cache miss ratio without any timing information)."
//!
//! The model's assumptions, straight from the paper:
//!
//! * all arbitration algorithms take one cycle to execute;
//! * output-port occupancy is an external parameter: each output is
//!   independently busy with probability `occupancy` in each cycle
//!   (Figure 8 uses zero; Figure 9 sweeps {0, 0.25, 0.5, 0.75});
//! * 50% of the generated traffic is local, destined for the local memory
//!   controller and I/O ports; the rest targets the four network ports
//!   uniformly;
//! * the router is "loaded up with input packets" afresh for each of the
//!   averaged iterations: every buffer slot visible to the arbiters holds
//!   a packet with probability `load`, one arbitration pass runs, and the
//!   matches are counted ("the number of arbitration matches is averaged
//!   across 1000 iterations"). There is deliberately no queue carry-over
//!   between iterations — this isolates *matching capability* from
//!   queueing dynamics, which belong to the timing model;
//! * all algorithms obey the basic 21364 constraints — the Figure 5
//!   connection matrix and the ≤2-direction minimal-rectangle choice.
//!
//! Loads are normalized to the *MCM saturation load*, the offered load at
//! which MCM's match rate stops improving ([`find_mcm_saturation_load`]).

use arbitration::arbiter::ArbitrationInput;
pub use arbitration::catalogue::AlgoKind;
use arbitration::catalogue::WeightKind;
use arbitration::matrix::{ConnectionMatrix, RequestMatrix, WeightMatrix};
use arbitration::mwm;
use arbitration::ports::{OutputPort, NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS};
use simcore::SimRng;
use std::collections::VecDeque;

/// Standalone experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct StandaloneConfig {
    /// Probability that each visible buffer slot holds a packet when the
    /// router is loaded up for an iteration.
    pub load: f64,
    /// Probability that each output port is busy in a given iteration.
    pub occupancy: f64,
    /// Number of independent loaded-router iterations to average
    /// ("averaged across 1000 iterations").
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StandaloneConfig {
    fn default() -> Self {
        StandaloneConfig {
            load: 1.0,
            occupancy: 0.0,
            iterations: 1000,
            seed: 0x5a5a,
        }
    }
}

/// Buffer slots per input port loaded up for each iteration (§5.1: the
/// entry table exposes a bounded window to the arbiters, not all 316
/// buffers).
const SLOTS_PER_PORT: usize = 8;

/// How deep into a queue the arbiters look, and the origin of the age
/// plane (`SCAN_WINDOW - position`). Twice [`SLOTS_PER_PORT`], not equal
/// to it: a freshly loaded queue never reaches it, so it never hides a
/// packet, and the front-of-queue age 16 is baked into every iOCF weight
/// the committed figures were produced with.
const SCAN_WINDOW: usize = 16;

/// A waiting packet: its candidate output mask (respecting the ≤2-choice
/// minimal-rectangle rule for network destinations).
#[derive(Clone, Copy, Debug)]
struct WaitingPacket {
    outputs: u8,
}

/// The standalone router state: one queue per input port, shared by that
/// port's two read ports.
struct RouterState {
    queues: Vec<VecDeque<WaitingPacket>>,
    conn: ConnectionMatrix,
}

impl RouterState {
    fn new() -> Self {
        RouterState {
            queues: (0..8).map(|_| VecDeque::new()).collect(),
            conn: ConnectionMatrix::alpha_21364(),
        }
    }

    /// Generates one packet's candidate outputs per the §5.1 traffic:
    /// 50% local (MC/I-O ports), the rest uniform over the network ports.
    ///
    /// `reachable` is the union of the input port's two read-port wiring
    /// masks; a real router never receives a packet it cannot forward, so
    /// unreachable draws are re-rolled (e.g. I/O-destined traffic never
    /// arrives at a memory-controller input).
    fn generate(rng: &mut SimRng, reachable: u8) -> WaitingPacket {
        loop {
            let outputs = if rng.chance(0.5) {
                // Local: memory controllers and I/O. Responses may sink to
                // either MC port; I/O is a single choice.
                match rng.below(5) {
                    0 | 1 => (OutputPort::L0.mask() | OutputPort::L1.mask()) as u8,
                    2 => OutputPort::L0.mask() as u8,
                    3 => OutputPort::L1.mask() as u8,
                    _ => OutputPort::Io.mask() as u8,
                }
            } else {
                // Network: pick a distinct pair of torus directions when
                // the minimal rectangle has two productive ports (the
                // common case), otherwise one.
                let a = rng.below(4);
                if rng.chance(0.5) {
                    let b = (a + 1 + rng.below(3)) % 4;
                    (1u8 << a) | (1u8 << b)
                } else {
                    1u8 << a
                }
            };
            if outputs & reachable != 0 {
                return WaitingPacket { outputs };
            }
        }
    }

    /// Builds both arbitration views for this cycle.
    ///
    /// **Multi-nomination view** (MCM/PIM/WFA): each read port requests
    /// every free output any waiting packet (within the scan window)
    /// could use — these algorithms' matching strength comes precisely
    /// from seeing the whole choice set.
    ///
    /// **Single-nomination view** (SPAA/OPF): each input *port* nominates
    /// its oldest packet to one output, through whichever read port is
    /// wired for the chosen direction. Within one standalone cycle the
    /// pair's synchronization leaves no time for a second scan, so the
    /// pair contributes a single nomination — which is what makes SPAA's
    /// matching capability "more like OPF from Figure 2" (§3.3) and
    /// reproduces the paper's 36%/14% saturation gaps.
    fn arbitration_input(&self, free: u8, rng: &mut SimRng) -> ArbitrationInput {
        let mut req = RequestMatrix::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        let mut noms: Vec<Option<u8>> = vec![None; NUM_ARBITER_ROWS];
        for port in 0..8 {
            let q = &self.queues[port];
            // Request view: union over waiting packets, per read port.
            for rp in 0..2 {
                let row = port * 2 + rp;
                let wired = self.conn.row_mask(row) as u8 & free;
                let mut union = 0u8;
                for pkt in q.iter().take(SCAN_WINDOW) {
                    union |= pkt.outputs & wired;
                }
                req.set_row_mask(row, union as u32);
            }
            // Nomination view: the oldest packet satisfying the basic
            // constraints — the input arbiter skips packets whose outputs
            // are all busy ("selects the oldest packet, which satisfies
            // the basic constraints", §3) — one output, one row.
            let wired_union =
                (self.conn.row_mask(port * 2) | self.conn.row_mask(port * 2 + 1)) as u8 & free;
            let head = q
                .iter()
                .take(SCAN_WINDOW)
                .find(|pkt| pkt.outputs & wired_union != 0);
            if let Some(head) = head {
                let mask0 = head.outputs & (self.conn.row_mask(port * 2) as u8 & free);
                let mask1 = head.outputs & (self.conn.row_mask(port * 2 + 1) as u8 & free);
                let (row, mask) = match (mask0 != 0, mask1 != 0) {
                    (true, true) => {
                        // Either read port could carry it; split fairly.
                        if rng.chance(0.5) {
                            (port * 2, mask0)
                        } else {
                            (port * 2 + 1, mask1)
                        }
                    }
                    (true, false) => (port * 2, mask0),
                    (false, true) => (port * 2 + 1, mask1),
                    (false, false) => continue,
                };
                let pick = if mask.count_ones() == 1 {
                    mask.trailing_zeros() as u8
                } else {
                    rng.pick_bit(mask as u32) as u8
                };
                noms[row] = Some(pick);
            }
        }
        ArbitrationInput::new(req, noms)
    }

    /// Computes the two weight planes of the current queue state over a
    /// request matrix built by [`RouterState::arbitration_input`]:
    ///
    /// * **depth** of a requested `(row, col)` cell — how many packets in
    ///   the visible window could depart through it (the backlog iLQF
    ///   drains fastest by serving);
    /// * **age** — the queue seniority of the *oldest* such packet,
    ///   `window − position` so the front-of-queue packet scores highest
    ///   (the standalone model has no timestamps; queue position is its
    ///   arrival order).
    ///
    /// These are not the timing model's definitions (`router`'s window
    /// fill stamps depth = the candidate VC's waiting count and age = its
    /// eligibility age in core cycles) and cannot be: this model has one
    /// FIFO per port, reloaded every iteration, with neither VCs nor a
    /// clock to measure either against.
    ///
    /// Both are ≥ 1 on every requested cell (a request implies at least
    /// one usable packet) and draw no random numbers, so computing them
    /// beside every algorithm leaves existing results byte-identical.
    fn weight_planes(&self, req: &RequestMatrix) -> (WeightMatrix, WeightMatrix) {
        let mut depth = WeightMatrix::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        let mut age = WeightMatrix::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        for port in 0..8 {
            let q = &self.queues[port];
            for rp in 0..2 {
                let row = port * 2 + rp;
                let mut mask = req.row_mask(row);
                while mask != 0 {
                    let col = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let mut d = 0u32;
                    let mut a = 0u32;
                    for (pos, pkt) in q.iter().take(SCAN_WINDOW).enumerate() {
                        if pkt.outputs & (1 << col) != 0 {
                            d += 1;
                            if a == 0 {
                                a = (SCAN_WINDOW - pos) as u32;
                            }
                        }
                    }
                    depth.set(row, col, d);
                    age.set(row, col, a);
                }
            }
        }
        (depth, age)
    }

    /// Removes matched packets and returns how many packets actually
    /// left. For each granted (row, output) the oldest packet at that
    /// row's input port that can use the output departs. A grant that
    /// finds no packet (both read ports of a pair were matched on the
    /// strength of the *same* packet) is dropped — the §3.3 pair
    /// synchronization in miniature — so matches are counted in packets,
    /// never twice.
    fn commit(&mut self, matching: &arbitration::matching::Matching) -> u64 {
        let mut delivered = 0;
        for (row, col) in matching.pairs() {
            let port = row / 2;
            let q = &mut self.queues[port];
            if let Some(pos) = q.iter().position(|p| p.outputs & (1 << col) != 0) {
                q.remove(pos);
                delivered += 1;
            }
        }
        delivered
    }
}

/// Result of one standalone run.
#[derive(Clone, Copy, Debug)]
pub struct StandaloneResult {
    /// Mean matches per cycle — the Figures 8/9 y-axis.
    pub matches_per_cycle: f64,
    /// Mean matching weight per cycle on the **depth** plane (every
    /// algorithm is scored on the same plane so the columns compare;
    /// iOCF *schedules* on age but is scored here like everyone else).
    pub(crate) weight_per_cycle: f64,
    /// Mean exact maximum-weight-matching (Hungarian oracle) weight per
    /// cycle on the same depth plane. `weight_per_cycle /
    /// mwm_weight_per_cycle` is the optimality gap reported in fig08's
    /// extended table.
    pub(crate) mwm_weight_per_cycle: f64,
}

impl StandaloneResult {
    /// Achieved weight as a fraction of the exact optimum (1.0 when no
    /// weight was ever at stake).
    pub fn optimality_gap(&self) -> f64 {
        if self.mwm_weight_per_cycle == 0.0 {
            1.0
        } else {
            self.weight_per_cycle / self.mwm_weight_per_cycle
        }
    }
}

/// Runs the standalone model for one algorithm: independent loaded-router
/// iterations, one arbitration pass each.
pub fn run_standalone(kind: AlgoKind, cfg: &StandaloneConfig) -> StandaloneResult {
    let mut algo = kind.build(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
    let mut rng = SimRng::from_seed(cfg.seed);
    let mut state = RouterState::new();
    let mut matches = 0u64;
    let mut weight = 0u64;
    let mut mwm_weight = 0u64;
    for _ in 0..cfg.iterations {
        // Load the router up afresh.
        for port in 0..8 {
            state.queues[port].clear();
            let reachable =
                (state.conn.row_mask(port * 2) | state.conn.row_mask(port * 2 + 1)) as u8;
            for _ in 0..SLOTS_PER_PORT {
                if rng.chance(cfg.load) {
                    state.queues[port].push_back(RouterState::generate(&mut rng, reachable));
                }
            }
        }
        // Occupancy mask: each output busy with probability `occupancy`.
        let mut free = 0u8;
        for out in 0..NUM_OUTPUT_PORTS {
            if !rng.chance(cfg.occupancy) {
                free |= 1 << out;
            }
        }
        if free != 0 {
            let mut input = state.arbitration_input(free, &mut rng);
            // Weight instrumentation: planes and oracle solve draw no RNG
            // and unweighted algorithms never read `input.weights`, so the
            // existing algorithms' match counts stay byte-identical.
            let (depth, age) = state.weight_planes(&input.requests);
            let optimal = mwm::maximum_weight_matching(&input.requests, &depth);
            mwm_weight += depth.matching_weight(&optimal);
            // Every column is scored — and everyone but iOCF schedules —
            // on the depth plane.
            input.weights = Some(match kind.weight_kind() {
                Some(WeightKind::Age) => age,
                Some(WeightKind::Depth) | None => depth.clone(),
            });
            let m = algo.arbitrate(&input, &mut rng);
            weight += depth.matching_weight(&m);
            matches += state.commit(&m);
        }
    }
    StandaloneResult {
        matches_per_cycle: matches as f64 / cfg.iterations as f64,
        weight_per_cycle: weight as f64 / cfg.iterations as f64,
        mwm_weight_per_cycle: mwm_weight as f64 / cfg.iterations as f64,
    }
}

/// Finds the load at which MCM's match rate saturates: the smallest load
/// on the grid whose match rate is within `tolerance` of the rate at full
/// load. Figures 8 and 9 normalize their x-axes to this load.
pub fn find_mcm_saturation_load(cfg: &StandaloneConfig, tolerance: f64) -> f64 {
    let at = |load: f64| {
        let mut c = *cfg;
        c.load = load;
        run_standalone(AlgoKind::Mcm, &c).matches_per_cycle
    };
    let full = at(1.0);
    let mut lo = 0.01;
    let mut hi = 1.0;
    for _ in 0..20 {
        let mid = 0.5 * (lo + hi);
        if at(mid) >= full - tolerance {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(load: f64, occupancy: f64) -> StandaloneConfig {
        StandaloneConfig {
            load,
            occupancy,
            iterations: 3000,
            ..Default::default()
        }
    }

    #[test]
    fn mcm_dominates_everyone_at_full_load() {
        let c = cfg(1.0, 0.0);
        let mcm = run_standalone(AlgoKind::Mcm, &c).matches_per_cycle;
        for kind in [AlgoKind::Wfa, AlgoKind::Pim, AlgoKind::Pim1, AlgoKind::Spaa] {
            let m = run_standalone(kind, &c).matches_per_cycle;
            assert!(mcm >= m, "{}: {m:.3} vs MCM {mcm:.3}", kind.label());
        }
        // At full load the upper bound should approach the 7-output
        // ceiling ("the number of matches found by MCM is usually very
        // close to the maximum, i.e., seven").
        assert!(mcm > 6.0, "MCM at full load: {mcm:.2}");
    }

    #[test]
    fn figure8_ordering_at_saturation() {
        // §5.1: "the number of matches found by WFA and PIM are almost
        // close to that found by MCM. PIM1 does slightly worse and SPAA
        // is the worst."
        let c = cfg(1.0, 0.0);
        let mcm = run_standalone(AlgoKind::Mcm, &c).matches_per_cycle;
        let wfa = run_standalone(AlgoKind::Wfa, &c).matches_per_cycle;
        let pim = run_standalone(AlgoKind::Pim, &c).matches_per_cycle;
        let pim1 = run_standalone(AlgoKind::Pim1, &c).matches_per_cycle;
        let spaa = run_standalone(AlgoKind::Spaa, &c).matches_per_cycle;
        assert!(wfa > pim1, "WFA {wfa:.2} vs PIM1 {pim1:.2}");
        assert!(pim > pim1, "PIM {pim:.2} vs PIM1 {pim1:.2}");
        assert!(pim1 > spaa, "PIM1 {pim1:.2} vs SPAA {spaa:.2}");
        assert!(mcm - wfa < 0.55, "WFA close to MCM: {wfa:.2} vs {mcm:.2}");
        // "the number of matches found by MCM, WFA, and PIM are 36%
        // higher than that found by SPAA" — expect a gap in that region.
        let gap = mcm / spaa;
        assert!((1.15..1.75).contains(&gap), "MCM/SPAA ratio {gap:.2}");
        // "PIM1's number of matches is 14% higher than SPAA's".
        let gap1 = pim1 / spaa;
        assert!((1.02..1.40).contains(&gap1), "PIM1/SPAA ratio {gap1:.2}");
    }

    #[test]
    fn occupancy_erases_the_differences() {
        // Figure 9: at 75% output occupancy the algorithms converge.
        let c75 = cfg(1.0, 0.75);
        let mcm = run_standalone(AlgoKind::Mcm, &c75).matches_per_cycle;
        let spaa = run_standalone(AlgoKind::Spaa, &c75).matches_per_cycle;
        let rel = (mcm - spaa) / mcm;
        assert!(
            rel < 0.10,
            "at 75% occupancy SPAA must be within 10% of MCM (gap {rel:.2})"
        );
        // And matches scale down roughly with free outputs.
        let m0 = run_standalone(AlgoKind::Mcm, &cfg(1.0, 0.0)).matches_per_cycle;
        assert!(
            mcm < 0.45 * m0,
            "75% busy leaves ~25% matches ({mcm:.2} vs {m0:.2})"
        );
    }

    #[test]
    fn matches_grow_with_load() {
        let lo = run_standalone(AlgoKind::Mcm, &cfg(0.1, 0.0)).matches_per_cycle;
        let hi = run_standalone(AlgoKind::Mcm, &cfg(0.8, 0.0)).matches_per_cycle;
        assert!(hi > lo * 1.5, "lo {lo:.2} hi {hi:.2}");
    }

    #[test]
    fn low_load_matches_track_loading() {
        // At light load packets rarely conflict, so matches track the
        // loaded population: 8 ports × 8 slots × load ≈ 0.64 packets,
        // almost all matched (a port pair can serve two at once).
        let c = cfg(0.01, 0.0);
        let loaded = (8 * SLOTS_PER_PORT) as f64 * c.load;
        for kind in [AlgoKind::Mcm, AlgoKind::Wfa, AlgoKind::Spaa] {
            let r = run_standalone(kind, &c);
            let per_loaded = r.matches_per_cycle / loaded;
            assert!(
                per_loaded > 0.85,
                "{}: matched only {per_loaded:.2} of loaded packets",
                kind.label()
            );
        }
    }

    #[test]
    fn saturation_load_is_found_and_stable() {
        let base = StandaloneConfig {
            iterations: 800,
            ..Default::default()
        };
        let sat = find_mcm_saturation_load(&base, 0.1);
        assert!((0.0..=1.0).contains(&sat));
        // MCM at the saturation load is close to MCM at full load.
        let mut c = base;
        c.load = sat;
        let at_sat = run_standalone(AlgoKind::Mcm, &c).matches_per_cycle;
        let full = run_standalone(AlgoKind::Mcm, &base).matches_per_cycle;
        assert!(full - at_sat <= 0.35, "sat {at_sat:.2} vs full {full:.2}");
    }

    #[test]
    fn extended_set_covers_islip_family() {
        let labels: Vec<&str> = AlgoKind::EXTENDED.iter().map(|k| k.label()).collect();
        for want in ["iSLIP1", "iSLIP2", "iSLIP3", "RR"] {
            assert!(labels.contains(&want), "missing {want} in {labels:?}");
        }
        // The original nine keep their positions; the weighted family is
        // appended after them.
        assert_eq!(&labels[9..], ["iLQF1", "iLQF2", "iOCF1", "MWM"]);
    }

    #[test]
    fn mwm_weight_dominates_every_algorithm() {
        // The oracle column must upper-bound every achieved-weight column
        // at every load — that is the whole point of the gap table.
        for load in [0.2, 1.0] {
            let c = cfg(load, 0.0);
            for kind in AlgoKind::EXTENDED {
                let r = run_standalone(kind, &c);
                assert!(
                    r.weight_per_cycle <= r.mwm_weight_per_cycle + 1e-9,
                    "{} at load {load}: {:.3} above the oracle {:.3}",
                    kind.label(),
                    r.weight_per_cycle,
                    r.mwm_weight_per_cycle
                );
                let gap = r.optimality_gap();
                assert!((0.0..=1.0 + 1e-9).contains(&gap), "gap {gap}");
            }
        }
    }

    #[test]
    fn mwm_achieves_its_own_bound() {
        // Scheduling with the oracle itself closes the gap exactly.
        let r = run_standalone(AlgoKind::Mwm, &cfg(1.0, 0.0));
        assert!(
            (r.optimality_gap() - 1.0).abs() < 1e-12,
            "MWM gap {:.6}",
            r.optimality_gap()
        );
        assert!(r.mwm_weight_per_cycle > 0.0);
    }

    #[test]
    fn ilqf_outweighs_islip_at_saturation() {
        // iLQF exists to chase weight; at full load it must collect more
        // depth-weight than the unweighted iterative matcher with the
        // same iteration count, and sit close to the oracle.
        let c = cfg(1.0, 0.0);
        let ilqf = run_standalone(AlgoKind::Ilqf { iterations: 1 }, &c);
        let islip = run_standalone(AlgoKind::Islip { iterations: 1 }, &c);
        assert!(
            ilqf.weight_per_cycle > islip.weight_per_cycle,
            "iLQF1 {:.2} vs iSLIP1 {:.2}",
            ilqf.weight_per_cycle,
            islip.weight_per_cycle
        );
        assert!(
            ilqf.optimality_gap() > 0.8,
            "iLQF1 gap {:.3}",
            ilqf.optimality_gap()
        );
    }

    #[test]
    fn weighted_results_are_deterministic() {
        let c = cfg(0.7, 0.25);
        for kind in [
            AlgoKind::Ilqf { iterations: 2 },
            AlgoKind::Iocf { iterations: 1 },
            AlgoKind::Mwm,
        ] {
            let a = run_standalone(kind, &c);
            let b = run_standalone(kind, &c);
            assert_eq!(a.matches_per_cycle.to_bits(), b.matches_per_cycle.to_bits());
            assert_eq!(a.weight_per_cycle.to_bits(), b.weight_per_cycle.to_bits());
            assert_eq!(
                a.mwm_weight_per_cycle.to_bits(),
                b.mwm_weight_per_cycle.to_bits()
            );
        }
    }

    #[test]
    fn islip_matching_quality_sits_between_rr_and_mcm() {
        // iSLIP's pointer desynchronization needs persistent queues to
        // shine; in the standalone model's independent iterations it
        // behaves like a deterministic PIM. Bound it loosely: every
        // family member must stay under MCM, and more iterations must not
        // reduce matches.
        let c = cfg(1.0, 0.0);
        let mcm = run_standalone(AlgoKind::Mcm, &c).matches_per_cycle;
        let i1 = run_standalone(AlgoKind::Islip { iterations: 1 }, &c).matches_per_cycle;
        let i2 = run_standalone(AlgoKind::Islip { iterations: 2 }, &c).matches_per_cycle;
        let i3 = run_standalone(AlgoKind::Islip { iterations: 3 }, &c).matches_per_cycle;
        let rr = run_standalone(AlgoKind::RoundRobin, &c).matches_per_cycle;
        assert!(mcm >= i3 && mcm >= rr, "MCM must dominate: {mcm} {i3} {rr}");
        assert!(i2 >= i1 - 0.05, "iSLIP2 {i2} below iSLIP1 {i1}");
        assert!(i3 >= i2 - 0.05, "iSLIP3 {i3} below iSLIP2 {i2}");
        assert!(i3 > i1, "iterations must add matches at full load");
    }

    #[test]
    fn results_are_deterministic() {
        let c = cfg(0.7, 0.25);
        let a = run_standalone(AlgoKind::Pim1, &c).matches_per_cycle;
        let b = run_standalone(AlgoKind::Pim1, &c).matches_per_cycle;
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn full_occupancy_means_no_matches() {
        let r = run_standalone(
            AlgoKind::Mcm,
            &StandaloneConfig {
                load: 1.0,
                occupancy: 1.0,
                iterations: 500,
                ..Default::default()
            },
        );
        assert_eq!(r.matches_per_cycle, 0.0);
    }
}
