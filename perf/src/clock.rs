//! Host seconds at a nominal core clock.
//!
//! This host's core clock is not constant: with the socket quiet a core
//! turbos, and as other tenants load the socket it drops by 20–40 % for
//! seconds to minutes at a time, so the wall time of bit-identical work
//! moves by as much (NOISE.md). That movement says nothing about the code
//! under test, and no amount of repetition inside one run averages it out.
//!
//! So the clock is measured while the work runs. [`Probe::run`] times a
//! fixed chain of dependent integer operations — no memory, no branches to
//! mispredict, nothing a code change in the simulator can touch — whose
//! duration is inversely proportional to the core clock. The measured
//! work is cut into slices of about a millisecond with one probe after
//! each, and every slice's wall time is multiplied by `nominal probe time
//! / measured probe time` ([`nominal`]): the seconds the slice would have
//! taken had the clock stayed at the nominal rate.
//!
//! What the probe cannot see — neighbours competing for the shared cache
//! and memory bandwidth, which only ever adds time — is left to
//! `stats::best_composite`: the fastest execution of each segment of the
//! run across repetitions.

use std::hint::black_box;
use std::time::Instant;

/// Dependent xorshift steps per probe: about 90 µs, long against the
/// clock's 1 µs resolution and short against a slice.
const CHAIN_STEPS: u64 = 60_000;

/// Seconds one probe takes at the nominal clock: the fastest this host
/// was ever seen to run it (1.43 ns per step). The choice only fixes the
/// unit — both sides of any comparison are scaled by it alike — so it is
/// a constant rather than a per-run minimum a busy run might never reach.
const NOMINAL_PROBE_S: f64 = 86.0e-6;

/// The clock-rate probe.
pub struct Probe {
    state: u64,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Runs the chain once and returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = black_box(self.state);
        for _ in 0..CHAIN_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.state = black_box(x);
        start.elapsed().as_secs_f64()
    }
}

/// `wall_s` of work at the clock rate a neighbouring probe measured,
/// expressed in seconds at the nominal clock.
pub fn nominal(wall_s: f64, probe_s: f64) -> f64 {
    wall_s * NOMINAL_PROBE_S / probe_s
}

/// Totals over some work measured in slices, one probe after each.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub wall_s: f64,
    /// Sum of the slices' [`nominal`] seconds.
    pub nominal_s: f64,
    probe_s: f64,
    probes: u64,
}

impl Timed {
    /// Adds one slice of work and the probe that followed it; returns the
    /// slice's nominal seconds.
    pub fn add(&mut self, wall_s: f64, probe_s: f64) -> f64 {
        let nominal_s = nominal(wall_s, probe_s);
        self.wall_s += wall_s;
        self.nominal_s += nominal_s;
        self.probe_s += probe_s;
        self.probes += 1;
        nominal_s
    }

    /// How much slower than nominal the core clock ran, on average, while
    /// this work was measured (1.0 = nominal).
    pub fn slowdown(&self) -> f64 {
        self.probe_s / (self.probes as f64 * NOMINAL_PROBE_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_time_divides_out_the_measured_slowdown() {
        let mut t = Timed::default();
        assert!((t.add(1.0, 2.0 * NOMINAL_PROBE_S) - 0.5).abs() < 1e-12);
        t.add(2.0, 1.0 * NOMINAL_PROBE_S);
        assert!((t.slowdown() - 1.5).abs() < 1e-12);
        assert!((t.nominal_s - 2.5).abs() < 1e-12);
        assert_eq!(t.wall_s, 3.0);
    }

    #[test]
    fn probe_does_the_same_work_every_time_and_keeps_its_chain_alive() {
        let mut p = Probe::new();
        let before = p.state;
        assert!(p.run() > 0.0);
        assert_ne!(p.state, before, "the chain was optimised away");
    }
}
