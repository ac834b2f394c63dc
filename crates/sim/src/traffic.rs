//! Stochastic packet arrival processes.
//!
//! §3.1: "For our application domain of packet processing, the writes happen
//! when packets arrive from a network and are probabilistic in nature."
//! These sources model that arrival process for the simulator's network
//! interfaces — Bernoulli per-cycle arrivals (the discrete-time analogue of
//! Poisson traffic) and fixed-period arrivals for deterministic baselines.

use memsync_trace::Pcg32;

/// A source of message arrivals, polled once per cycle.
///
/// `Send` so a [`crate::System`] owning attached sources can move onto a
/// worker thread (the serve crate's shard backends run on whichever
/// thread runs the shard's activation).
pub trait ArrivalProcess: Send {
    /// Returns the message payload if one arrives this cycle.
    fn poll(&mut self, cycle: u64) -> Option<i64>;
}

impl std::fmt::Debug for dyn ArrivalProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ArrivalProcess")
    }
}

/// Bernoulli arrivals: each cycle a packet arrives with probability `p`.
#[derive(Debug, Clone)]
pub struct BernoulliSource {
    rng: Pcg32,
    p: f64,
    next_payload: i64,
}

impl BernoulliSource {
    /// Creates a seeded source with per-cycle arrival probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn new(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        BernoulliSource {
            rng: Pcg32::seed_from_u64(seed),
            p,
            next_payload: 1,
        }
    }
}

impl ArrivalProcess for BernoulliSource {
    fn poll(&mut self, _cycle: u64) -> Option<i64> {
        if self.rng.gen_bool(self.p) {
            let v = self.next_payload;
            self.next_payload = self.next_payload.wrapping_add(1);
            Some(v)
        } else {
            None
        }
    }
}

/// Deterministic arrivals every `period` cycles (first at `phase`).
#[derive(Debug, Clone)]
pub struct PeriodicSource {
    period: u64,
    phase: u64,
    next_payload: i64,
}

impl PeriodicSource {
    /// Creates a periodic source.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, phase: u64) -> Self {
        assert!(period > 0, "period must be positive");
        PeriodicSource {
            period,
            phase,
            next_payload: 1,
        }
    }
}

impl ArrivalProcess for PeriodicSource {
    fn poll(&mut self, cycle: u64) -> Option<i64> {
        if cycle >= self.phase && (cycle - self.phase).is_multiple_of(self.period) {
            let v = self.next_payload;
            self.next_payload = self.next_payload.wrapping_add(1);
            Some(v)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_is_seed_deterministic() {
        let mut a = BernoulliSource::new(7, 0.5);
        let mut b = BernoulliSource::new(7, 0.5);
        for cycle in 0..200 {
            assert_eq!(a.poll(cycle), b.poll(cycle));
        }
    }

    #[test]
    fn bernoulli_rate_approximates_p() {
        let mut s = BernoulliSource::new(42, 0.3);
        let arrivals = (0..10_000).filter(|&c| s.poll(c).is_some()).count();
        let rate = arrivals as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn bernoulli_payloads_increment() {
        let mut s = BernoulliSource::new(1, 1.0);
        assert_eq!(s.poll(0), Some(1));
        assert_eq!(s.poll(1), Some(2));
    }

    #[test]
    fn periodic_fires_on_schedule() {
        let mut s = PeriodicSource::new(5, 2);
        let fired: Vec<u64> = (0..20).filter(|&c| s.poll(c).is_some()).collect();
        assert_eq!(fired, vec![2, 7, 12, 17]);
    }

    #[test]
    fn zero_probability_never_fires() {
        let mut s = BernoulliSource::new(3, 0.0);
        assert!((0..100).all(|c| s.poll(c).is_none()));
    }
}
