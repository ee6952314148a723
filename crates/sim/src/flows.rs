//! Finite-flow workloads for the packet engine.
//!
//! Open-loop runs inject at a fixed rate `λ` forever. A [`FlowWorkload`]
//! offers **finite flows** instead: each traffic pair carries a sequence of
//! flows — arrivals drawn from a Poisson or deterministic process, sizes
//! from a fixed or elephant/mice mix — and every flow pushes its packets
//! through a per-flow FIFO with a window limit, so flow-completion time
//! (FCT) and per-packet delay become first-class measurements. Run one
//! through [`PacketEngine::run`](crate::PacketEngine::run) with
//! [`PacketRun::flows`](crate::PacketRun::flows).
//!
//! Workload randomness comes from counter-based [`FlowRng`] streams keyed
//! by `(workload seed, pair)`, independent of the mobility RNG — so the
//! same workload can be replayed against any mobility draw, and
//! replications stay bit-identical at any thread count.

use crate::events::{FlowRng, Time};
use crate::packet::RunCounts;
use hycap_errors::HycapError;
use rand::Rng;

/// How flows arrive on each traffic pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` flows per slot per pair (exponential
    /// inter-arrival times, floored to slot indices).
    Poisson {
        /// Mean arrivals per slot per pair (must be non-negative and
        /// finite; 0 generates no flows).
        rate: f64,
    },
    /// One flow every `interval` slots per pair, starting at slot 0.
    Deterministic {
        /// Slots between consecutive arrivals (must be ≥ 1).
        interval: u64,
    },
}

/// How many packets each flow carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizes {
    /// Every flow carries exactly `packets` packets.
    Fixed {
        /// Packets per flow (must be ≥ 1).
        packets: u64,
    },
    /// A two-point elephant/mice mix: with probability `elephant_frac` a
    /// flow carries `elephants` packets, otherwise `mice`.
    ElephantMice {
        /// Packets in a mouse flow (must be ≥ 1).
        mice: u64,
        /// Packets in an elephant flow (must be ≥ 1).
        elephants: u64,
        /// Probability a flow is an elephant (must be in `[0, 1]`).
        elephant_frac: f64,
    },
}

impl FlowSizes {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            FlowSizes::Fixed { packets } => packets,
            FlowSizes::ElephantMice {
                mice,
                elephants,
                elephant_frac,
            } => {
                let u: f64 = rng.gen();
                if u < elephant_frac {
                    elephants
                } else {
                    mice
                }
            }
        }
    }
}

/// A finite-flow workload: arrival process, size distribution, per-flow
/// window limit and run horizon, all derived from one workload seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowWorkload {
    /// Flow arrival process per traffic pair.
    pub arrivals: ArrivalProcess,
    /// Flow size distribution.
    pub sizes: FlowSizes,
    /// Maximum packets of one flow in the network at once (admission is
    /// FIFO: the next packet enters when one is delivered; must be ≥ 1).
    pub window: u64,
    /// Slots to simulate (arrivals beyond the horizon are not generated;
    /// must be ≥ 1).
    pub horizon: usize,
    /// Workload seed: flow `i` of pair `p` is sampled from
    /// `FlowRng::new(seed, p)`, independent of the mobility RNG.
    pub seed: u64,
}

impl FlowWorkload {
    /// A Poisson workload with fixed-size flows and the default window (8).
    pub fn poisson(rate: f64, packets: u64, horizon: usize) -> Self {
        FlowWorkload {
            arrivals: ArrivalProcess::Poisson { rate },
            sizes: FlowSizes::Fixed { packets },
            window: 8,
            horizon,
            seed: 0,
        }
    }

    /// A deterministic workload (one flow per `interval` slots) with
    /// fixed-size flows and the default window (8).
    pub fn deterministic(interval: u64, packets: u64, horizon: usize) -> Self {
        FlowWorkload {
            arrivals: ArrivalProcess::Deterministic { interval },
            sizes: FlowSizes::Fixed { packets },
            window: 8,
            horizon,
            seed: 0,
        }
    }

    /// Replaces the size distribution.
    pub fn with_sizes(mut self, sizes: FlowSizes) -> Self {
        self.sizes = sizes;
        self
    }

    /// Replaces the per-flow window limit.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Replaces the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), HycapError> {
        if self.horizon == 0 {
            return Err(HycapError::invalid("horizon", "need at least one slot"));
        }
        if self.window == 0 {
            return Err(HycapError::invalid(
                "window",
                "flow window must be at least 1",
            ));
        }
        match self.arrivals {
            ArrivalProcess::Poisson { rate } => {
                if !(rate >= 0.0 && rate.is_finite()) {
                    return Err(HycapError::invalid(
                        "rate",
                        format!("arrival rate must be non-negative and finite, got {rate}"),
                    ));
                }
            }
            ArrivalProcess::Deterministic { interval } => {
                if interval == 0 {
                    return Err(HycapError::invalid(
                        "interval",
                        "arrival interval must be at least 1 slot",
                    ));
                }
            }
        }
        match self.sizes {
            FlowSizes::Fixed { packets } => {
                if packets == 0 {
                    return Err(HycapError::invalid(
                        "packets",
                        "flows must carry at least one packet",
                    ));
                }
            }
            FlowSizes::ElephantMice {
                mice,
                elephants,
                elephant_frac,
            } => {
                if mice == 0 || elephants == 0 {
                    return Err(HycapError::invalid(
                        "packets",
                        "mice and elephant sizes must be at least one packet",
                    ));
                }
                if !(0.0..=1.0).contains(&elephant_frac) || elephant_frac.is_nan() {
                    return Err(HycapError::invalid(
                        "elephant_frac",
                        format!("elephant fraction must be in [0, 1], got {elephant_frac}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Generates the flow instances for `pairs` traffic pairs, in pair
    /// order (pair 0's flows first, by arrival). Flow `i` of pair `p` draws
    /// from `FlowRng::new(self.seed, p)` only, so the spec list is a pure
    /// function of `(self, pairs)`.
    ///
    /// Call [`FlowWorkload::validate`] first; the engine does.
    pub fn specs(&self, pairs: usize) -> Vec<FlowSpec> {
        let mut specs = Vec::new();
        let horizon = self.horizon as f64;
        for p in 0..pairs {
            let mut rng = FlowRng::new(self.seed, p as u64);
            match self.arrivals {
                ArrivalProcess::Poisson { rate } => {
                    if rate <= 0.0 {
                        continue;
                    }
                    let mut t = 0.0f64;
                    loop {
                        let u: f64 = rng.gen();
                        t += -(1.0 - u).ln() / rate;
                        if t >= horizon {
                            break;
                        }
                        let size = self.sizes.sample(&mut rng);
                        specs.push(FlowSpec {
                            pair: p,
                            arrival: t as Time,
                            size,
                        });
                    }
                }
                ArrivalProcess::Deterministic { interval } => {
                    let mut t = 0u64;
                    while (t as usize) < self.horizon {
                        let size = self.sizes.sample(&mut rng);
                        specs.push(FlowSpec {
                            pair: p,
                            arrival: t,
                            size,
                        });
                        t += interval;
                    }
                }
            }
        }
        specs
    }
}

/// One generated flow instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// The traffic pair (route) the flow rides.
    pub pair: usize,
    /// Arrival slot.
    pub arrival: Time,
    /// Packets the flow carries.
    pub size: u64,
}

/// Statistics of one flow-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRunStats {
    /// Flows that arrived during the run.
    pub flows_started: u64,
    /// Flows whose last packet was delivered.
    pub flows_completed: u64,
    /// Packets admitted into the network (window-gated).
    pub packets_injected: u64,
    /// Packets delivered end to end.
    pub packets_delivered: u64,
    /// Packets still buffered at the end of the run.
    pub backlog: u64,
    /// Mean flow-completion time in slots over completed flows (0 when
    /// nothing completed).
    pub mean_fct: f64,
    /// Median FCT in slots (nearest-rank; `None` when nothing completed,
    /// so an idle run cannot masquerade as a 0-slot FCT).
    pub fct_p50: Option<f64>,
    /// 99th-percentile FCT in slots (nearest-rank; `None` when nothing
    /// completed).
    pub fct_p99: Option<f64>,
    /// Mean per-packet delay in slots over delivered packets (0 when
    /// nothing was delivered).
    pub mean_delay: f64,
    /// Slots simulated.
    pub slots: usize,
    /// Events drained from the queue (the bench's events/sec numerator).
    pub events: u64,
}

impl FlowRunStats {
    /// Fraction of started flows that completed (1.0 for an idle run).
    pub fn completion_ratio(&self) -> f64 {
        if self.flows_started == 0 {
            1.0
        } else {
            self.flows_completed as f64 / self.flows_started as f64
        }
    }

    pub(crate) fn from_run(counts: RunCounts, fcts: &mut [u64], slots: usize, events: u64) -> Self {
        fcts.sort_unstable();
        let done = !fcts.is_empty();
        FlowRunStats {
            flows_started: counts.flows_started,
            flows_completed: fcts.len() as u64,
            packets_injected: counts.injected,
            packets_delivered: counts.delivered,
            backlog: counts.injected - counts.delivered,
            mean_fct: mean(fcts.iter().sum(), fcts.len() as u64),
            fct_p50: done.then(|| percentile(fcts, 0.50)),
            fct_p99: done.then(|| percentile(fcts, 0.99)),
            mean_delay: mean(counts.delay_sum, counts.delivered),
            slots,
            events,
        }
    }
}

/// `sum / count`, or 0 for an empty sample (never NaN).
pub(crate) fn mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Nearest-rank percentile of a non-empty ascending-sorted sample.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_validation_catches_bad_fields() {
        let bad = [
            FlowWorkload::poisson(0.01, 4, 0),
            FlowWorkload::poisson(0.01, 4, 100).with_window(0),
            FlowWorkload::poisson(-0.5, 4, 100),
            FlowWorkload::poisson(f64::NAN, 4, 100),
            FlowWorkload::deterministic(0, 4, 100),
            FlowWorkload::poisson(0.01, 0, 100),
            FlowWorkload::poisson(0.01, 4, 100).with_sizes(FlowSizes::ElephantMice {
                mice: 1,
                elephants: 0,
                elephant_frac: 0.1,
            }),
            FlowWorkload::poisson(0.01, 4, 100).with_sizes(FlowSizes::ElephantMice {
                mice: 1,
                elephants: 10,
                elephant_frac: 1.5,
            }),
        ];
        for w in bad {
            assert!(
                matches!(w.validate(), Err(HycapError::InvalidParameter { .. })),
                "{w:?} should be invalid"
            );
        }
        assert!(FlowWorkload::poisson(0.01, 4, 100).validate().is_ok());
    }

    #[test]
    fn specs_are_deterministic_and_sized() {
        let w = FlowWorkload::poisson(0.02, 3, 500).with_seed(7);
        let a = w.specs(20);
        let b = w.specs(20);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|s| (s.arrival as usize) < 500 && s.size == 3));
        // Roughly rate * horizon * pairs arrivals.
        let expect = 0.02 * 500.0 * 20.0;
        assert!(
            (a.len() as f64) > 0.4 * expect && (a.len() as f64) < 2.5 * expect,
            "{} arrivals vs expected ~{expect}",
            a.len()
        );
    }

    #[test]
    fn deterministic_specs_hit_every_interval() {
        let w = FlowWorkload::deterministic(25, 2, 100);
        let specs = w.specs(3);
        assert_eq!(specs.len(), 12); // 4 arrivals per pair
        assert_eq!(specs[0].arrival, 0);
        assert_eq!(specs[3].arrival, 75);
    }
}
