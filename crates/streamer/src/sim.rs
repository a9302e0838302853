//! The scenario tick-simulation kernel: class-tagged transfers through the
//! [`AdmissionController`] front door onto pooled expander cards, priced by
//! [`PortContention`].
//!
//! Both contended-regime scenarios, [`crate::fleet`] and [`crate::objects`],
//! run on this one kernel; they differ only in the [`Shape`], the admission
//! configuration and the [`Load`]s they feed it. One run:
//!
//! 1. **Arrivals** — every transfer of every load draws a seeded arrival in
//!    the window (loads in order, transfers in order), then the population
//!    is stable-sorted by arrival.
//! 2. **Admission** — each tick submits the transfers that have arrived;
//!    an admitted transfer goes to service, a queued one waits for a later
//!    `poll` grant, a refused one is tallied with its rendered typed error.
//! 3. **Placement** — a granted transfer joins the card with the fewest
//!    same-direction sharers (ties broken by total requesters, then card
//!    index). Pooling makes this legal — a new allocation can land behind
//!    any port — and it keeps simultaneous admissions from stacking onto one
//!    card's ceiling.
//! 4. **Service** — processor sharing per card against the tick's snapshot
//!    of requesters: readers split the read ceiling, writers the write
//!    ceiling, and the arbitration shave applies to the card's total
//!    requester count.
//!
//! Latency = admission wait + service. Everything is virtual time and
//! seeded, so the same inputs reproduce bit-identical statistics.

use cxl_pmem::admission::{AdmissionController, Decision, QosClass};
use cxl_pmem::{ClusterError, RuntimeBuilder};
use memsim::PortContention;
use std::collections::HashMap;

/// Hard ceiling on simulated time — reaching it means transfers wedged.
const DEADLINE_S: f64 = 120.0;

/// What the scenarios set differently about a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Seed of the arrival-jitter generator.
    pub seed: u64,
    /// Pooled expander cards behind the switch (≥ 1).
    pub cards: usize,
    /// Arrival window every transfer lands in (virtual seconds).
    pub window_s: f64,
    /// Simulation tick (virtual seconds).
    pub tick_s: f64,
}

/// One class of offered load: `count` transfers of `bytes` each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Load {
    /// Name the reports give the load (`checkpoint`, `put_commit`, ...).
    pub name: &'static str,
    /// The QoS class the transfers travel as.
    pub class: QosClass,
    /// Transfers submitted.
    pub count: usize,
    /// Payload bytes per transfer.
    pub bytes: u64,
}

/// Latency distribution of one load through the front door.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// The load's report name.
    pub name: &'static str,
    /// The QoS class it travelled as.
    pub class: QosClass,
    /// Transfers submitted.
    pub submitted: usize,
    /// Transfers admitted (immediately or from the queue) and served.
    pub served: usize,
    /// Transfers rejected with a typed
    /// [`AdmissionError`](cxl_pmem::admission::AdmissionError).
    pub rejected: usize,
    /// Median end-to-end latency (ms; admission wait + service).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile latency (ms).
    pub p999_ms: f64,
    /// The load's uncontended latency: one transfer alone on an idle card,
    /// no queueing (ms).
    pub uncontended_ms: f64,
}

/// What one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// One entry per load, in load order.
    pub classes: Vec<ClassStats>,
    /// Distinct rendered admission rejections, in the order first seen.
    pub rejections: Vec<String>,
}

/// The contended port both scenarios price: the paper's Setup #1 CXL
/// expander (node 2).
pub fn expander_port() -> Result<PortContention, ClusterError> {
    RuntimeBuilder::setup1()
        .build()
        .engine()
        .port_contention(2)
        .map_err(|e| ClusterError::UnknownSegment(format!("contention model: {e}")))
}

/// Deterministic split-mix style generator for arrival jitter.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    /// Uniform f64 in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() % (1 << 24)) as f64 / (1 << 24) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Not yet arrived, or queued at admission.
    Waiting,
    /// In service on `card` with `remaining` payload bytes.
    Active { card: usize, remaining: f64 },
    /// Served; completion time (virtual seconds).
    Done(f64),
    /// Refused with a typed admission error.
    Rejected,
}

struct Transfer {
    /// Index into the run's loads.
    load: usize,
    arrival: f64,
    state: State,
}

/// Whether a class's traffic spends the port's write ceiling (checkpoints
/// and `put_commit`s stream state *into* the pool) or the read ceiling
/// (restores, gets and scrubs stream it back out).
fn is_write(class: QosClass) -> bool {
    class == QosClass::Checkpoint
}

/// Live per-card requester counts, maintained across ticks.
#[derive(Clone)]
struct Cards {
    readers: Vec<usize>,
    writers: Vec<usize>,
}

impl Cards {
    /// Least-loaded placement: joins and returns the card with the fewest
    /// same-direction sharers, ties broken by total requesters, then index.
    fn join(&mut self, write: bool) -> usize {
        let same = if write { &self.writers } else { &self.readers };
        let card = (0..same.len())
            .min_by_key(|&p| (same[p], self.readers[p] + self.writers[p], p))
            .expect("at least one card");
        self.sharers(write)[card] += 1;
        card
    }

    fn sharers(&mut self, write: bool) -> &mut [usize] {
        if write {
            &mut self.writers
        } else {
            &mut self.readers
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `loads` through `admission` onto `shape.cards` cards priced by
/// `port`, until every transfer is served or rejected.
pub fn run(
    shape: Shape,
    admission: &AdmissionController,
    port: &PortContention,
    loads: &[Load],
) -> Outcome {
    let mut rng = Lcg(shape.seed);
    let mut transfers = Vec::new();
    for (load, l) in loads.iter().enumerate() {
        for _ in 0..l.count {
            transfers.push(Transfer {
                load,
                arrival: rng.unit() * shape.window_s,
                state: State::Waiting,
            });
        }
    }
    transfers.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));

    let mut cards = Cards {
        readers: vec![0; shape.cards],
        writers: vec![0; shape.cards],
    };
    let activate = |t: &mut Transfer, cards: &mut Cards| {
        let l = &loads[t.load];
        t.state = State::Active {
            card: cards.join(is_write(l.class)),
            remaining: l.bytes as f64,
        };
    };
    // Ticket grant id -> transfer index, for queued admissions.
    let mut by_grant: HashMap<u64, usize> = HashMap::new();
    let mut rejections: Vec<String> = Vec::new();
    let mut next_arrival = 0usize;
    let mut open = transfers.len();
    let mut now = 0.0f64;
    while open > 0 {
        // Arrivals: submit to the admission front door.
        while next_arrival < transfers.len() && transfers[next_arrival].arrival <= now {
            let idx = next_arrival;
            next_arrival += 1;
            let l = &loads[transfers[idx].load];
            match admission.submit(l.class, l.bytes, now) {
                Ok(Decision::Admitted(_)) => activate(&mut transfers[idx], &mut cards),
                Ok(Decision::Queued(t)) => {
                    by_grant.insert(t.grant, idx);
                }
                Err(e) => {
                    transfers[idx].state = State::Rejected;
                    open -= 1;
                    let rendered = e.to_string();
                    if !rejections.contains(&rendered) {
                        rejections.push(rendered);
                    }
                }
            }
        }
        // Grants: queued work whose bucket refilled goes to service.
        for permit in admission.poll(now) {
            if let Some(idx) = by_grant.remove(&permit.grant) {
                activate(&mut transfers[idx], &mut cards);
            }
        }
        // Service: processor sharing per card against this tick's snapshot.
        let snapshot = cards.clone();
        for t in transfers.iter_mut() {
            let State::Active { card, remaining } = t.state else {
                continue;
            };
            let write = is_write(loads[t.load].class);
            let efficiency = port.efficiency(snapshot.readers[card] + snapshot.writers[card]);
            let gbs = if write {
                port.write_ceiling_gbs * efficiency / snapshot.writers[card] as f64
            } else {
                port.read_ceiling_gbs * efficiency / snapshot.readers[card] as f64
            };
            let needed = remaining / (gbs * 1e9);
            if needed <= shape.tick_s {
                t.state = State::Done(now + needed);
                open -= 1;
                cards.sharers(write)[card] -= 1;
            } else {
                t.state = State::Active {
                    card,
                    remaining: remaining - shape.tick_s * gbs * 1e9,
                };
            }
        }
        now += shape.tick_s;
        if now > DEADLINE_S {
            break; // wedged transfers surface as served < submitted
        }
    }

    let classes = loads
        .iter()
        .enumerate()
        .map(|(load, l)| {
            let mine: Vec<&Transfer> = transfers.iter().filter(|t| t.load == load).collect();
            let mut latencies: Vec<f64> = mine
                .iter()
                .filter_map(|t| match t.state {
                    State::Done(finish) => Some((finish - t.arrival) * 1e3),
                    _ => None,
                })
                .collect();
            latencies.sort_by(f64::total_cmp);
            let uncontended_ms = if is_write(l.class) {
                port.write_seconds(l.bytes, 1) * 1e3
            } else {
                port.read_seconds(l.bytes, 1) * 1e3
            };
            ClassStats {
                name: l.name,
                class: l.class,
                submitted: mine.len(),
                served: latencies.len(),
                rejected: mine.iter().filter(|t| t.state == State::Rejected).count(),
                p50_ms: percentile(&latencies, 0.50),
                p99_ms: percentile(&latencies, 0.99),
                p999_ms: percentile(&latencies, 0.999),
                uncontended_ms,
            }
        })
        .collect();
    Outcome {
        classes,
        rejections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pmem::admission::{AdmissionError, ClassConfig};

    const MIB: u64 = 1024 * 1024;

    fn open_class() -> ClassConfig {
        ClassConfig {
            rate_bytes_per_sec: 1e9,
            burst_bytes: 1024 * MIB,
            queue_depth: 8,
        }
    }

    #[test]
    fn a_lone_transfer_finishes_at_its_uncontended_latency() {
        // A zero window lands both transfers at t = 0; least-loaded placement
        // puts each alone on its own idle card.
        let shape = Shape {
            seed: 1,
            cards: 2,
            window_s: 0.0,
            tick_s: 0.0005,
        };
        let loads = [
            Load {
                name: "write",
                class: QosClass::Checkpoint,
                count: 1,
                bytes: 64 * MIB,
            },
            Load {
                name: "read",
                class: QosClass::Restore,
                count: 1,
                bytes: 64 * MIB,
            },
        ];
        let admission = AdmissionController::new([open_class(); 3]);
        let port = expander_port().unwrap();
        let outcome = run(shape, &admission, &port, &loads);
        for c in &outcome.classes {
            assert_eq!((c.submitted, c.served, c.rejected), (1, 1, 0), "{}", c.name);
            let rel = (c.p50_ms - c.uncontended_ms).abs() / c.uncontended_ms;
            assert!(
                rel < 1e-9,
                "{}: {} ms vs uncontended {} ms",
                c.name,
                c.p50_ms,
                c.uncontended_ms
            );
        }
        assert!(outcome.rejections.is_empty());
    }

    #[test]
    fn a_closed_class_is_rejected_in_full_with_an_empty_tally() {
        let shape = Shape {
            seed: 7,
            cards: 2,
            window_s: 0.01,
            tick_s: 0.0005,
        };
        let loads = [Load {
            name: "scan",
            class: QosClass::Background,
            count: 5,
            bytes: MIB,
        }];
        let admission =
            AdmissionController::new([open_class(), open_class(), ClassConfig::closed()]);
        let port = expander_port().unwrap();
        let outcome = run(shape, &admission, &port, &loads);
        let scan = &outcome.classes[0];
        // Nothing is lost: served + rejected == submitted, all of it refused.
        assert_eq!((scan.submitted, scan.served, scan.rejected), (5, 0, 5));
        assert_eq!((scan.p50_ms, scan.p99_ms, scan.p999_ms), (0.0, 0.0, 0.0));
        let closed = AdmissionError::ClassClosed {
            class: QosClass::Background,
        };
        assert_eq!(outcome.rejections, vec![closed.to_string()]);
    }
}
