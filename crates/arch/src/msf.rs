//! Magic-state factory model.
//!
//! The paper uses Litinski's factory design: a single factory distills one magic
//! state every 15 code beats, and generated states are buffered (buffer capacity
//! `2 × factories`) so that production can run ahead of consumption and hide its
//! latency (Sec. IV-A, VI-A). With one factory the supply rate (1/15 per beat) is
//! far below the demand of the arithmetic benchmarks (one per ≈2 beats for the
//! multiplier), which is precisely the bottleneck LSQCA hides its load/store
//! latency behind.

use lsqca_lattice::Beats;
use std::fmt;

/// Static configuration of the magic-state supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsfConfig {
    /// Number of factories distilling in parallel.
    pub factories: u32,
    /// Beats needed by one factory to distill one state (15 in the paper).
    pub beats_per_state: u64,
    /// Capacity of the shared output buffer (`2 × factories` in the paper).
    pub buffer_capacity: u32,
}

impl MsfConfig {
    /// The paper's configuration for a given factory count.
    pub fn paper(factories: u32) -> Self {
        assert!(factories > 0, "at least one factory is required");
        MsfConfig {
            factories,
            beats_per_state: 15,
            buffer_capacity: 2 * factories,
        }
    }

    /// Average steady-state production rate in states per beat.
    pub fn production_rate(&self) -> f64 {
        self.factories as f64 / self.beats_per_state as f64
    }
}

impl fmt::Display for MsfConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} factories, 1 state / {} beats each, buffer {}",
            self.factories, self.beats_per_state, self.buffer_capacity
        )
    }
}

/// Stateful magic-state supply used by the simulator.
///
/// Model: each factory distills continuously; a finished state either enters the
/// shared buffer (if a slot is free) or is held in the factory's output port,
/// blocking that factory from starting its next distillation until the state is
/// delivered. States are consumed strictly in production order. Consequently the
/// sustained supply rate is `factories / beats_per_state` and the maximum
/// run-ahead is `buffer_capacity` buffered states plus one held state per
/// factory.
///
/// A `PM` instruction asks [`MagicStateSupply::acquire`] for the earliest beat at
/// which a state is available; the state is consumed at that beat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MagicStateSupply {
    config: MsfConfig,
    /// Delivery times of the last `factories` states (oldest first): a factory is
    /// free to start a new distillation once it has delivered its previous state.
    recent_deliveries: Window,
    /// Consumption times of the last `buffer_capacity` states (oldest first): a
    /// completed state can be delivered only once a buffer slot is free, i.e.
    /// once the state `buffer_capacity` places earlier has been consumed.
    recent_consumptions: Window,
    /// Total number of states handed out.
    consumed: u64,
}

/// The most recent `capacity` times of a stream, oldest first: a fixed ring
/// that, once full, overwrites its oldest entry on every push.
#[derive(Debug, Clone)]
struct Window {
    times: Box<[Beats]>,
    /// Index of the oldest entry.
    head: usize,
    len: usize,
}

impl Window {
    fn new(capacity: u32) -> Window {
        Window {
            times: vec![Beats::ZERO; capacity as usize].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// The oldest time once the window holds `capacity` entries; zero while
    /// it is still filling.
    fn oldest_when_full(&self) -> Beats {
        if self.len < self.times.len() {
            Beats::ZERO
        } else {
            self.times[self.head]
        }
    }

    /// Appends `time`, dropping the oldest entry when the window is full.
    fn push(&mut self, time: Beats) {
        let capacity = self.times.len();
        if self.len < capacity {
            let slot = self.head + self.len;
            self.times[if slot >= capacity {
                slot - capacity
            } else {
                slot
            }] = time;
            self.len += 1;
        } else if capacity > 0 {
            self.times[self.head] = time;
            self.head = if self.head + 1 == capacity {
                0
            } else {
                self.head + 1
            };
        }
    }

    fn iter(&self) -> impl Iterator<Item = Beats> + '_ {
        let capacity = self.times.len();
        (0..self.len).map(move |i| self.times[(self.head + i) % capacity])
    }
}

/// Two windows are equal when they hold the same times in the same order,
/// wherever their rings happen to start.
impl PartialEq for Window {
    fn eq(&self, other: &Window) -> bool {
        self.times.len() == other.times.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Window {}

impl MagicStateSupply {
    /// Creates a supply that starts distilling at beat zero with an empty buffer.
    pub fn new(config: MsfConfig) -> Self {
        MagicStateSupply {
            config,
            recent_deliveries: Window::new(config.factories),
            recent_consumptions: Window::new(config.buffer_capacity),
            consumed: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> MsfConfig {
        self.config
    }

    /// Number of states consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Delivery time of the next state given a (hypothetical) request at `now`.
    fn next_delivery(&self) -> Beats {
        // The producing factory can start once it delivered its previous state
        // (the state `factories` places earlier).
        let distilled =
            self.recent_deliveries.oldest_when_full() + Beats(self.config.beats_per_state);
        // The state can leave the factory once a buffer slot is guaranteed: the
        // state `buffer_capacity` places earlier must have been consumed.
        distilled.max(self.recent_consumptions.oldest_when_full())
    }

    /// Requests one magic state at beat `now`; returns the beat at which the
    /// state is actually available (≥ `now`). The state is consumed.
    pub fn acquire(&mut self, now: Beats) -> Beats {
        let delivery = self.next_delivery();
        let consumed_at = delivery.max(now);
        self.recent_deliveries.push(delivery);
        self.recent_consumptions.push(consumed_at);
        self.consumed += 1;
        consumed_at
    }

    /// Number of states ready for immediate consumption at beat `now` (buffered
    /// states plus states held in factory output ports).
    pub fn buffered(&mut self, now: Beats) -> usize {
        let mut probe = self.clone();
        let limit = (self.config.buffer_capacity + self.config.factories) as usize;
        let mut ready = 0;
        for _ in 0..limit {
            if probe.next_delivery() <= now {
                probe.acquire(now);
                ready += 1;
            } else {
                break;
            }
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_values() {
        let cfg = MsfConfig::paper(4);
        assert_eq!(cfg.factories, 4);
        assert_eq!(cfg.beats_per_state, 15);
        assert_eq!(cfg.buffer_capacity, 8);
        assert!((cfg.production_rate() - 4.0 / 15.0).abs() < 1e-12);
        assert!(!cfg.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one factory")]
    fn zero_factories_panics() {
        let _ = MsfConfig::paper(0);
    }

    #[test]
    fn first_state_is_ready_after_fifteen_beats() {
        let mut supply = MagicStateSupply::new(MsfConfig::paper(1));
        assert_eq!(supply.acquire(Beats(0)), Beats(15));
        // The next one needs another distillation round.
        assert_eq!(supply.acquire(Beats(15)), Beats(30));
        assert_eq!(supply.consumed(), 2);
    }

    #[test]
    fn buffered_states_hide_the_latency() {
        let mut supply = MagicStateSupply::new(MsfConfig::paper(1));
        // After a long idle period the buffer (capacity 2) is full and the
        // factory holds one more finished state, so three requests are served
        // instantly.
        assert_eq!(supply.buffered(Beats(100)), 3);
        assert_eq!(supply.acquire(Beats(100)), Beats(100));
        assert_eq!(supply.acquire(Beats(100)), Beats(100));
        assert_eq!(supply.acquire(Beats(100)), Beats(100));
        // The fourth request waits for a fresh distillation, which restarted
        // when the factory's output port freed up.
        let fourth = supply.acquire(Beats(100));
        assert!(fourth > Beats(100));
        assert!(fourth <= Beats(130));
    }

    #[test]
    fn buffer_capacity_limits_run_ahead() {
        let mut supply = MagicStateSupply::new(MsfConfig::paper(1));
        // No matter how long production idles, the run-ahead is bounded by the
        // buffer capacity plus one held state per factory.
        assert_eq!(supply.buffered(Beats(10_000)), 3);
        let mut supply = MagicStateSupply::new(MsfConfig::paper(4));
        assert_eq!(supply.buffered(Beats(10_000)), 12);
    }

    #[test]
    fn sustained_rate_is_bounded_by_the_factory_count() {
        // Draining 100 states as fast as possible cannot beat factories/15.
        for factories in [1u32, 2, 4] {
            let mut supply = MagicStateSupply::new(MsfConfig::paper(factories));
            let last = (0..100).map(|_| supply.acquire(Beats(0))).max().unwrap();
            let min_beats = (100 - 2 * factories as u64 - factories as u64).saturating_mul(15)
                / factories as u64;
            assert!(
                last.as_u64() >= min_beats,
                "{factories} factories finished 100 states too fast ({last})"
            );
        }
    }

    #[test]
    fn more_factories_produce_faster() {
        let mut one = MagicStateSupply::new(MsfConfig::paper(1));
        let mut four = MagicStateSupply::new(MsfConfig::paper(4));
        // Drain the initial buffers first.
        for _ in 0..2 {
            one.acquire(Beats(0));
        }
        for _ in 0..8 {
            four.acquire(Beats(0));
        }
        // Next ten states: the four-factory supply finishes much earlier.
        let one_done = (0..10).map(|_| one.acquire(Beats(0))).max().unwrap();
        let four_done = (0..10).map(|_| four.acquire(Beats(0))).max().unwrap();
        assert!(four_done < one_done);
    }

    #[test]
    fn ring_windows_match_the_full_history_model() {
        // The model stated in full: the state `factories` places earlier
        // frees its factory, the state `buffer_capacity` places earlier
        // frees a buffer slot. Irregular demand exercises both windows
        // filling and wrapping.
        for factories in 1..=4u32 {
            for buffer_capacity in 1..=6u32 {
                let mut supply = MagicStateSupply::new(MsfConfig {
                    factories,
                    beats_per_state: 15,
                    buffer_capacity,
                });
                let (mut deliveries, mut consumptions) = (Vec::new(), Vec::new());
                let earlier = |history: &Vec<Beats>, places: u32| {
                    let places = places as usize;
                    if history.len() < places {
                        Beats::ZERO
                    } else {
                        history[history.len() - places]
                    }
                };
                let (mut now, mut seed) = (0u64, 0x2545_f491_4f6c_dd1du64);
                for _ in 0..300 {
                    seed = seed
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    now += (seed >> 33) % 23;
                    let delivery = (earlier(&deliveries, factories) + Beats(15))
                        .max(earlier(&consumptions, buffer_capacity));
                    let expected = delivery.max(Beats(now));
                    assert_eq!(supply.acquire(Beats(now)), expected);
                    deliveries.push(delivery);
                    consumptions.push(expected);
                }
            }
        }
    }

    #[test]
    fn demand_slower_than_production_never_waits() {
        let mut supply = MagicStateSupply::new(MsfConfig::paper(1));
        let mut now = Beats(40);
        for _ in 0..20 {
            let ready = supply.acquire(now);
            assert_eq!(ready, now, "a slow consumer should always find a state");
            now += Beats(40);
        }
    }
}
