//! Fixed-shape per-worker phase timers.
//!
//! A trial's wall time decomposes into a handful of phases the engine
//! cares about separately: getting the graph (generated fresh or loaded
//! from a corpus), running the searchers, harvesting counters, and the
//! consumer-side merge fold. [`PhaseTimes`] is the `Metrics` analogue
//! for those durations — a plain bundle of `u64` nanosecond
//! accumulators, updated by integer adds from monotonic-clock
//! (`Instant`) readings, merged field-wise in the reorder-buffer
//! consumer. Unlike `Metrics` the sums are wall-clock data: they are
//! *not* deterministic across runs and must only ever ride volatile
//! record types (`"type":"resource"`), never determinism-gated cell
//! lines.

use std::time::Instant;

/// Nanosecond accumulators for the engine's trial phases.
///
/// All fields are plain `u64` nanosecond totals; recording is an
/// integer add and merging is field-wise addition, so the phase block
/// rides the allocation-free trial hot path for free. Per-worker
/// blocks summed across workers can exceed the cell's wall time —
/// workers run concurrently — so consumers of these numbers must treat
/// them as *CPU-side busy time per phase*, bounded by
/// `wall × (workers + 1)` (the `+ 1` is the consumer thread, which
/// owns the merge phase).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseTimes {
    /// Generating trial graphs on the fly (generate-backed sources).
    pub generate_ns: u64,
    /// Loading trial graphs from a stored corpus (corpus-backed
    /// sources; zero on generate-per-trial runs).
    pub load_ns: u64,
    /// Running the searchers against the oracle.
    pub search_ns: u64,
    /// Harvesting per-trial counter deltas into `Metrics`.
    pub harvest_ns: u64,
    /// The consumer's strict-trial-order fold (aggregates + metrics).
    pub merge_ns: u64,
}

impl PhaseTimes {
    /// An all-zero block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every phase of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.generate_ns += other.generate_ns;
        self.load_ns += other.load_ns;
        self.search_ns += other.search_ns;
        self.harvest_ns += other.harvest_ns;
        self.merge_ns += other.merge_ns;
    }

    /// Total nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.generate_ns + self.load_ns + self.search_ns + self.harvest_ns + self.merge_ns
    }

    /// The phases with their canonical record-field names, in the
    /// fixed serialization order record writers use.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("phase_generate_ns", self.generate_ns),
            ("phase_load_ns", self.load_ns),
            ("phase_search_ns", self.search_ns),
            ("phase_harvest_ns", self.harvest_ns),
            ("phase_merge_ns", self.merge_ns),
        ]
    }
}

/// Elapsed nanoseconds since `start`, saturated into a `u64`.
///
/// The helper every instrumentation site uses so the clamp cannot
/// drift: `Instant` reads are monotonic, allocation-free, and never
/// consulted by any RNG stream, so timing a phase cannot perturb a
/// deterministic aggregate.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, adds its elapsed nanoseconds to `phase_ns` (one of a
/// [`PhaseTimes`] block's fields), and returns what `f` returned.
///
/// Two clock reads around the whole closure, nothing else: timing a
/// phase this way is allocation-free and cannot perturb `f`.
pub fn timed<T>(phase_ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *phase_ns += elapsed_ns(start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = PhaseTimes {
            generate_ns: 10,
            load_ns: 1,
            search_ns: 100,
            harvest_ns: 5,
            merge_ns: 2,
        };
        let b = PhaseTimes {
            generate_ns: 1,
            load_ns: 2,
            search_ns: 3,
            harvest_ns: 4,
            merge_ns: 5,
        };
        a.merge(&b);
        assert_eq!(a.generate_ns, 11);
        assert_eq!(a.load_ns, 3);
        assert_eq!(a.search_ns, 103);
        assert_eq!(a.harvest_ns, 9);
        assert_eq!(a.merge_ns, 7);
        assert_eq!(a.total_ns(), 11 + 3 + 103 + 9 + 7);
    }

    #[test]
    fn named_covers_every_field_once() {
        let p = PhaseTimes {
            generate_ns: 1,
            load_ns: 2,
            search_ns: 3,
            harvest_ns: 4,
            merge_ns: 5,
        };
        let named = p.named();
        assert_eq!(named.len(), 5);
        let sum: u64 = named.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, p.total_ns());
        let mut names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5, "duplicate field names");
        for (name, _) in named {
            assert!(name.starts_with("phase_"), "{name}");
            assert!(name.ends_with("_ns"), "{name}");
        }
    }

    #[test]
    fn timed_adds_to_the_phase_and_passes_the_result_through() {
        let mut phases = PhaseTimes {
            search_ns: 7,
            ..PhaseTimes::new()
        };
        let out = timed(&mut phases.search_ns, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            42
        });
        assert_eq!(out, 42);
        assert!(phases.search_ns >= 7 + 1_000_000, "{}", phases.search_ns);
        assert_eq!(phases.total_ns(), phases.search_ns);
    }

    #[test]
    fn elapsed_ns_is_monotone() {
        let t0 = Instant::now();
        let a = elapsed_ns(t0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = elapsed_ns(t0);
        assert!(b > a);
        assert!(b >= 2_000_000, "slept 2ms but measured {b}ns");
    }
}
