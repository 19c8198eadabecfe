//! The search algorithm suite.
//!
//! Weak-model searchers ([`WeakSearcher`](crate::WeakSearcher)):
//!
//! * [`RandomWalk`] — the pure random walk of Adamic et al.
//! * [`AvoidingWalk`] — a walk preferring unexplored edges.
//! * [`BfsFlood`] / [`DfsWalk`] — exhaustive frontier expansions.
//! * [`HighDegreeGreedy`] — Adamic et al.'s degree-seeking strategy.
//! * [`GreedyIdProximity`] — exploit identity labels (ages) greedily.
//! * [`OldestFirst`] — head for the oldest (core) vertices first.
//! * [`LookaheadWalk`] — expand the current vertex, then hop to the
//!   revealed neighbor whose label is closest to the target's.
//! * [`RestartingWalk`] — a random walk teleporting back to the start.
//! * [`SimulatedStrong`](crate::SimulatedStrong) — runs any strong-model
//!   searcher in the weak model (the paper's slowdown simulation).
//!
//! Strong-model searchers ([`StrongSearcher`](crate::StrongSearcher)):
//! [`StrongBfs`], [`StrongHighDegree`], [`StrongGreedyId`].
//!
//! Two related-work protocols with *different* knowledge models live
//! here as standalone functions: [`greedy_route`] (Kleinberg's lattice
//! greedy routing, which knows coordinates) and [`percolation_search`]
//! (Sarshar et al.'s replication + bond-percolation broadcast).

mod flood;
mod greedy_id;
mod high_degree;
mod kleinberg_greedy;
mod lookahead;
mod percolation;
mod strong_greedy;
mod walks;

pub use flood::{BfsFlood, DfsWalk};
pub use greedy_id::{GreedyIdProximity, OldestFirst};
pub use high_degree::HighDegreeGreedy;
pub use kleinberg_greedy::{greedy_route, GreedyRouteOutcome};
pub use lookahead::{LookaheadWalk, RestartingWalk};
pub use percolation::{
    percolation_search, percolation_search_in, PercolationConfig, PercolationOutcome,
    PercolationScratch,
};
pub use strong_greedy::{StrongBfs, StrongGreedyId, StrongHighDegree};
pub use walks::{AvoidingWalk, RandomWalk};
