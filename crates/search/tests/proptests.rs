//! Property-based tests: oracle accounting, searcher invariants, the
//! dense view's observational equivalence against a hash-map reference
//! model, the heap searchers' equivalence against full-scan reference
//! searchers, and scratch-reuse bit-identity.

use nonsearch_generators::{rng_from_seed, MergedMori};
use nonsearch_graph::{EdgeId, NodeId, UndirectedCsr};
use nonsearch_search::{
    run_strong, run_strong_in, run_weak, run_weak_in, DiscoveredView, FrontierCursors,
    LookaheadWalk, SearchError, SearchScratch, SearchTask, SearcherKind, SimulatedStrong,
    StampedMap, StrongBfs, StrongGreedyId, StrongHighDegree, StrongSearchState, StrongSearcher,
    SuccessCriterion, WeakSearchState, WeakSearcher,
};
use proptest::prelude::*;
use rand::RngCore;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// A connected multigraph via the merged Móri generator.
fn connected_graph(n: usize, m: usize, p: f64, seed: u64) -> UndirectedCsr {
    MergedMori::sample(n, m, p, &mut rng_from_seed(seed))
        .unwrap()
        .undirected()
}

/// The pre-refactor `HashMap`-based view, kept as the reference model:
/// the dense epoch-stamped implementation must agree with it on every
/// observable query after any script of inserts and resolutions.
#[derive(Default)]
struct ReferenceView {
    order: Vec<NodeId>,
    vertices: HashMap<NodeId, Vec<EdgeId>>,
    edges: HashMap<EdgeId, (NodeId, Option<NodeId>)>,
}

impl ReferenceView {
    fn insert_vertex(&mut self, v: NodeId, incident: &[EdgeId]) {
        if self.vertices.contains_key(&v) {
            return;
        }
        for &e in incident {
            match self.edges.get_mut(&e) {
                None => {
                    self.edges.insert(e, (v, None));
                }
                Some((_, other @ None)) => *other = Some(v),
                Some(_) => {}
            }
        }
        self.order.push(v);
        self.vertices.insert(v, incident.to_vec());
    }

    fn resolve_edge(&mut self, u: NodeId, e: EdgeId, other: NodeId) {
        match self.edges.get_mut(&e) {
            // Resolving re-anchors on the requesting endpoint `u`: the
            // recorded first sighting may be this request's *far*
            // endpoint, and keeping it would store the degenerate pair
            // {other, other}.
            Some(entry) if entry.1.is_none() => *entry = (u, Some(other)),
            Some(_) => {}
            None => {
                self.edges.insert(e, (u, Some(other)));
            }
        }
    }

    fn contains(&self, v: NodeId) -> bool {
        self.vertices.contains_key(&v)
    }

    fn degree_of(&self, v: NodeId) -> Option<usize> {
        self.vertices.get(&v).map(Vec::len)
    }

    fn is_resolved(&self, e: EdgeId) -> bool {
        self.edges.get(&e).is_some_and(|(_, other)| other.is_some())
    }

    fn other_endpoint(&self, u: NodeId, e: EdgeId) -> Option<NodeId> {
        let &(a, b) = self.edges.get(&e)?;
        match (a, b?) {
            (a, b) if a == u => Some(b),
            (a, b) if b == u => Some(a),
            _ => None,
        }
    }

    fn unexplored(&self, v: NodeId) -> Vec<EdgeId> {
        self.vertices.get(&v).map_or(Vec::new(), |incident| {
            incident
                .iter()
                .copied()
                .filter(|&e| !self.is_resolved(e))
                .collect()
        })
    }
}

/// Reference model for `StrongHighDegree`: a full scan of the
/// discovered list per request for the unexpanded vertex of maximum
/// `(degree, Reverse(label))`.
#[derive(Default)]
struct ScanStrongHighDegree {
    expanded: HashSet<NodeId>,
}

impl StrongSearcher for ScanStrongHighDegree {
    fn name(&self) -> &'static str {
        "scan-strong-high-degree"
    }

    fn next_request(
        &mut self,
        _task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        view.discovered()
            .iter()
            .copied()
            .filter(|v| !self.expanded.contains(v))
            .max_by_key(|&v| (view.degree_of(v).unwrap(), Reverse(v)))
    }

    fn observe(&mut self, expanded: NodeId, _neighbors: &[NodeId]) {
        self.expanded.insert(expanded);
    }

    fn reset(&mut self) {
        self.expanded.clear();
    }
}

/// Reference model for `StrongGreedyId`: a full scan for the unexpanded
/// vertex of minimum `(label gap to the target, label)`.
#[derive(Default)]
struct ScanStrongGreedyId {
    expanded: HashSet<NodeId>,
}

impl StrongSearcher for ScanStrongGreedyId {
    fn name(&self) -> &'static str {
        "scan-strong-greedy-id"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        view.discovered()
            .iter()
            .copied()
            .filter(|v| !self.expanded.contains(v))
            .min_by_key(|&v| (v.label().abs_diff(task.target.label()), v))
    }

    fn observe(&mut self, expanded: NodeId, _neighbors: &[NodeId]) {
        self.expanded.insert(expanded);
    }

    fn reset(&mut self) {
        self.expanded.clear();
    }
}

/// Reference model for `LookaheadWalk`: the same walk, with the dead-end
/// fallback as a full scan of the discovered list.
#[derive(Default)]
struct ScanLookaheadWalk {
    current: Option<NodeId>,
    edges: FrontierCursors,
    basket: Vec<NodeId>,
}

impl WeakSearcher for ScanLookaheadWalk {
    fn name(&self) -> &'static str {
        "scan-lookahead-walk"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let current = *self.current.get_or_insert(task.start);
        if let Some(e) = self.edges.next_unexplored(view, current) {
            return Some((current, e));
        }
        let gap = |v: NodeId| v.label().abs_diff(task.target.label());
        let next = self
            .basket
            .drain(..)
            .filter(|v| view.has_unexplored(*v))
            .min_by_key(|&v| (gap(v), v))
            .or_else(|| {
                view.discovered()
                    .iter()
                    .copied()
                    .filter(|v| view.has_unexplored(*v))
                    .min_by_key(|&v| (gap(v), v))
            })?;
        self.current = Some(next);
        self.edges.next_unexplored(view, next).map(|e| (next, e))
    }

    fn observe(&mut self, _request: (NodeId, EdgeId), revealed: NodeId) {
        self.basket.push(revealed);
    }

    fn reset(&mut self) {
        self.current = None;
        self.edges.reset();
        self.basket.clear();
    }
}

/// Every heap searcher paired with its full-scan reference, as weak
/// searchers (the strong ones through `SimulatedStrong`).
fn weak_pairs() -> Vec<(Box<dyn WeakSearcher>, Box<dyn WeakSearcher>)> {
    vec![
        (
            Box::new(LookaheadWalk::new()),
            Box::new(ScanLookaheadWalk::default()),
        ),
        (
            Box::new(SimulatedStrong::new(StrongHighDegree::new())),
            Box::new(SimulatedStrong::new(ScanStrongHighDegree::default())),
        ),
        (
            Box::new(SimulatedStrong::new(StrongGreedyId::new())),
            Box::new(SimulatedStrong::new(ScanStrongGreedyId::default())),
        ),
    ]
}

/// The native strong heap searchers paired with their references.
fn strong_pairs() -> Vec<(Box<dyn StrongSearcher>, Box<dyn StrongSearcher>)> {
    vec![
        (
            Box::new(StrongHighDegree::new()),
            Box::new(ScanStrongHighDegree::default()),
        ),
        (
            Box::new(StrongGreedyId::new()),
            Box::new(ScanStrongGreedyId::default()),
        ),
    ]
}

/// One scripted operation against both views.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize, Vec<usize>),
    Resolve(usize, usize, usize),
    Reset,
}

/// One scripted operation against a raw [`StampedMap`] and a `HashMap`.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(usize, u8),
    Put(usize, u8),
    Reset,
}

fn map_op_strategy(indices: usize) -> impl Strategy<Value = MapOp> {
    (0usize..8, 0..indices, 0u8..=255).prop_map(|(sel, i, x)| match sel {
        0..=2 => MapOp::Insert(i, x),
        3..=5 => MapOp::Put(i, x),
        _ => MapOp::Reset,
    })
}

fn op_strategy(nodes: usize, edges: usize) -> impl Strategy<Value = Op> {
    (
        0usize..9,
        0..nodes,
        proptest::collection::vec(0..edges, 0..6),
        0..edges,
        0..nodes,
    )
        .prop_map(|(sel, v, incident, e, w)| match sel {
            0..=3 => Op::Insert(v, incident),
            4..=7 => Op::Resolve(v, e, w),
            _ => Op::Reset,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_view_matches_the_hashmap_reference_model(
        ops in proptest::collection::vec(op_strategy(12, 16), 1..60),
    ) {
        let mut dense = DiscoveredView::new();
        let mut reference = ReferenceView::default();
        for op in &ops {
            match op {
                Op::Insert(v, incident) => {
                    let incident: Vec<EdgeId> =
                        incident.iter().map(|&e| EdgeId::new(e)).collect();
                    dense.insert_vertex(NodeId::new(*v), &incident);
                    reference.insert_vertex(NodeId::new(*v), &incident);
                }
                Op::Resolve(u, e, w) => {
                    dense.resolve_edge(NodeId::new(*u), EdgeId::new(*e), NodeId::new(*w));
                    reference.resolve_edge(NodeId::new(*u), EdgeId::new(*e), NodeId::new(*w));
                }
                Op::Reset => {
                    dense.reset();
                    reference = ReferenceView::default();
                }
            }
            // After every step the two implementations agree on every
            // observable query over the whole id space.
            prop_assert_eq!(dense.len(), reference.order.len());
            prop_assert_eq!(dense.discovered(), &reference.order[..]);
            for v in (0..12).map(NodeId::new) {
                prop_assert_eq!(dense.contains(v), reference.contains(v));
                prop_assert_eq!(dense.degree_of(v), reference.degree_of(v));
                prop_assert_eq!(
                    dense.unexplored_edges_of(v).collect::<Vec<_>>(),
                    reference.unexplored(v)
                );
                if let Some(info) = dense.vertex(v) {
                    prop_assert_eq!(info.incident(), &reference.vertices[&v][..]);
                }
            }
            for e in (0..16).map(EdgeId::new) {
                prop_assert_eq!(dense.is_resolved(e), reference.is_resolved(e));
                for u in (0..12).map(NodeId::new) {
                    prop_assert_eq!(
                        dense.other_endpoint(u, e),
                        reference.other_endpoint(u, e)
                    );
                }
            }
        }
    }

    #[test]
    fn stamped_map_reset_soak_matches_a_hashmap_across_the_wrap(
        ops in proptest::collection::vec(map_op_strategy(24), 1..80),
    ) {
        // Start at the epoch-wrap boundary so the very first reset takes
        // the zero-fill path; every subsequent reset takes the bump
        // path. The map must behave exactly like a freshly-cleared
        // HashMap throughout.
        let mut dense: StampedMap<u8> = StampedMap::near_wrap();
        let mut reference: HashMap<usize, u8> = HashMap::new();
        for op in &ops {
            match *op {
                MapOp::Insert(i, x) => {
                    let inserted = dense.insert(i, x);
                    prop_assert_eq!(inserted, !reference.contains_key(&i));
                    reference.entry(i).or_insert(x);
                }
                MapOp::Put(i, x) => {
                    dense.put(i, x);
                    reference.insert(i, x);
                }
                MapOp::Reset => {
                    dense.reset();
                    reference.clear();
                }
            }
            prop_assert_eq!(dense.len(), reference.len());
            prop_assert_eq!(dense.is_empty(), reference.is_empty());
            for i in 0..24 {
                prop_assert_eq!(dense.contains(i), reference.contains_key(&i));
                prop_assert_eq!(dense.get(i), reference.get(&i));
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_state(
        n in 4usize..50,
        p in 0.0f64..=1.0,
        seed in 0u64..300,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        // One scratch and one searcher instance serve consecutive trials
        // with different tasks; every outcome must equal a fresh-state
        // run with the same seed.
        let mut scratch = SearchScratch::new();
        for kind in [
            SearcherKind::BfsFlood,
            SearcherKind::HighDegree,
            SearcherKind::RandomWalk,
            SearcherKind::SimStrongHighDegree,
        ] {
            let mut pooled = kind.build();
            for target in [n - 1, n / 2, 0] {
                let task = SearchTask::new(NodeId::from_label(1), NodeId::new(target))
                    .with_budget(200 * n);
                let reused = run_weak_in(
                    &mut scratch, &graph, &task, &mut *pooled, &mut rng_from_seed(seed ^ 0x5C),
                ).unwrap();
                let fresh = run_weak(
                    &graph, &task, &mut *kind.build(), &mut rng_from_seed(seed ^ 0x5C),
                ).unwrap();
                prop_assert_eq!(reused, fresh, "{} target {}", kind, target);
            }
        }
        // Same property for the strong oracle.
        let mut strong = StrongBfs::new();
        for target in [n - 1, 0] {
            let task = SearchTask::new(NodeId::from_label(1), NodeId::new(target))
                .with_budget(200 * n);
            let reused = run_strong_in(
                &mut scratch, &graph, &task, &mut strong, &mut rng_from_seed(seed),
            ).unwrap();
            let fresh = run_strong(
                &graph, &task, &mut StrongBfs::new(), &mut rng_from_seed(seed),
            ).unwrap();
            prop_assert_eq!(reused, fresh, "strong target {}", target);
        }
    }

    #[test]
    fn heap_searchers_match_their_full_scan_references(
        n in 2usize..120,
        m in 1usize..4,
        p in 0.0f64..=1.0,
        seed in 0u64..1000,
        pairs in proptest::collection::vec((0usize..1000, 0usize..1000, 1usize..6), 1..4),
    ) {
        let graph = connected_graph(n, m, p, seed);
        for &(start_sel, target_sel, budget_factor) in &pairs {
            // Budgets from n·m to 5·n·m end some searches early, so
            // budget-exhausted outcomes are compared too.
            let task = SearchTask::new(NodeId::new(start_sel % n), NodeId::new(target_sel % n))
                .with_budget(budget_factor * n * m);
            for (mut heap, mut scan) in weak_pairs() {
                let name = heap.name();
                let want = run_weak(&graph, &task, &mut *scan, &mut rng_from_seed(seed)).unwrap();
                let got = run_weak(&graph, &task, &mut *heap, &mut rng_from_seed(seed)).unwrap();
                prop_assert_eq!(got, want, "weak {} on {:?}", name, task);
            }
            for (mut heap, mut scan) in strong_pairs() {
                let name = heap.name();
                let want = run_strong(&graph, &task, &mut *scan, &mut rng_from_seed(seed)).unwrap();
                let got = run_strong(&graph, &task, &mut *heap, &mut rng_from_seed(seed)).unwrap();
                prop_assert_eq!(got, want, "strong {} on {:?}", name, task);
            }
        }
    }

    #[test]
    fn reused_heap_searchers_match_fresh_ones(
        n in 2usize..120,
        m in 1usize..4,
        p in 0.0f64..=1.0,
        seed in 0u64..1000,
        targets in proptest::collection::vec((0usize..1000, 1usize..6), 2..6),
    ) {
        // One searcher instance serves every target in turn, on one
        // pooled scratch; each outcome must equal a fresh searcher's. A
        // heap or cursor that `reset` failed to clear would carry the
        // previous target's keys into the next search.
        let graph = connected_graph(n, m, p, seed);
        let mut scratch = SearchScratch::new();
        let mut weak: Vec<_> = weak_pairs().into_iter().map(|(heap, _)| heap).collect();
        let mut strong: Vec<_> = strong_pairs().into_iter().map(|(heap, _)| heap).collect();
        for &(target_sel, budget_factor) in &targets {
            let task = SearchTask::new(NodeId::from_label(1), NodeId::new(target_sel % n))
                .with_budget(budget_factor * n * m);
            for (pooled, (mut fresh, _)) in weak.iter_mut().zip(weak_pairs()) {
                let reused = run_weak_in(
                    &mut scratch, &graph, &task, &mut **pooled, &mut rng_from_seed(seed),
                ).unwrap();
                let want = run_weak(&graph, &task, &mut *fresh, &mut rng_from_seed(seed)).unwrap();
                prop_assert_eq!(reused, want, "weak {} on {:?}", pooled.name(), task);
            }
            for (pooled, (mut fresh, _)) in strong.iter_mut().zip(strong_pairs()) {
                let reused = run_strong_in(
                    &mut scratch, &graph, &task, &mut **pooled, &mut rng_from_seed(seed),
                ).unwrap();
                let want =
                    run_strong(&graph, &task, &mut *fresh, &mut rng_from_seed(seed)).unwrap();
                prop_assert_eq!(reused, want, "strong {} on {:?}", pooled.name(), task);
            }
        }
    }

    #[test]
    fn every_searcher_finds_every_target_on_connected_graphs(
        n in 2usize..80,
        m in 1usize..3,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        target_sel in 0usize..1000,
    ) {
        let graph = connected_graph(n, m, p, seed);
        let target = NodeId::new(target_sel % n);
        let task = SearchTask::new(NodeId::from_label(1), target)
            .with_budget(200 * n * m);
        let mut rng = rng_from_seed(seed ^ 0xABCD);
        for kind in SearcherKind::all() {
            let mut searcher = kind.build();
            let outcome = run_weak(&graph, &task, &mut *searcher, &mut rng).unwrap();
            prop_assert!(
                outcome.found,
                "{kind} missed {target:?} on n={n}, m={m}, p={p}"
            );
        }
    }

    #[test]
    fn request_counts_are_monotone_in_discovery(
        n in 2usize..60,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        // Discovered vertices ≤ requests + 1 always (each request reveals
        // at most one new vertex).
        let graph = connected_graph(n, 1, p, seed);
        let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n))
            .with_budget(100 * n);
        let mut rng = rng_from_seed(seed ^ 0xBEEF);
        for kind in SearcherKind::all() {
            let mut searcher = kind.build();
            let o = run_weak(&graph, &task, &mut *searcher, &mut rng).unwrap();
            prop_assert!(o.discovered <= o.requests + 1, "{kind}");
        }
    }

    #[test]
    fn neighbor_criterion_never_costs_more(
        n in 3usize..60,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        // Deterministic searcher ⇒ comparable runs.
        let strict_task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n))
            .with_budget(100 * n);
        let relaxed_task = strict_task.with_criterion(SuccessCriterion::ReachNeighbor);
        for kind in [SearcherKind::BfsFlood, SearcherKind::HighDegree, SearcherKind::Dfs] {
            let mut a = kind.build();
            let strict =
                run_weak(&graph, &strict_task, &mut *a, &mut rng_from_seed(1)).unwrap();
            let mut b = kind.build();
            let relaxed =
                run_weak(&graph, &relaxed_task, &mut *b, &mut rng_from_seed(1)).unwrap();
            prop_assert!(relaxed.requests <= strict.requests, "{kind}");
        }
    }

    #[test]
    fn weak_oracle_counts_every_request(
        n in 2usize..40,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        steps in 1usize..50,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        let mut scratch = SearchScratch::new();
        let mut state =
            WeakSearchState::new_in(&mut scratch, &graph, NodeId::from_label(1)).unwrap();
        let mut issued = 0usize;
        let mut rng = rng_from_seed(seed);
        use rand::Rng;
        for _ in 0..steps {
            // Pick any discovered vertex with positive degree.
            let order = state.view().discovered().to_vec();
            let v = order[rng.gen_range(0..order.len())];
            let info = state.view().vertex(v).unwrap();
            if info.degree() == 0 {
                continue;
            }
            let e = info.incident()[rng.gen_range(0..info.degree())];
            state.request(v, e).unwrap();
            issued += 1;
            prop_assert_eq!(state.requests(), issued);
        }
    }

    #[test]
    fn strong_oracle_reveals_whole_neighborhoods(
        n in 2usize..40,
        m in 1usize..3,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        let graph = connected_graph(n, m, p, seed);
        let mut scratch = SearchScratch::new();
        let mut state =
            StrongSearchState::new_in(&mut scratch, &graph, NodeId::from_label(1)).unwrap();
        let revealed = state.request(NodeId::from_label(1)).unwrap().to_vec();
        prop_assert_eq!(revealed.len(), graph.degree(NodeId::from_label(1)));
        for v in revealed {
            prop_assert!(state.view().contains(v));
            prop_assert_eq!(state.view().degree_of(v), Some(graph.degree(v)));
        }
    }

    #[test]
    fn strong_and_weak_bfs_agree_on_reachability(
        n in 2usize..60,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        target_sel in 0usize..1000,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        let target = NodeId::new(target_sel % n);
        let task = SearchTask::new(NodeId::from_label(1), target)
            .with_budget(100 * n);
        let weak = run_weak(
            &graph,
            &task,
            &mut *SearcherKind::BfsFlood.build(),
            &mut rng_from_seed(0),
        )
        .unwrap();
        let strong =
            run_strong(&graph, &task, &mut StrongBfs::new(), &mut rng_from_seed(0))
                .unwrap();
        prop_assert_eq!(weak.found, strong.found);
        // The strong oracle is at least as informative per request.
        prop_assert!(strong.requests <= weak.requests.max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The weak oracle accepts `(u, e)` exactly when `e` is in `u`'s
    /// revealed incident list, on multigraphs with self-loops and
    /// parallel edges, and for handles past the graph's last edge.
    #[test]
    fn weak_request_accepts_exactly_the_revealed_incidences(
        n in 2usize..40,
        m in 1usize..=4,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        prefix in 0usize..30,
        probes in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16), 1..16),
    ) {
        let graph = connected_graph(n, m, p, seed);
        let mut scratch = SearchScratch::new();
        let mut state =
            WeakSearchState::new_in(&mut scratch, &graph, NodeId::from_label(1)).unwrap();
        let mut rng = rng_from_seed(seed);
        use rand::Rng;
        for _ in 0..prefix {
            let order = state.view().discovered();
            let v = order[rng.gen_range(0..order.len())];
            let incident = state.view().vertex(v).unwrap().incident();
            if incident.is_empty() {
                continue;
            }
            let e = incident[rng.gen_range(0..incident.len())];
            state.request(v, e).unwrap();
        }
        for (u_pick, e_pick) in probes {
            let order = state.view().discovered();
            let u = order[u_pick % order.len()];
            let e = EdgeId::new(e_pick % (graph.edge_count() + 8));
            let listed = state.view().vertex(u).unwrap().incident().contains(&e);
            let before = state.requests();
            match state.request(u, e) {
                Ok(_) => {
                    prop_assert!(listed, "accepted unlisted {e:?} at {u:?}");
                    prop_assert_eq!(state.requests(), before + 1);
                }
                Err(err) => {
                    prop_assert!(!listed, "rejected listed {e:?} at {u:?}");
                    prop_assert_eq!(err, SearchError::UnknownIncidence { vertex: u, edge: e });
                    prop_assert_eq!(state.requests(), before);
                }
            }
        }
    }
}
