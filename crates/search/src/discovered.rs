//! The searcher's partial view of the graph, stored dense.
//!
//! Vertex and edge handles are dense integers ([`NodeId`]/[`EdgeId`]), so
//! the view keeps flat arrays indexed by id instead of hash tables: a
//! [`StampedMap`] of arena spans per node, a [`StampedMap`] of resolution
//! flags per edge, and one shared arena holding every discovered incident
//! list back to back. A request's view work is O(1) array writes, plus
//! one O(deg v) copy of a vertex's incident list into the arena the
//! first time `v` is discovered — no hashing, and no heap allocation
//! once the arrays have grown to the graph's size. The view never scans
//! an incident list to answer the oracle: the weak oracle checks
//! incidence against the graph's edge endpoints (see
//! [`WeakSearchState::request`](crate::WeakSearchState::request)).
//!
//! # Layout: hot stamps, cold endpoints
//!
//! Edge state is split by access pattern. The *hot* pair — presence stamp
//! and resolved flag — lives inline in one `StampedMap<bool>` slot
//! (8 bytes), because the request loop's dominant operation,
//! [`is_resolved`](DiscoveredView::is_resolved), reads exactly that pair
//! for every incident slot it scans. The *cold* endpoint pair
//! `[first, other]` sits in a separate side array touched only on the
//! rare [`other_endpoint`](DiscoveredView::other_endpoint) lookup, so it
//! no longer dilutes the cache lines the scan streams through.
//!
//! Presence itself is epoch-stamped — clearing the view is an O(1) epoch
//! bump, with the u32-wrap path audited once in
//! [`StampedMap`](crate::StampedMap) rather than re-implemented here.
//! This is what lets one [`SearchScratch`](crate::SearchScratch) serve
//! thousands of Monte-Carlo trials without reallocating.

use crate::stamped::StampedMap;
use nonsearch_graph::{EdgeId, NodeId};

/// Arena range of a discovered vertex's incident list.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSpan {
    start: usize,
    len: usize,
}

/// What the searcher knows about one discovered vertex: its degree and
/// its incident edge handles, as revealed on discovery.
///
/// A lightweight borrowed proxy — the incident list is a slice into the
/// view's shared arena (the vertex's slot-ordered incident image), not a
/// per-vertex allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveredVertex<'a> {
    incident: &'a [EdgeId],
}

impl<'a> DiscoveredVertex<'a> {
    /// The vertex degree (length of its incident edge list).
    pub fn degree(&self) -> usize {
        self.incident.len()
    }

    /// The incident edge handles, in the slot order revealed on
    /// discovery. The slice borrows from the view, not from a
    /// per-vertex vector.
    pub fn incident(self) -> &'a [EdgeId] {
        self.incident
    }
}

/// The searcher's accumulated knowledge: discovered vertices (with degree
/// and incident edge lists) and partially resolved edges.
///
/// Edges carry global identities, so when both endpoints of a handle have
/// been discovered the view infers the connection without spending a
/// request — a conservative choice for lower-bound experiments (the
/// searcher is never given *less* than the model allows).
///
/// All state lives in dense [`StampedMap`]s indexed by `NodeId`/`EdgeId`
/// and is invalidated wholesale by an epoch bump (see the module docs),
/// so a view reused across trials performs zero heap allocations once
/// warm. The mutators ([`insert_vertex`](DiscoveredView::insert_vertex),
/// [`resolve_edge`](DiscoveredView::resolve_edge)) are the oracle-side
/// API; algorithms only ever see `&DiscoveredView`.
#[derive(Debug, Clone, Default)]
pub struct DiscoveredView {
    /// Discovered vertices: present iff discovered, value is the arena
    /// span of the incident list.
    nodes: StampedMap<NodeSpan>,
    /// Hot edge state: present iff the edge has appeared in some
    /// discovered incident list or request answer; the value is `true`
    /// iff both endpoints are known.
    edges: StampedMap<bool>,
    /// Cold edge state: `[first, other]` endpoints. `first` is valid
    /// when the edge is present in `edges`, `other` when resolved. Kept
    /// out of the hot slots so resolution scans stay cache-dense; grown
    /// in lockstep with `edges` by
    /// [`reserve_graph`](DiscoveredView::reserve_graph).
    edge_ends: Vec<[NodeId; 2]>,
    /// Discovered vertices in discovery order (start vertex first).
    order: Vec<NodeId>,
    /// All discovered incident lists, back to back in discovery order.
    arena: Vec<EdgeId>,
    /// Cumulative count of edges that became resolved (both endpoints
    /// known), via requests or second sightings. Survives
    /// [`reset`](DiscoveredView::reset) — metrics consumers take
    /// before/after deltas.
    edge_resolutions: u64,
    /// Cumulative count of [`reset`](DiscoveredView::reset) calls
    /// (one per search begun on this view).
    resets: u64,
}

impl DiscoveredView {
    /// An empty view (no vertices discovered yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// A view whose *next* [`reset`](DiscoveredView::reset) takes the
    /// epoch-wrap path. Test-only hook: wrap coverage drives the public
    /// API instead of poking private fields.
    #[doc(hidden)]
    pub fn near_wrap() -> Self {
        DiscoveredView {
            nodes: StampedMap::near_wrap(),
            edges: StampedMap::near_wrap(),
            ..Self::default()
        }
    }

    /// Forgets everything in O(1): bumps the node/edge epochs and
    /// truncates the discovery-order list and arena, keeping every
    /// allocation for the next search. The once-per-2^32 wrap path is
    /// [`StampedMap::reset`]'s.
    // lint: alloc-free
    pub fn reset(&mut self) {
        self.order.clear();
        self.arena.clear();
        self.nodes.reset();
        self.edges.reset();
        self.resets += 1;
    }

    /// Grows the dense arrays to cover `nodes` vertices and `edges`
    /// edges — including the discovery-order and arena buffers (a graph
    /// with `edges` edges has exactly `2 * edges` incidence slots) — so
    /// a search over a graph of that size triggers no allocation at all,
    /// even on the first trial. Called by the oracles at search start; a
    /// no-op once the arrays are large enough.
    pub fn reserve_graph(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
        if self.edge_ends.len() < edges {
            self.edge_ends.resize(edges, [NodeId::new(0); 2]);
        }
        if self.order.capacity() < nodes {
            self.order.reserve(nodes - self.order.len());
        }
        let slots = 2 * edges;
        if self.arena.capacity() < slots {
            self.arena.reserve(slots - self.arena.len());
        }
    }

    /// Number of discovered vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if nothing has been discovered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `true` if `v` has been discovered.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.contains(v.index())
    }

    /// Discovered vertices in discovery order (start vertex first).
    pub fn discovered(&self) -> &[NodeId] {
        &self.order
    }

    /// Knowledge about `v`, if discovered.
    #[inline]
    pub fn vertex(&self, v: NodeId) -> Option<DiscoveredVertex<'_>> {
        self.nodes.get(v.index()).map(|span| DiscoveredVertex {
            incident: &self.arena[span.start..span.start + span.len],
        })
    }

    /// Degree of `v`, if discovered.
    #[inline]
    pub fn degree_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.get(v.index()).map(|span| span.len)
    }

    /// The opposite endpoint of `e` as seen from `u`, if already known.
    ///
    /// Known means: revealed by a request, or inferable because the edge
    /// handle appeared in two discovered incident lists.
    pub fn other_endpoint(&self, u: NodeId, e: EdgeId) -> Option<NodeId> {
        let i = e.index();
        if !self.is_resolved(e) {
            return None;
        }
        let [a, b] = self.edge_ends[i];
        if a == u {
            Some(b)
        } else if b == u {
            Some(a)
        } else {
            None
        }
    }

    /// `true` if both endpoints of `e` are known.
    #[inline]
    pub fn is_resolved(&self, e: EdgeId) -> bool {
        matches!(self.edges.get(e.index()), Some(true))
    }

    /// Incident edges of `v` whose far endpoint is still unknown, in
    /// slot order. The iterator borrows the view and allocates nothing;
    /// it is empty for undiscovered vertices.
    pub fn unexplored_edges_of(&self, v: NodeId) -> UnexploredEdges<'_> {
        UnexploredEdges {
            view: self,
            inner: self
                .vertex(v)
                .map_or([].iter(), |info| info.incident().iter()),
        }
    }

    /// `true` if `v` is discovered and has at least one unresolved edge.
    pub fn has_unexplored(&self, v: NodeId) -> bool {
        self.unexplored_edges_of(v).next().is_some()
    }

    /// Records the discovery of `v` with its incident edge list.
    ///
    /// This is oracle-side API (algorithms only see `&DiscoveredView`),
    /// public so model-based tests and benches can drive the view
    /// directly. Idempotent for already-known vertices; the arrays grow
    /// as needed, so any in-range ids are acceptable.
    pub fn insert_vertex(&mut self, v: NodeId, incident: &[EdgeId]) {
        self.insert_with(v, incident.iter().copied());
    }

    /// [`insert_vertex`](DiscoveredView::insert_vertex) reading the edge
    /// handles straight out of a CSR incidence-slot slice, so the oracle
    /// copies each handle exactly once (graph → arena) with no
    /// intermediate vector.
    pub(crate) fn insert_vertex_from_slots(&mut self, v: NodeId, slots: &[(NodeId, EdgeId)]) {
        self.insert_with(v, slots.iter().map(|&(_, e)| e));
    }

    // lint: alloc-free
    fn insert_with(&mut self, v: NodeId, incident: impl Iterator<Item = EdgeId>) {
        if self.contains(v) {
            return;
        }
        let vi = v.index();
        if vi >= self.nodes.capacity() {
            self.reserve_graph(vi + 1, 0);
        }
        let start = self.arena.len();
        for e in incident {
            let i = e.index();
            if i >= self.edges.capacity() {
                self.reserve_graph(0, i + 1);
            }
            if self.edges.insert(i, false) {
                self.edge_ends[i][0] = v;
            } else if let Some(resolved) = self.edges.get_mut(i) {
                if !*resolved {
                    // Second sighting resolves the edge; a self-loop
                    // lists the same handle twice in one incident list.
                    *resolved = true;
                    self.edge_ends[i][1] = v;
                    self.edge_resolutions += 1;
                }
            }
            self.arena.push(e);
        }
        self.nodes.insert(
            vi,
            NodeSpan {
                start,
                len: self.arena.len() - start,
            },
        );
        self.order.push(v);
    }

    /// Records the answer to a request on `(u, e)`: the far endpoint is
    /// `other`. Oracle-side API, public for the same reason as
    /// [`insert_vertex`](DiscoveredView::insert_vertex).
    // lint: alloc-free
    pub fn resolve_edge(&mut self, u: NodeId, e: EdgeId, other: NodeId) {
        let i = e.index();
        if i >= self.edges.capacity() {
            self.reserve_graph(0, i + 1);
        }
        if self.edges.insert(i, true) {
            self.edge_ends[i] = [u, other];
            self.edge_resolutions += 1;
        } else if let Some(resolved) = self.edges.get_mut(i) {
            if !*resolved {
                // Re-anchor on the requesting endpoint: the stored
                // `first` may be the *far* endpoint of this request (a
                // caller resolving from the other side), and keeping it
                // would record the degenerate pair `{other, other}`.
                *resolved = true;
                self.edge_ends[i] = [u, other];
                self.edge_resolutions += 1;
            }
        }
    }

    /// Cumulative count of edges that became resolved on this view,
    /// across every search since construction (resets do not clear it).
    /// Metrics consumers read it before and after a trial and record
    /// the delta.
    pub fn edge_resolutions(&self) -> u64 {
        self.edge_resolutions
    }

    /// Cumulative count of [`reset`](DiscoveredView::reset) calls since
    /// construction — one per search begun on this view.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// Iterator over a vertex's unresolved incident edges, in slot order.
/// Created by [`DiscoveredView::unexplored_edges_of`]; allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct UnexploredEdges<'a> {
    view: &'a DiscoveredView,
    inner: std::slice::Iter<'a, EdgeId>,
}

impl Iterator for UnexploredEdges<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        self.inner
            .by_ref()
            .copied()
            .find(|&e| !self.view.is_resolved(e))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: usize) -> EdgeId {
        EdgeId::new(i)
    }
    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn unexplored(view: &DiscoveredView, u: NodeId) -> Vec<EdgeId> {
        view.unexplored_edges_of(u).collect()
    }

    #[test]
    fn insert_and_query() {
        let mut view = DiscoveredView::new();
        assert!(view.is_empty());
        view.insert_vertex(v(0), &[e(0), e(1)]);
        assert_eq!(view.len(), 1);
        assert!(view.contains(v(0)));
        assert_eq!(view.degree_of(v(0)), Some(2));
        assert_eq!(view.vertex(v(0)).unwrap().incident(), &[e(0), e(1)]);
        assert_eq!(view.degree_of(v(1)), None);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut view = DiscoveredView::new();
        view.insert_vertex(v(0), &[e(0)]);
        view.insert_vertex(v(0), &[e(0), e(1)]);
        assert_eq!(view.degree_of(v(0)), Some(1));
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn explicit_resolution() {
        let mut view = DiscoveredView::new();
        view.insert_vertex(v(0), &[e(0)]);
        assert!(!view.is_resolved(e(0)));
        assert_eq!(unexplored(&view, v(0)), vec![e(0)]);
        view.resolve_edge(v(0), e(0), v(1));
        assert!(view.is_resolved(e(0)));
        assert_eq!(view.other_endpoint(v(0), e(0)), Some(v(1)));
        assert_eq!(view.other_endpoint(v(1), e(0)), Some(v(0)));
        assert!(unexplored(&view, v(0)).is_empty());
    }

    #[test]
    fn double_sighting_resolves_implicitly() {
        let mut view = DiscoveredView::new();
        view.insert_vertex(v(0), &[e(5)]);
        view.insert_vertex(v(3), &[e(5), e(6)]);
        assert!(view.is_resolved(e(5)));
        assert_eq!(view.other_endpoint(v(0), e(5)), Some(v(3)));
        assert!(!view.is_resolved(e(6)));
        assert!(view.has_unexplored(v(3)));
        assert!(!view.has_unexplored(v(0)));
    }

    #[test]
    fn self_loop_resolves_within_one_list() {
        let mut view = DiscoveredView::new();
        // A self-loop contributes two slots with the same handle.
        view.insert_vertex(v(2), &[e(0), e(0), e(1)]);
        assert!(view.is_resolved(e(0)));
        assert_eq!(view.other_endpoint(v(2), e(0)), Some(v(2)));
        assert!(!view.is_resolved(e(1)));
    }

    #[test]
    fn unknown_edges_are_unknown() {
        let view = DiscoveredView::new();
        assert_eq!(view.other_endpoint(v(0), e(0)), None);
        assert!(!view.is_resolved(e(0)));
        assert!(unexplored(&view, v(0)).is_empty());
        assert!(!view.has_unexplored(v(0)));
    }

    #[test]
    fn discovery_order_is_preserved() {
        let mut view = DiscoveredView::new();
        view.insert_vertex(v(4), &[]);
        view.insert_vertex(v(1), &[]);
        view.insert_vertex(v(9), &[]);
        assert_eq!(view.discovered(), &[v(4), v(1), v(9)]);
    }

    #[test]
    fn resolving_an_unseen_edge_records_both_endpoints() {
        let mut view = DiscoveredView::new();
        view.resolve_edge(v(3), e(7), v(5));
        assert!(view.is_resolved(e(7)));
        assert_eq!(view.other_endpoint(v(3), e(7)), Some(v(5)));
        assert_eq!(view.other_endpoint(v(5), e(7)), Some(v(3)));
        assert_eq!(view.other_endpoint(v(9), e(7)), None);
    }

    #[test]
    fn resolving_from_the_far_endpoint_keeps_the_pair_consistent() {
        // Regression: e(0) first sighted at v(0); a later request driven
        // from the *far* endpoint v(7) used to keep `first = v(0)` while
        // storing `other = v(0)`, collapsing the pair to {v(0), v(0)} so
        // `other_endpoint(v(7), e(0))` wrongly answered `None`.
        let mut view = DiscoveredView::new();
        view.insert_vertex(v(0), &[e(0)]);
        view.resolve_edge(v(7), e(0), v(0));
        assert!(view.is_resolved(e(0)));
        assert_eq!(view.other_endpoint(v(7), e(0)), Some(v(0)));
        assert_eq!(view.other_endpoint(v(0), e(0)), Some(v(7)));
    }

    #[test]
    fn reset_forgets_everything_and_reuses_memory() {
        let mut view = DiscoveredView::new();
        view.insert_vertex(v(0), &[e(0), e(1)]);
        view.resolve_edge(v(0), e(0), v(1));
        view.reset();
        assert!(view.is_empty());
        assert!(!view.contains(v(0)));
        assert!(!view.is_resolved(e(0)));
        assert_eq!(view.other_endpoint(v(0), e(0)), None);
        // The arrays kept their length; fresh inserts work immediately.
        view.insert_vertex(v(1), &[e(1)]);
        assert_eq!(view.discovered(), &[v(1)]);
        assert!(!view.is_resolved(e(1)));
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        // Built at the wrap boundary: the first reset zero-fills stamps.
        let mut view = DiscoveredView::near_wrap();
        view.insert_vertex(v(0), &[e(0)]);
        assert!(view.contains(v(0)));
        view.reset();
        assert!(!view.contains(v(0)));
        assert!(!view.is_resolved(e(0)));
        view.insert_vertex(v(0), &[e(0)]);
        assert!(view.contains(v(0)));
        // And the restarted epoch keeps resetting cleanly.
        view.reset();
        assert!(!view.contains(v(0)));
    }

    #[test]
    fn resolution_and_reset_counters_are_cumulative() {
        let mut view = DiscoveredView::new();
        assert_eq!((view.edge_resolutions(), view.resets()), (0, 0));
        view.insert_vertex(v(0), &[e(0), e(1)]);
        view.resolve_edge(v(0), e(0), v(1)); // request resolution
        view.insert_vertex(v(2), &[e(1)]); // second-sighting resolution
        assert_eq!(view.edge_resolutions(), 2);
        view.resolve_edge(v(0), e(0), v(1)); // already resolved: no count
        assert_eq!(view.edge_resolutions(), 2);
        view.reset();
        assert_eq!(view.resets(), 1);
        // Counters survive the reset; the next search adds on top.
        view.resolve_edge(v(3), e(7), v(5));
        assert_eq!(view.edge_resolutions(), 3);
    }

    #[test]
    fn reserve_graph_is_idempotent() {
        let mut view = DiscoveredView::new();
        view.reserve_graph(10, 20);
        view.insert_vertex(v(9), &[e(19)]);
        view.reserve_graph(5, 5); // never shrinks
        assert!(view.contains(v(9)));
        assert_eq!(view.vertex(v(9)).unwrap().incident(), &[e(19)]);
    }
}
