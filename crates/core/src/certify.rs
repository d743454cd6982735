//! Certified deadlock-freedom: an exact static decision for the simulated
//! traffic model.
//!
//! [`check_deadlock_free`](crate::verify::check_deadlock_free) implements the
//! paper's conservative condition: *any* CDG cycle condemns the design.  The
//! VC-fidelity simulation showed that condition is necessary but **not
//! sufficient** — injection FIFOs and shared source links serialise many
//! would-be cycle participants, so Algorithm 1 spends VCs on cycles that can
//! never trap.  This module implements the sharper, Verbeek/Schmaltz-style
//! condition: search for a *genuinely trappable configuration* and certify
//! the design free only when none exists.
//!
//! # The certified traffic model
//!
//! The verdict is exact for the workload model the VC engine
//! (`noc_sim::vc_engine`) realises under the `AssignedVc` policy with
//! saturating **long worms**:
//!
//! * one in-flight packet per flow (per-flow injection FIFO),
//! * packet length exceeding the buffering of any claimed route prefix, so a
//!   blocked worm's tail stays at its source and the worm *owns* every
//!   channel of its claimed prefix `route[0..=h]` (its **footprint**),
//! * channel ownership is exclusive and released only when the tail leaves,
//! * the head at hop `h` waits on the candidate channel(s) of hop `h + 1`
//!   (a singleton under `AssignedVc`: the route's assigned channel, derived
//!   here from [`RouteSet`] + [`VcMap`]); the final hop always ejects.
//!
//! A **trap** is a set of worms `{(flow_i, h_i)}` with distinct flows,
//! `h_i ≤ len_i − 2`, pairwise-disjoint footprints, where every worm's
//! candidate channels all lie inside the footprints of worms in the set
//! (OR-semantics, mirroring `noc_sim::detect`'s liveness propagation: one
//! uncovered candidate is an escape).  A trap is inescapable by
//! construction — the worm wait-for digraph is a *knot*
//! ([`noc_graph::knots`]) — and, under the model above, reachable by greedy
//! injection, so:
//!
//! * [`CertifyVerdict::CertifiedFree`] soundly implies the runtime wait-for
//!   graph never fires for long-worm workloads, and
//! * [`CertifyVerdict::CertifiedDeadlockable`] carries a machine-checkable
//!   [`TrapWitness`] (see [`TrapWitness::verify`]).
//!
//! The search is exhaustive over minimal traps: every minimal trap is a worm
//! cycle whose wait segments live inside one cyclic CDG component, so the
//! backtracking is seeded per component and covers uncovered wait channels
//! one at a time.  A step budget of two million worm placements bounds the
//! worst case; exhausting it yields [`CertifyVerdict::Unknown`], never a
//! wrong verdict.
//!
//! # Example
//!
//! ```
//! use noc_deadlock::certify::{certify_deadlock_free, CertifyVerdict};
//! use noc_routing::{Route, RouteSet};
//! use noc_topology::{FlowId, Topology};
//!
//! // Figure 1 of the paper: four flows on a unidirectional ring.
//! let mut topo = Topology::new();
//! let sw: Vec<_> = (0..4).map(|i| topo.add_switch(format!("s{i}"))).collect();
//! let links: Vec<_> = (0..4)
//!     .map(|i| topo.add_link(sw[i], sw[(i + 1) % 4], 1.0))
//!     .collect();
//! let mut routes = RouteSet::new(4);
//! routes.set_route(FlowId::from_index(0), Route::from_links([links[0], links[1], links[2]]));
//! routes.set_route(FlowId::from_index(1), Route::from_links([links[2], links[3]]));
//! routes.set_route(FlowId::from_index(2), Route::from_links([links[3], links[0]]));
//! routes.set_route(FlowId::from_index(3), Route::from_links([links[0], links[1]]));
//!
//! let report = certify_deadlock_free(&topo, &routes);
//! assert!(report.cyclic_cdg);
//! let CertifyVerdict::CertifiedDeadlockable(witness) = &report.verdict else {
//!     panic!("figure 1 must be trappable");
//! };
//! assert!(witness.verify(&topo, &routes).is_ok());
//! ```

use crate::cdg::Cdg;
use crate::vcmap::VcMap;
use noc_graph::{knots, scc, DiGraph, NodeId};
use noc_routing::RouteSet;
use noc_topology::{Channel, FlowId, Topology};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Maximum number of worm placements the backtracking search may try
/// across the whole design before giving up with [`CertifyVerdict::Unknown`].
const SEARCH_BUDGET: usize = 2_000_000;

/// One blocked worm of a [`TrapWitness`]: `flow`'s single in-flight packet
/// with its head having claimed hop `head_hop`, owning the footprint
/// `route[0..=head_hop]` and waiting on the candidate channel of hop
/// `head_hop + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapWorm {
    /// The flow whose packet is blocked.
    pub flow: FlowId,
    /// Hop index of the last claimed channel (`≤ route length − 2`).
    pub head_hop: usize,
}

impl fmt::Display for TrapWorm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.flow, self.head_hop)
    }
}

/// A trappable configuration: the evidence behind
/// [`CertifyVerdict::CertifiedDeadlockable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapWitness {
    /// The blocked worms, in search-discovery order.
    pub worms: Vec<TrapWorm>,
}

impl fmt::Display for TrapWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trap of {} worm(s): ", self.worms.len())?;
        for (i, worm) in self.worms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{worm}")?;
        }
        Ok(())
    }
}

/// Why a [`TrapWitness`] failed [`TrapWitness::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// The witness has no worms.
    Empty,
    /// A worm references a flow with no (or too short a) route.
    HeadHopOutOfRange {
        /// The offending worm.
        worm: TrapWorm,
        /// The hop count of the flow's route (0 when the route is absent).
        hops: usize,
    },
    /// Two worms share a flow — the model allows one in-flight packet per
    /// flow.
    DuplicateFlow(FlowId),
    /// Two worms claim the same channel — ownership is exclusive.
    OverlappingFootprints(Channel),
    /// A worm's wait channel is not covered by any footprint: the worm can
    /// escape, so the configuration drains.
    EscapableWorm {
        /// The worm with an escape.
        worm: TrapWorm,
        /// The uncovered candidate channel it would escape through.
        channel: Channel,
    },
    /// The worm wait-for digraph contains no knot — internal consistency
    /// check; unreachable for witnesses that pass the coverage checks.
    NoKnot,
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::Empty => write!(f, "witness has no worms"),
            WitnessError::HeadHopOutOfRange { worm, hops } => write!(
                f,
                "worm {worm} is out of range for a route of {hops} hop(s)"
            ),
            WitnessError::DuplicateFlow(flow) => {
                write!(f, "flow {flow} appears in more than one worm")
            }
            WitnessError::OverlappingFootprints(channel) => {
                write!(f, "channel {channel} is claimed by more than one worm")
            }
            WitnessError::EscapableWorm { worm, channel } => {
                write!(f, "worm {worm} can escape through uncovered {channel}")
            }
            WitnessError::NoKnot => write!(f, "worm wait-for digraph has no knot"),
        }
    }
}

impl Error for WitnessError {}

impl TrapWitness {
    /// The footprint of worm `index`: the channels `route[0..=head_hop]` its
    /// blocked packet owns.  Empty when the flow has no route.
    fn footprint(&self, routes: &RouteSet, index: usize) -> Vec<Channel> {
        let worm = self.worms[index];
        routes
            .route(worm.flow)
            .map(|route| route.channels()[..=worm.head_hop].to_vec())
            .unwrap_or_default()
    }

    /// Checks that the witness really is an inescapable configuration under
    /// the certified traffic model: structural sanity (distinct flows, head
    /// hops in range, exclusive footprints), full coverage of every worm's
    /// candidate wait channels, and — mirroring `noc_sim::detect`'s
    /// OR-liveness — that no worm can reach the escape node of the worm
    /// wait-for digraph, which must therefore contain a knot.
    ///
    /// # Errors
    ///
    /// Returns the first [`WitnessError`] found, in the order of the checks
    /// above.
    pub fn verify(&self, topology: &Topology, routes: &RouteSet) -> Result<(), WitnessError> {
        if self.worms.is_empty() {
            return Err(WitnessError::Empty);
        }
        let vcs = VcMap::from_design(topology, routes);
        let mut flows = HashSet::new();
        for &worm in &self.worms {
            let hops = routes
                .route(worm.flow)
                .map(|route| route.channels().len())
                .unwrap_or(0);
            if hops < 2 || worm.head_hop > hops - 2 {
                return Err(WitnessError::HeadHopOutOfRange { worm, hops });
            }
            if !flows.insert(worm.flow) {
                return Err(WitnessError::DuplicateFlow(worm.flow));
            }
        }
        // Exclusive ownership: map every claimed channel to its owning worm.
        let mut owner: HashMap<Channel, usize> = HashMap::new();
        for (index, _) in self.worms.iter().enumerate() {
            for channel in self.footprint(routes, index) {
                match owner.insert(channel, index) {
                    Some(previous) if previous != index => {
                        return Err(WitnessError::OverlappingFootprints(channel));
                    }
                    _ => {}
                }
            }
        }
        // Worm wait-for digraph: one node per worm plus an escape node; a
        // worm points at the owner of each candidate wait channel, or at the
        // escape node when a candidate is unowned.
        let mut graph: DiGraph<usize, ()> = DiGraph::new();
        let nodes: Vec<NodeId> = (0..self.worms.len()).map(|i| graph.add_node(i)).collect();
        let escape = graph.add_node(usize::MAX);
        let mut escapes: Vec<(TrapWorm, Channel)> = Vec::new();
        for (index, &worm) in self.worms.iter().enumerate() {
            let route = routes.route(worm.flow).expect("checked above");
            for candidate in wait_candidates(route.channels(), &vcs, worm.flow, worm.head_hop) {
                match owner.get(&candidate) {
                    Some(&covering) => {
                        graph.add_edge(nodes[index], nodes[covering], ());
                    }
                    None => {
                        graph.add_edge(nodes[index], escape, ());
                        escapes.push((worm, candidate));
                    }
                }
            }
        }
        if let Some(&(worm, channel)) = escapes.first() {
            return Err(WitnessError::EscapableWorm { worm, channel });
        }
        // With every candidate covered no worm reaches the escape node, so
        // the worm subgraph must contain a cyclic knot.
        if knots::is_knot_free(&graph) {
            return Err(WitnessError::NoKnot);
        }
        Ok(())
    }
}

/// Why [`certify_deadlock_free`] could not decide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnknownReason {
    /// The backtracking search hit its step budget before either finding a trap or exhausting the space.
    BudgetExhausted {
        /// Steps spent when the search gave up.
        steps: usize,
    },
    /// The search produced a witness that failed [`TrapWitness::verify`] —
    /// defensive; indicates an internal inconsistency rather than a property
    /// of the design.
    WitnessRejected {
        /// The verification failure, rendered.
        detail: String,
    },
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::BudgetExhausted { steps } => {
                write!(f, "search budget exhausted after {steps} step(s)")
            }
            UnknownReason::WitnessRejected { detail } => {
                write!(f, "search witness rejected: {detail}")
            }
        }
    }
}

/// The three-valued outcome of certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyVerdict {
    /// No trappable configuration exists: under the certified traffic model
    /// the runtime wait-for graph can never fire.
    CertifiedFree,
    /// A trappable configuration exists; the witness passes
    /// [`TrapWitness::verify`].
    CertifiedDeadlockable(TrapWitness),
    /// The search could not decide.
    Unknown(UnknownReason),
}

impl CertifyVerdict {
    /// Stable lower-case name for reports and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            CertifyVerdict::CertifiedFree => "certified-free",
            CertifyVerdict::CertifiedDeadlockable(_) => "certified-deadlockable",
            CertifyVerdict::Unknown(_) => "unknown",
        }
    }
}

impl fmt::Display for CertifyVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyVerdict::CertifiedDeadlockable(witness) => {
                write!(f, "{} ({witness})", self.name())
            }
            CertifyVerdict::Unknown(reason) => write!(f, "{} ({reason})", self.name()),
            CertifyVerdict::CertifiedFree => f.write_str(self.name()),
        }
    }
}

/// The result of [`certify_deadlock_free`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyReport {
    /// The three-valued verdict.
    pub verdict: CertifyVerdict,
    /// Whether the CDG was cyclic at all.  `cyclic_cdg` together with a
    /// [`CertifyVerdict::CertifiedFree`] verdict marks a *conservatism-gap*
    /// point: the paper's check condemns the design, yet it cannot trap.
    pub cyclic_cdg: bool,
    /// Worm placements the backtracking search tried (0 on the acyclic fast
    /// path).
    pub search_steps: usize,
}

impl CertifyReport {
    /// The acyclic fast path's report: with no CDG cycle there is no trap
    /// to search for, so the design is certified free after zero steps.
    pub fn acyclic() -> Self {
        CertifyReport {
            verdict: CertifyVerdict::CertifiedFree,
            cyclic_cdg: false,
            search_steps: 0,
        }
    }

    /// The witness, when the design is certified deadlockable.
    pub fn witness(&self) -> Option<&TrapWitness> {
        match &self.verdict {
            CertifyVerdict::CertifiedDeadlockable(witness) => Some(witness),
            _ => None,
        }
    }
}

/// Certifies `routes` on `topology`: decides whether a trappable
/// configuration (see the module docs) exists, exactly, up to the search
/// budget.
pub fn certify_deadlock_free(topology: &Topology, routes: &RouteSet) -> CertifyReport {
    certify_within(topology, routes, SEARCH_BUDGET)
}

/// [`certify_deadlock_free`] with an explicit step budget.
fn certify_within(topology: &Topology, routes: &RouteSet, budget: usize) -> CertifyReport {
    let cdg = Cdg::build(topology, routes);
    if cdg.is_acyclic() {
        return CertifyReport::acyclic();
    }
    let vcs = VcMap::from_design(topology, routes);
    // Every (channel → occurrences in routes) pair, in flow order: the
    // branch universe for covering an uncovered wait channel.
    let mut occurrences: HashMap<Channel, Vec<(FlowId, usize)>> = HashMap::new();
    for (flow, route) in routes.iter() {
        for (position, &channel) in route.channels().iter().enumerate() {
            occurrences
                .entry(channel)
                .or_default()
                .push((flow, position));
        }
    }
    let mut steps = 0usize;
    for component in scc::cyclic_components(cdg.graph()) {
        let in_scc: HashSet<Channel> = component
            .iter()
            .map(|&node| *cdg.graph().node_weight(node).expect("scc node"))
            .collect();
        match search_component(routes, &vcs, &occurrences, &in_scc, budget, &mut steps) {
            SearchOutcome::Found(worms) => {
                let witness = TrapWitness { worms };
                let verdict = match witness.verify(topology, routes) {
                    Ok(()) => CertifyVerdict::CertifiedDeadlockable(witness),
                    Err(error) => CertifyVerdict::Unknown(UnknownReason::WitnessRejected {
                        detail: error.to_string(),
                    }),
                };
                return CertifyReport {
                    verdict,
                    cyclic_cdg: true,
                    search_steps: steps,
                };
            }
            SearchOutcome::Exhausted => {
                return CertifyReport {
                    verdict: CertifyVerdict::Unknown(UnknownReason::BudgetExhausted { steps }),
                    cyclic_cdg: true,
                    search_steps: steps,
                };
            }
            SearchOutcome::NotFound => {}
        }
    }
    CertifyReport {
        verdict: CertifyVerdict::CertifiedFree,
        cyclic_cdg: true,
        search_steps: steps,
    }
}

/// The candidate channels a worm of `flow` blocked at `head_hop` waits on:
/// the hop-`head_hop + 1` channels the policy may use.  Under `AssignedVc`
/// this is the single channel the [`VcMap`] assigns.
fn wait_candidates(
    channels: &[Channel],
    vcs: &VcMap,
    flow: FlowId,
    head_hop: usize,
) -> Vec<Channel> {
    let hop = head_hop + 1;
    let link = channels[hop].link;
    let vc = vcs.assigned_vc(flow, hop).unwrap_or(channels[hop].vc);
    vec![Channel::new(link, vc)]
}

enum SearchOutcome {
    Found(Vec<TrapWorm>),
    Exhausted,
    NotFound,
}

struct SearchState {
    worms: Vec<TrapWorm>,
    used_flows: HashSet<FlowId>,
    footprint: HashSet<Channel>,
    /// Wait channels still needing coverage, as a stack.  Entries may be
    /// covered lazily by a later worm's footprint; that is re-checked when
    /// an entry is popped.
    uncovered: Vec<Channel>,
}

struct WormUndo {
    claimed: Vec<Channel>,
    pushed_waits: usize,
}

impl SearchState {
    fn new() -> Self {
        SearchState {
            worms: Vec::new(),
            used_flows: HashSet::new(),
            footprint: HashSet::new(),
            uncovered: Vec::new(),
        }
    }

    /// Tries to add worm `(flow, head_hop)`: claims its footprint (failing
    /// on any overlap with another worm's) and pushes its still-uncovered
    /// wait channels.  Returns the undo record on success.
    fn push_worm(
        &mut self,
        routes: &RouteSet,
        vcs: &VcMap,
        flow: FlowId,
        head_hop: usize,
    ) -> Option<WormUndo> {
        let channels = routes.route(flow).expect("flow has a route").channels();
        let mut claimed = Vec::new();
        for &channel in &channels[..=head_hop] {
            if self.footprint.insert(channel) {
                claimed.push(channel);
            } else if !claimed.contains(&channel) {
                // Owned by an earlier worm (a route may revisit its *own*
                // channels, which is fine): conflict, roll back.
                for undo in claimed {
                    self.footprint.remove(&undo);
                }
                return None;
            }
        }
        let mut pushed_waits = 0;
        for candidate in wait_candidates(channels, vcs, flow, head_hop) {
            if !self.footprint.contains(&candidate) {
                self.uncovered.push(candidate);
                pushed_waits += 1;
            }
        }
        self.used_flows.insert(flow);
        self.worms.push(TrapWorm { flow, head_hop });
        Some(WormUndo {
            claimed,
            pushed_waits,
        })
    }

    fn pop_worm(&mut self, undo: WormUndo) {
        let worm = self.worms.pop().expect("push/pop pairing");
        self.used_flows.remove(&worm.flow);
        for _ in 0..undo.pushed_waits {
            self.uncovered.pop();
        }
        for channel in undo.claimed {
            self.footprint.remove(&channel);
        }
    }
}

/// Seeds the backtracking search from every anchor worm of one cyclic CDG
/// component: a `(flow, h)` whose hop pair `(route[h], route[h+1])` lies in
/// the component.  Every minimal trap contains such an anchor.
fn search_component(
    routes: &RouteSet,
    vcs: &VcMap,
    occurrences: &HashMap<Channel, Vec<(FlowId, usize)>>,
    in_scc: &HashSet<Channel>,
    budget: usize,
    steps: &mut usize,
) -> SearchOutcome {
    for (flow, route) in routes.iter() {
        let channels = route.channels();
        if channels.len() < 2 {
            continue;
        }
        for head_hop in 0..channels.len() - 1 {
            if !in_scc.contains(&channels[head_hop]) || !in_scc.contains(&channels[head_hop + 1]) {
                continue;
            }
            *steps += 1;
            if *steps > budget {
                return SearchOutcome::Exhausted;
            }
            let mut state = SearchState::new();
            let undo = state
                .push_worm(routes, vcs, flow, head_hop)
                .expect("first worm cannot conflict");
            match cover_next(&mut state, routes, vcs, occurrences, in_scc, budget, steps) {
                SearchOutcome::NotFound => state.pop_worm(undo),
                found_or_exhausted => return found_or_exhausted,
            }
        }
    }
    SearchOutcome::NotFound
}

/// Pops the next uncovered wait channel and branches over every worm that
/// could cover it without overlapping the configuration built so far.  An
/// empty stack means every worm is fully covered: a trap.
fn cover_next(
    state: &mut SearchState,
    routes: &RouteSet,
    vcs: &VcMap,
    occurrences: &HashMap<Channel, Vec<(FlowId, usize)>>,
    in_scc: &HashSet<Channel>,
    budget: usize,
    steps: &mut usize,
) -> SearchOutcome {
    let Some(channel) = state.uncovered.pop() else {
        return SearchOutcome::Found(state.worms.clone());
    };
    let outcome = cover_channel(
        state,
        channel,
        routes,
        vcs,
        occurrences,
        in_scc,
        budget,
        steps,
    );
    state.uncovered.push(channel);
    outcome
}

#[allow(clippy::too_many_arguments)]
fn cover_channel(
    state: &mut SearchState,
    channel: Channel,
    routes: &RouteSet,
    vcs: &VcMap,
    occurrences: &HashMap<Channel, Vec<(FlowId, usize)>>,
    in_scc: &HashSet<Channel>,
    budget: usize,
    steps: &mut usize,
) -> SearchOutcome {
    if state.footprint.contains(&channel) {
        // A worm added after this entry was pushed already covers it.
        return cover_next(state, routes, vcs, occurrences, in_scc, budget, steps);
    }
    let Some(positions) = occurrences.get(&channel) else {
        return SearchOutcome::NotFound;
    };
    for &(flow, position) in positions {
        if state.used_flows.contains(&flow) {
            continue;
        }
        let channels = routes
            .route(flow)
            .expect("occurrence has a route")
            .channels();
        if channels.len() < 2 {
            continue;
        }
        // Grow the head hop from the covering position while the wait
        // segment stays inside the component (the minimal-trap invariant).
        for head_hop in position..channels.len() - 1 {
            if !in_scc.contains(&channels[head_hop + 1]) {
                break;
            }
            *steps += 1;
            if *steps > budget {
                return SearchOutcome::Exhausted;
            }
            let Some(undo) = state.push_worm(routes, vcs, flow, head_hop) else {
                continue;
            };
            match cover_next(state, routes, vcs, occurrences, in_scc, budget, steps) {
                SearchOutcome::NotFound => state.pop_worm(undo),
                found_or_exhausted => return found_or_exhausted,
            }
        }
    }
    SearchOutcome::NotFound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure_1_design;
    use noc_routing::Route;

    #[test]
    fn figure_1_is_certified_deadlockable_with_a_valid_witness() {
        let (topo, routes) = figure_1_design();
        let report = certify_deadlock_free(&topo, &routes);
        assert!(report.cyclic_cdg);
        assert!(report.search_steps > 0);
        let witness = report.witness().expect("figure 1 traps");
        witness.verify(&topo, &routes).expect("witness is valid");
        assert!(witness.worms.len() >= 2);
        let flows: HashSet<_> = witness.worms.iter().map(|w| w.flow).collect();
        assert_eq!(flows.len(), witness.worms.len());
    }

    #[test]
    fn acyclic_design_uses_the_fast_path() {
        let mut topo = Topology::new();
        let sw: Vec<_> = (0..3).map(|i| topo.add_switch(format!("s{i}"))).collect();
        let l0 = topo.add_link(sw[0], sw[1], 1.0);
        let l1 = topo.add_link(sw[1], sw[2], 1.0);
        let mut routes = RouteSet::new(2);
        routes.set_route(FlowId::from_index(0), Route::from_links([l0, l1]));
        routes.set_route(FlowId::from_index(1), Route::from_links([l1]));
        let report = certify_deadlock_free(&topo, &routes);
        assert_eq!(report.verdict, CertifyVerdict::CertifiedFree);
        assert!(!report.cyclic_cdg);
        assert_eq!(report.search_steps, 0);
        assert_eq!(report, CertifyReport::acyclic());
    }

    #[test]
    fn cyclic_but_untrappable_design_is_certified_free() {
        // Two flows that both start on the same channel c0, then disagree on
        // the order of c1 and c2.  The CDG has the cycle c1 -> c2 -> c1, but
        // any two worms would both need c0, so no disjoint-footprint trap
        // exists: whichever flow claims c0 first streams and delivers.
        let mut topo = Topology::new();
        let a = topo.add_switch("a");
        let b = topo.add_switch("b");
        let c0 = topo.add_link(a, b, 1.0);
        let c1 = topo.add_link(b, a, 1.0);
        let c2 = topo.add_link(b, a, 1.0);
        let mut routes = RouteSet::new(2);
        routes.set_route(FlowId::from_index(0), Route::from_links([c0, c1, c2]));
        routes.set_route(FlowId::from_index(1), Route::from_links([c0, c2, c1]));
        let report = certify_deadlock_free(&topo, &routes);
        assert!(report.cyclic_cdg, "the CDG is cyclic");
        assert_eq!(
            report.verdict,
            CertifyVerdict::CertifiedFree,
            "yet nothing can trap"
        );
        assert!(report.search_steps > 0);
    }

    #[test]
    fn self_waiting_route_is_certified_deadlockable() {
        // A route revisiting its own first channel: the worm fills c0 and
        // c1, then waits on c0 — which it owns itself and which can never
        // drain because the whole worm is stalled.
        let mut topo = Topology::new();
        let a = topo.add_switch("a");
        let b = topo.add_switch("b");
        let c0 = topo.add_link(a, b, 1.0);
        let c1 = topo.add_link(b, a, 1.0);
        let mut routes = RouteSet::new(1);
        routes.set_route(FlowId::from_index(0), Route::from_links([c0, c1, c0]));
        let report = certify_deadlock_free(&topo, &routes);
        let witness = report.witness().expect("self-trap");
        assert_eq!(witness.worms.len(), 1);
        witness.verify(&topo, &routes).expect("single-worm knot");
    }

    #[test]
    fn zero_budget_reports_unknown() {
        let (topo, routes) = figure_1_design();
        let report = certify_within(&topo, &routes, 0);
        assert!(matches!(
            report.verdict,
            CertifyVerdict::Unknown(UnknownReason::BudgetExhausted { .. })
        ));
        assert!(report.cyclic_cdg);
    }

    #[test]
    fn certification_is_deterministic() {
        let (topo, routes) = figure_1_design();
        let first = certify_deadlock_free(&topo, &routes);
        let second = certify_deadlock_free(&topo, &routes);
        assert_eq!(first, second);
    }

    #[test]
    fn witness_verification_rejects_tampering() {
        let (topo, routes) = figure_1_design();
        let escapable = TrapWitness {
            worms: vec![TrapWorm {
                flow: FlowId::from_index(0),
                head_hop: 1,
            }],
        };
        assert!(matches!(
            escapable.verify(&topo, &routes),
            Err(WitnessError::EscapableWorm { .. })
        ));

        let duplicated = TrapWitness {
            worms: vec![
                TrapWorm {
                    flow: FlowId::from_index(0),
                    head_hop: 1,
                },
                TrapWorm {
                    flow: FlowId::from_index(0),
                    head_hop: 0,
                },
            ],
        };
        assert!(matches!(
            duplicated.verify(&topo, &routes),
            Err(WitnessError::DuplicateFlow(_))
        ));

        let out_of_range = TrapWitness {
            worms: vec![TrapWorm {
                flow: FlowId::from_index(1),
                head_hop: 1,
            }],
        };
        assert!(matches!(
            out_of_range.verify(&topo, &routes),
            Err(WitnessError::HeadHopOutOfRange { .. })
        ));

        assert_eq!(
            TrapWitness { worms: vec![] }.verify(&topo, &routes),
            Err(WitnessError::Empty)
        );
    }

    #[test]
    fn overlapping_footprints_are_rejected() {
        let (topo, routes) = figure_1_design();
        // Flows 0 and 3 share channels L0 and L1.
        let overlapping = TrapWitness {
            worms: vec![
                TrapWorm {
                    flow: FlowId::from_index(0),
                    head_hop: 1,
                },
                TrapWorm {
                    flow: FlowId::from_index(3),
                    head_hop: 0,
                },
            ],
        };
        assert!(matches!(
            overlapping.verify(&topo, &routes),
            Err(WitnessError::OverlappingFootprints(_))
        ));
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(CertifyVerdict::CertifiedFree.name(), "certified-free");
        let (topo, routes) = figure_1_design();
        let report = certify_deadlock_free(&topo, &routes);
        assert_eq!(report.verdict.name(), "certified-deadlockable");
        assert!(report.verdict.to_string().contains("worm"));
    }
}
