//! Algorithm 1: the deadlock-removal loop.
//!
//! Repeatedly: find the smallest cycle of the CDG, compute the cheapest way
//! to break it (forward or backward, Algorithm 2), duplicate the required
//! channels by adding VCs to the topology, re-route the offending flows onto
//! the new channels, and update the CDG.  Terminates when the CDG is
//! acyclic.
//!
//! The CDG update is incremental: a break only changes the dependencies of
//! the flows it re-routed, so the loop applies exactly those deltas
//! (`Cdg::remove_flow_deps` / `Cdg::add_flow_deps`) instead of
//! rebuilding the whole graph from scratch every iteration, and the next
//! smallest-cycle query finds the changed edges by itself.
//! [`remove_deadlocks_rebuilding`] keeps the from-scratch path as a
//! reference oracle; both produce identical reports
//! ([`RemovalReport::same_outcome`]), which the equivalence tests assert
//! over the full benchmark grids.
//!
//! Each iteration costs what its cycle touches.  The cost tables visit only
//! the flows the CDG lists on the cycle's edges (`cost_tables`), the
//! cheaper direction comes from one chooser
//! (`CycleCosts::best_break`,
//! masked by the [`DirectionPolicy`]), and the flows re-routed are the
//! chosen edge's CDG flow list in ascending order — the order a scan of the
//! route set would meet them in, so re-routes and CDG deltas apply in the
//! same order as the paper's route scan.  Both loops, incremental and
//! rebuilding, read these from their own CDG.

use crate::cdg::{Cdg, CdgDelta};
use crate::cost::{cost_tables, Direction};
use crate::report::{BreakStep, CdgDeltaStats, RemovalReport};
use noc_graph::cycles::IncrementalCycleFinder;
use noc_routing::RouteSet;
use noc_topology::{Channel, FlowId, Topology, TopologyError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Which directions Algorithm 1 is allowed to consider.  The paper always
/// checks both; the restricted variants exist for the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectionPolicy {
    /// Check forward and backward and pick the cheaper (the paper's Step 7).
    #[default]
    Both,
    /// Only ever break in the forward direction.
    ForwardOnly,
    /// Only ever break in the backward direction.
    BackwardOnly,
}

impl DirectionPolicy {
    /// `true` when the policy lets Algorithm 1 break in `direction`.
    pub(crate) fn allows(self, direction: Direction) -> bool {
        match self {
            DirectionPolicy::Both => true,
            DirectionPolicy::ForwardOnly => direction == Direction::Forward,
            DirectionPolicy::BackwardOnly => direction == Direction::Backward,
        }
    }
}

/// Configuration of a removal run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemovalConfig {
    /// Direction policy (ablation hook; default = both, as in the paper).
    pub direction: DirectionPolicy,
    /// Safety bound on the number of cycles broken before giving up.
    pub max_iterations: usize,
}

impl Default for RemovalConfig {
    fn default() -> Self {
        RemovalConfig {
            direction: DirectionPolicy::Both,
            max_iterations: 100_000,
        }
    }
}

/// Errors reported by [`remove_deadlocks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemovalError {
    /// A cycle was found but no flow creates any of its dependencies — the
    /// route set and the CDG are inconsistent.
    InconsistentCycle {
        /// The cycle that could not be attributed to any flow.
        cycle: Vec<Channel>,
    },
    /// The iteration bound was exceeded (indicates a bug or an adversarial
    /// input, never observed on the benchmark suite).
    IterationLimit {
        /// The configured bound that was hit.
        limit: usize,
    },
    /// Adding a VC failed because a cycle referenced an unknown link.
    Topology(TopologyError),
}

impl fmt::Display for RemovalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemovalError::InconsistentCycle { cycle } => {
                write!(f, "cycle of length {} has no responsible flow", cycle.len())
            }
            RemovalError::IterationLimit { limit } => {
                write!(f, "exceeded the iteration limit of {limit} cycle breaks")
            }
            RemovalError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl Error for RemovalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RemovalError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for RemovalError {
    fn from(e: TopologyError) -> Self {
        RemovalError::Topology(e)
    }
}

/// Runs Algorithm 1 on the design, mutating `topology` (extra VCs) and
/// `routes` (flows re-routed onto the new VCs) in place.
///
/// On success the CDG of `(topology, routes)` is acyclic and the returned
/// [`RemovalReport`] describes what was added.  The routes keep using the
/// same physical links, so bandwidth assignments and the core attachment are
/// unaffected — only VC indices change, which is exactly the paper's claim
/// that the method adds "minimal virtual or physical channels".
///
/// # Errors
///
/// See [`RemovalError`]; none of the error cases occur for route sets
/// produced by `noc-routing` over a consistent topology.
pub fn remove_deadlocks(
    topology: &mut Topology,
    routes: &mut RouteSet,
    config: &RemovalConfig,
) -> Result<RemovalReport, RemovalError> {
    run_removal(topology, routes, config, true)
}

/// [`remove_deadlocks`] with the CDG rebuilt from scratch after every cycle
/// break instead of patched incrementally: the definition the incremental
/// loop is checked against.  It returns the same report
/// ([`RemovalReport::same_outcome`]) and the same repaired design, at a
/// higher cost per iteration, so it only serves as a test oracle.
///
/// # Errors
///
/// As [`remove_deadlocks`].
pub fn remove_deadlocks_rebuilding(
    topology: &mut Topology,
    routes: &mut RouteSet,
    config: &RemovalConfig,
) -> Result<RemovalReport, RemovalError> {
    run_removal(topology, routes, config, false)
}

/// The removal loop, patching the CDG per break when `incremental` and
/// rebuilding it otherwise.
fn run_removal(
    topology: &mut Topology,
    routes: &mut RouteSet,
    config: &RemovalConfig,
    incremental: bool,
) -> Result<RemovalReport, RemovalError> {
    let mut report = RemovalReport::default();
    let mut removal_span = noc_telemetry::span("removal", "remove_deadlocks");
    removal_span.arg(
        "cdg_mode",
        if incremental {
            "incremental"
        } else {
            "rebuild"
        },
    );
    let mut finder = IncrementalCycleFinder::new();

    // Step 2–3: build the CDG and look for an initial cycle.
    let mut cdg = {
        let _span = noc_telemetry::span("removal", "cdg_build");
        Cdg::build(topology, routes)
    };
    report.cdg.full_builds = 1;
    let mut cycle = {
        let _span = noc_telemetry::span("removal", "cycle_search");
        if incremental {
            cdg.smallest_cycle_with(&mut finder, [])
        } else {
            cdg.smallest_cycle()
        }
    };
    if cycle.is_none() {
        report.already_deadlock_free = true;
        return Ok(report);
    }

    // Step 4–14: break cycles until none remain.
    while let Some(current) = cycle {
        let mut iter_span = noc_telemetry::span("removal", "iteration");
        iter_span.arg("cycle_len", current.len());
        if report.cycles_broken >= config.max_iterations {
            return Err(RemovalError::IterationLimit {
                limit: config.max_iterations,
            });
        }

        // Steps 5–7: cost of breaking in each direction; pick the cheaper
        // allowed one (ties favour forward).
        let Some((cost, pos, direction)) =
            cost_tables(&current, &cdg, routes).best_break(config.direction)
        else {
            return Err(RemovalError::InconsistentCycle { cycle: current });
        };

        // Steps 8–10: break the cycle by duplicating channels and re-routing
        // the flows that create the chosen dependency, in ascending order.
        let offending = creating_flows(&cdg, current[pos], current[(pos + 1) % current.len()]);
        let outcome = break_cycle(topology, routes, &current, pos, cost, direction, &offending)?;

        report.cycles_broken += 1;
        report.added_vcs += cost;
        noc_telemetry::counter("removal.cycles_broken", 1);
        noc_telemetry::counter("removal.added_vcs", cost as u64);
        iter_span
            .arg("vcs_added", cost)
            .arg(
                "direction",
                match direction {
                    Direction::Forward => "forward",
                    Direction::Backward => "backward",
                },
            )
            .arg("flows_rerouted", outcome.flows_rerouted);
        report.steps.push(BreakStep {
            cycle_len: current.len(),
            direction,
            vcs_added: cost,
            flows_rerouted: outcome.flows_rerouted,
        });

        // Step 12–13: bring the CDG up to date with the re-routed design,
        // then search for the next cycle.
        cycle = if incremental {
            // Only the re-routed flows' dependencies changed: apply their
            // deltas.  The finder reads the edits off the graph by itself;
            // the break only moved flows onto copies of the cycle's
            // channels, which it declares.
            let mut delta = CdgDelta::default();
            for &channel in &outcome.new_channels {
                cdg.register_channel(channel, &mut delta);
            }
            for (flow, old_channels) in &outcome.rerouted {
                cdg.remove_flow_deps(*flow, old_channels, &mut delta);
                let new_channels = routes
                    .route(*flow)
                    .expect("re-routed flows exist in the route set")
                    .channels();
                cdg.add_flow_deps(*flow, new_channels, &mut delta);
            }
            let dirty_nodes = delta.touched_nodes().len();
            iter_span.arg("dirty_nodes", dirty_nodes);
            noc_telemetry::histogram("removal.dirty_region", dirty_nodes as u64);
            report.cdg.step_deltas.push(CdgDeltaStats {
                deps_removed: delta.deps_removed,
                deps_added: delta.deps_added,
                channels_added: delta.channels_added,
                dirty_nodes,
            });
            let copies = outcome.new_channels.iter().copied();
            let copies = copies.zip(outcome.to_duplicate.iter().copied());
            let _span = noc_telemetry::span("removal", "cycle_search");
            cdg.smallest_cycle_with(&mut finder, copies)
        } else {
            cdg = {
                let _span = noc_telemetry::span("removal", "cdg_build");
                Cdg::build(topology, routes)
            };
            report.cdg.full_builds += 1;
            let _span = noc_telemetry::span("removal", "cycle_search");
            cdg.smallest_cycle()
        };
    }

    Ok(report)
}

/// What one [`break_cycle`] call did, with the bookkeeping the incremental
/// CDG update needs: which flows moved (and the route each had *before* the
/// move) and which channels were created.
struct BreakOutcome {
    /// Number of flows that were re-routed.
    flows_rerouted: usize,
    /// Each re-routed flow with its pre-break channel list; the post-break
    /// list is the flow's current route.
    rerouted: Vec<(FlowId, Vec<Channel>)>,
    /// The VCs this break added, in creation order.
    new_channels: Vec<Channel>,
    /// The channel each of `new_channels` duplicates, in the same order.
    to_duplicate: Vec<Channel>,
}

/// Breaks the dependency `pos` of `cycle` in the given direction
/// (`BreakCycleForward` / `BreakCycleBackward`): adds `cost` VCs, re-routes
/// every `offending` flow (the flows that create the dependency) onto them
/// and thereby removes the dependency edge.
fn break_cycle(
    topology: &mut Topology,
    routes: &mut RouteSet,
    cycle: &[Channel],
    pos: usize,
    cost: usize,
    direction: Direction,
    offending: &[FlowId],
) -> Result<BreakOutcome, RemovalError> {
    let len = cycle.len();
    let from = cycle[pos];
    let to = cycle[(pos + 1) % len];

    // Channels to duplicate, walking along the cycle away from the removed
    // dependency: backwards from `from` for the forward direction, forwards
    // from `to` for the backward direction.
    let mut to_duplicate = Vec::with_capacity(cost);
    for step in 0..cost {
        let channel = match direction {
            Direction::Forward => cycle[(pos + len - step) % len],
            Direction::Backward => cycle[(pos + 1 + step) % len],
        };
        to_duplicate.push(channel);
    }

    // Add one new VC per duplicated channel.
    let mut duplicates: HashMap<Channel, Channel> = HashMap::with_capacity(cost);
    let mut new_channels = Vec::with_capacity(cost);
    for &channel in &to_duplicate {
        let new_channel = topology.add_vc(channel.link)?;
        duplicates.insert(channel, new_channel);
        new_channels.push(new_channel);
    }

    // Re-route every flow that creates the removed dependency.  A route may
    // traverse the `from -> to` pair more than once (flows that re-enter the
    // cycle); every occurrence must move onto the duplicates, otherwise the
    // dependency edge survives the break and the loop re-breaks the same
    // cycle, burning extra VCs.
    let mut rerouted: Vec<(FlowId, Vec<Channel>)> = Vec::with_capacity(offending.len());
    for &flow in offending {
        let channels = routes
            .route_mut(flow)
            .expect("offending flows exist in the route set");
        let old_channels = channels.to_vec();
        let mut modified = false;
        // Scan for every position of the `from -> to` pair.  Replacements
        // only ever rewrite channels at or before (forward) / after
        // (backward) the current occurrence, and rewrite the matched
        // channel itself, so an ascending scan visits each occurrence once.
        let mut p = 0;
        while p + 1 < channels.len() {
            if !(channels[p] == from && channels[p + 1] == to) {
                p += 1;
                continue;
            }
            modified = true;
            match direction {
                Direction::Forward => {
                    // Replace `from` and the contiguous duplicated channels
                    // preceding it in this route.
                    let mut i = p as isize;
                    while i >= 0 {
                        if let Some(&dup) = duplicates.get(&channels[i as usize]) {
                            channels[i as usize] = dup;
                            i -= 1;
                        } else {
                            break;
                        }
                    }
                }
                Direction::Backward => {
                    // Replace `to` and the contiguous duplicated channels
                    // following it in this route.
                    let mut i = p + 1;
                    while i < channels.len() {
                        if let Some(&dup) = duplicates.get(&channels[i]) {
                            channels[i] = dup;
                            i += 1;
                        } else {
                            break;
                        }
                    }
                }
            }
            p += 1;
        }
        if modified {
            rerouted.push((flow, old_channels));
        }
    }
    Ok(BreakOutcome {
        flows_rerouted: rerouted.len(),
        rerouted,
        new_channels,
        to_duplicate,
    })
}

/// The flows that create the dependency `from -> to`, read off the CDG and
/// sorted ascending: the order a scan of the route set meets them in, so
/// flows are re-routed and their CDG deltas applied in that order.
pub(crate) fn creating_flows(cdg: &Cdg, from: Channel, to: Channel) -> Vec<FlowId> {
    let mut flows = cdg
        .dependency_flows(from, to)
        .map(<[FlowId]>::to_vec)
        .unwrap_or_default();
    flows.sort_unstable();
    flows
}

/// The flows whose route contains the channel pair `from` immediately
/// followed by `to`, found by scanning every route: the reference for the
/// CDG's per-dependency flow lists the removal loop reads instead.
#[cfg(test)]
pub(crate) fn offending_flows(routes: &RouteSet, from: Channel, to: Channel) -> Vec<FlowId> {
    routes
        .iter()
        .filter(|(_, r)| r.channels().windows(2).any(|w| w[0] == from && w[1] == to))
        .map(|(f, _)| f)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure_1_design;
    use crate::verify;
    use noc_routing::Route;
    use noc_topology::{FlowId, LinkId};

    #[test]
    fn figure_1_is_fixed_with_exactly_one_extra_vc() {
        let (mut topo, mut routes) = figure_1_design();
        let report = remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default()).unwrap();
        assert!(!report.already_deadlock_free);
        assert_eq!(report.cycles_broken, 1);
        assert_eq!(report.added_vcs, 1);
        assert_eq!(topo.extra_vc_count(), 1);
        assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
    }

    #[test]
    fn figure_4_rerouted_flows_keep_their_physical_links() {
        let (mut topo, mut routes) = figure_1_design();
        let before: Vec<Vec<LinkId>> = routes.iter().map(|(_, r)| r.links().collect()).collect();
        remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default()).unwrap();
        let after: Vec<Vec<LinkId>> = routes.iter().map(|(_, r)| r.links().collect()).collect();
        assert_eq!(before, after, "removal must only change VC assignments");
    }

    #[test]
    fn acyclic_input_is_reported_as_already_deadlock_free() {
        let (mut topo, mut routes) = figure_1_design();
        // Drop F3 (the flow closing the cycle): CDG becomes acyclic.
        routes.set_route(FlowId::from_index(2), Route::empty());
        let report = remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default()).unwrap();
        assert!(report.already_deadlock_free);
        assert_eq!(report.added_vcs, 0);
        assert_eq!(topo.extra_vc_count(), 0);
    }

    #[test]
    fn forward_only_and_backward_only_policies_also_terminate() {
        for direction in [DirectionPolicy::ForwardOnly, DirectionPolicy::BackwardOnly] {
            let (mut topo, mut routes) = figure_1_design();
            let config = RemovalConfig {
                direction,
                ..RemovalConfig::default()
            };
            let report = remove_deadlocks(&mut topo, &mut routes, &config).unwrap();
            assert!(report.added_vcs >= 1);
            assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
        }
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let (mut topo, mut routes) = figure_1_design();
        let config = RemovalConfig {
            max_iterations: 0,
            ..RemovalConfig::default()
        };
        let err = remove_deadlocks(&mut topo, &mut routes, &config).unwrap_err();
        assert_eq!(err, RemovalError::IterationLimit { limit: 0 });
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn two_counter_rotating_rings_need_two_vcs() {
        // Two disjoint cycles in the CDG: a clockwise ring of flows and a
        // counter-clockwise ring on the opposite links.
        let mut topo = Topology::new();
        let sw: Vec<_> = (0..4).map(|i| topo.add_switch(format!("s{i}"))).collect();
        let cw: Vec<LinkId> = (0..4)
            .map(|i| topo.add_link(sw[i], sw[(i + 1) % 4], 1.0))
            .collect();
        let ccw: Vec<LinkId> = (0..4)
            .map(|i| topo.add_link(sw[(i + 1) % 4], sw[i], 1.0))
            .collect();
        let mut routes = RouteSet::new(8);
        for i in 0..4 {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([cw[i], cw[(i + 1) % 4]]),
            );
            routes.set_route(
                FlowId::from_index(4 + i),
                Route::from_links([ccw[i], ccw[(i + 1) % 4]]),
            );
        }
        let mut report_topo = topo.clone();
        let mut report_routes = routes.clone();
        let report = remove_deadlocks(
            &mut report_topo,
            &mut report_routes,
            &RemovalConfig::default(),
        )
        .unwrap();
        assert!(verify::check_deadlock_free(&report_topo, &report_routes).is_ok());
        assert_eq!(report.cycles_broken, 2);
        assert_eq!(report.added_vcs, 2);
    }

    #[test]
    fn report_counts_flows_rerouted() {
        let (mut topo, mut routes) = figure_1_design();
        let report = remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default()).unwrap();
        // Breaking D1 (L0 -> L1) re-routes the two flows that create it (F1, F4).
        assert_eq!(report.steps.len(), 1);
        assert_eq!(report.steps[0].flows_rerouted, 2);
        assert_eq!(report.steps[0].cycle_len, 4);
    }

    /// A design whose only smallest cycle is broken at a dependency that one
    /// flow traverses twice: F0 goes around `A -> B`, detours through W1/W2,
    /// and crosses `A -> B` again.  F1 and F2 create the other two
    /// dependencies of the CDG cycle [A, B, C] at forward cost 3 each, so
    /// the forward cost table is [3, 3, 3] and the tie-break selects the
    /// doubled dependency `A -> B`.
    fn double_crossing_design() -> (Topology, RouteSet) {
        let mut topo = Topology::new();
        let s0 = topo.add_switch("s0");
        let s1 = topo.add_switch("s1");
        // Nine parallel links: A, B, C (the cycle), W1, W2 (F0's detour),
        // Y0, Y1 and Z0, Z1 (the detours of F1 and F2).
        let l: Vec<Channel> = (0..9)
            .map(|_| Channel::base(topo.add_link(s0, s1, 1.0)))
            .collect();
        let (a, b, c, w1, w2, y0, y1, z0, z1) =
            (l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7], l[8]);
        let mut routes = RouteSet::new(3);
        routes.set_route(
            FlowId::from_index(0),
            noc_routing::Route::new(vec![a, b, w1, w2, a, b]),
        );
        routes.set_route(
            FlowId::from_index(1),
            noc_routing::Route::new(vec![b, y0, c, y1, b, c]),
        );
        routes.set_route(
            FlowId::from_index(2),
            noc_routing::Route::new(vec![c, z0, a, z1, c, a]),
        );
        (topo, routes)
    }

    #[test]
    fn break_cycle_reroutes_every_occurrence_of_the_pair() {
        let (mut topo, mut routes) = double_crossing_design();
        let channels: Vec<Channel> = topo.channels().collect();
        let (a, b, c) = (channels[0], channels[1], channels[2]);
        // Break the dependency A -> B of the cycle [A, B, C] forward at
        // cost 1 (duplicate A only).
        let offending = offending_flows(&routes, a, b);
        let outcome = break_cycle(
            &mut topo,
            &mut routes,
            &[a, b, c],
            0,
            1,
            Direction::Forward,
            &offending,
        )
        .unwrap();
        assert_eq!(outcome.flows_rerouted, 1, "one flow crosses A -> B (twice)");
        assert_eq!(outcome.new_channels.len(), 1, "cost 1 adds one VC");
        assert_eq!(outcome.rerouted.len(), 1);
        assert_eq!(
            outcome.rerouted[0].1[0], a,
            "the captured route is the pre-break one"
        );
        // Both occurrences must have moved off the pair, otherwise the
        // dependency edge survives the break.
        assert!(
            offending_flows(&routes, a, b).is_empty(),
            "no route may still traverse the broken pair"
        );
        let f0 = routes.route(FlowId::from_index(0)).unwrap().channels();
        assert_eq!(f0[0], f0[4], "both crossings use the same duplicate");
        assert_ne!(f0[0], a);
    }

    #[test]
    fn multi_occurrence_pair_is_fully_rerouted_end_to_end() {
        let (mut topo, mut routes) = double_crossing_design();
        // Forward-only makes the cost analysis above exact: the first break
        // attacks the doubled dependency A -> B.
        let config = RemovalConfig {
            direction: DirectionPolicy::ForwardOnly,
            ..RemovalConfig::default()
        };
        let report = remove_deadlocks(&mut topo, &mut routes, &config).unwrap();
        assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
        assert_eq!(
            topo.extra_vc_count(),
            report.added_vcs,
            "every added VC is accounted for exactly once"
        );
        // One break per remaining cycle — re-breaking the same cycle because
        // an occurrence survived would inflate both counters.
        assert_eq!(report.cycles_broken, PINNED_CYCLES_BROKEN);
        assert_eq!(report.added_vcs, PINNED_ADDED_VCS);
    }

    // Pinned outcome of `multi_occurrence_pair_is_fully_rerouted_end_to_end`:
    // the algorithm is fully deterministic, so any change to these numbers
    // is a behavioural change of the removal loop.
    const PINNED_CYCLES_BROKEN: usize = 6;
    const PINNED_ADDED_VCS: usize = 11;

    #[test]
    fn error_display_for_inconsistent_cycle() {
        let err = RemovalError::InconsistentCycle {
            cycle: vec![Channel::base(LinkId::from_index(0))],
        };
        assert!(err.to_string().contains("no responsible flow"));
    }
}
