//! The VC-fidelity wormhole simulation engine.
//!
//! Routes are walked hop by hop with these fidelity properties:
//!
//! * buffer space is one input buffer per **(physical link × VC)** sized
//!   from the strategy's [`VcMap`], with
//!   explicit credit-based flow control ([`crate::credit`]) instead of
//!   buffer peeking;
//! * which VC a head flit requests is a pluggable [`VcPolicy`]
//!   ([`crate::policy`]): honour the strategy's static assignment, use it
//!   adaptively Duato-style, or deliberately ignore it (the unsafe
//!   single-VC baseline that makes VC budgets measurable);
//! * deadlock is decided **exactly** from the flit wait-for graph
//!   ([`crate::detect`]) — the check runs every
//!   [`detect_period`](VcSimConfig::detect_period) cycles and on every
//!   cycle without movement, so a knot is established within one period of
//!   forming (even while unrelated traffic still moves) and never later
//!   than the idle timeout, which is kept only as a configurable fallback;
//! * optionally, detected deadlocks are *drained* DBR-style: the knotted
//!   packets are pulled back to their sources, their flows are permanently
//!   reconfigured onto a deadlock-free recovery routing function, and the
//!   run continues — the dynamic execution of the `RecoveryReconfig`
//!   strategy;
//! * optionally, a [`FaultPlan`] fails and repairs links and switches
//!   mid-run, and each batch re-routes the affected flows in an epoch that
//!   commits only once the dependency graph of the committed routes and
//!   the in-flight residues is acyclic.
//!
//! The drain and the fault epochs write one per-flow route table (re-routes
//! over the static routes); admission, every pull-back and the epochs read
//! it through one lookup.

use crate::credit::CreditBook;
use crate::detect::{WaitGraph, WaitTarget};
use crate::fault::FaultPlan;
use crate::packet::Packet;
use crate::policy::{VcChoice, VcPolicy};
use crate::stats::SimStats;
use crate::traffic::{generate_workload, TrafficConfig, Workload};
use noc_deadlock::report::ReconfigStats;
use noc_deadlock::vcmap::VcMap;
use noc_routing::{Route, RouteSet, RouteView};
use noc_topology::{Channel, CommGraph, CoreMap, FaultSet, FlowId, LinkId, Topology};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod fault_epoch;
mod schedule;

use schedule::Schedule;

/// Parameters of a VC-fidelity simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcSimConfig {
    /// Depth of every per-(link × VC) input buffer, in flits.
    pub buffer_depth: usize,
    /// Cycles a returned credit takes to travel back upstream (0 = the
    /// credit is usable again the next cycle).
    pub credit_return_latency: u64,
    /// Hard cap on simulated cycles.
    pub max_cycles: u64,
    /// Run the exact wait-for-graph detector every `detect_period` cycles
    /// (it additionally runs on every cycle without any flit movement).
    /// 0 disables the exact detector entirely, leaving only the
    /// [`idle_timeout`](Self::idle_timeout) heuristic.
    pub detect_period: u64,
    /// Idle-timeout fallback: declare deadlock after this many consecutive
    /// cycles without movement while flits are in flight.  0 disables the
    /// heuristic entirely (the exact detector subsumes it).
    pub idle_timeout: u64,
}

impl Default for VcSimConfig {
    fn default() -> Self {
        VcSimConfig {
            buffer_depth: 2,
            credit_return_latency: 0,
            max_cycles: 2_000_000,
            detect_period: 64,
            idle_timeout: 1_024,
        }
    }
}

/// How a deadlock was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionKind {
    /// The exact flit wait-for-graph detector found a knot.
    WaitForGraph,
    /// The idle-timeout fallback tripped.
    IdleTimeout,
}

impl DetectionKind {
    /// Stable kebab-case name for artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            DetectionKind::WaitForGraph => "wait-for-graph",
            DetectionKind::IdleTimeout => "idle-timeout",
        }
    }
}

/// The first deadlock detection of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockEvent {
    /// Cycle at which the deadlock was established.
    pub cycle: u64,
    /// Detector that established it.
    pub kind: DetectionKind,
    /// Packets in the deadlocked set (0 for the timeout heuristic, which
    /// cannot attribute the deadlock).
    pub packets: usize,
}

/// Aggregate statistics of the DBR-style dynamic drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainStats {
    /// Deadlock-drain events executed.
    pub events: usize,
    /// Packets pulled back to their source across all events (a packet
    /// drained twice counts twice).
    pub packets_drained: usize,
    /// Flows permanently switched onto the recovery routing function.
    pub flows_reconfigured: usize,
}

/// Result of a VC-fidelity simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct VcSimOutcome {
    /// Latency / throughput statistics.
    pub stats: SimStats,
    /// `true` if the run ended in an unrecovered deadlock.
    pub deadlocked: bool,
    /// Packets still undelivered when the run ended.
    pub stranded_packets: usize,
    /// The first deadlock detection, if any (also set when every deadlock
    /// was drained successfully).
    pub detection: Option<DeadlockEvent>,
    /// Dynamic-drain statistics (all zero when no recovery routes are
    /// configured or no deadlock formed).
    pub drain: DrainStats,
    /// Name of the [`VcPolicy`] the run used.
    pub policy: String,
    /// The flows of the deadlocked packets at the *first* wait-for-graph
    /// detection (sorted, deduplicated; empty for idle-timeout detections
    /// and deadlock-free runs).  Lets a static trap witness be compared
    /// against the traffic the exact detector actually condemned.
    pub deadlock_flows: Vec<FlowId>,
    /// The `(link, vc)` channels the deadlocked packets had claimed at the
    /// first wait-for-graph detection — the runtime counterpart of the
    /// witness footprints (sorted, deduplicated).
    pub deadlock_channels: Vec<(LinkId, usize)>,
    /// Fault-reconfiguration statistics (all zero/empty when no
    /// [`FaultPlan`] is armed or no event fired).
    pub reconfig: ReconfigStats,
    /// Flows stranded by a topology partition when the run ended (sorted) —
    /// the typed `Unreachable` outcome, distinct from a deadlock or an
    /// idle-timeout.
    pub unreachable_flows: Vec<FlowId>,
    /// Packets dropped because their flow was unreachable: purged from the
    /// network when the partition struck, or refused at injection time
    /// afterwards.  `delivered + stranded + unreachable` accounts for every
    /// injected packet.
    pub unreachable_packets: usize,
    /// Committed route table after each reconfiguration epoch, for external
    /// re-verification of every commit (unreachable flows carry an empty
    /// route; empty when no [`FaultPlan`] is armed).
    pub reconfig_routes: Vec<RouteSet>,
}

/// The dense channels a head flit may claim at one hop, in the policy's
/// preference order.  Up to two live inline (every shipped policy offers at
/// most two); longer lists go to the heap, shared so that copying them into
/// a compiled queue head never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Candidates {
    Inline { len: u8, channels: [usize; 2] },
    Heap(Arc<[usize]>),
}

impl Candidates {
    fn new(channels: &[usize]) -> Self {
        match *channels {
            [a] => Candidates::Inline {
                len: 1,
                channels: [a, 0],
            },
            [a, b] => Candidates::Inline {
                len: 2,
                channels: [a, b],
            },
            _ => Candidates::Heap(channels.into()),
        }
    }

    fn as_slice(&self) -> &[usize] {
        match self {
            Candidates::Inline { len, channels } => &channels[..usize::from(*len)],
            Candidates::Heap(channels) => channels,
        }
    }
}

/// One hop of a packet's route, compiled once per route.
#[derive(Debug, Clone)]
struct Hop {
    /// The link and the VC the strategy assigned at this hop.
    channel: Channel,
    /// What the policy offers a head flit entering this hop.
    candidates: Candidates,
}

/// The simulator's dense channel numbering plus what a route needs to
/// compile its VC candidates.
struct ChannelLayout<'a> {
    vc_map: &'a VcMap,
    policy: &'a dyn VcPolicy,
    /// Dense channel indexing: `offsets[link] + vc`.
    offsets: Vec<usize>,
    channel_count: usize,
    /// The compiled hops of the route each flow last compiled, shared by
    /// every packet admitted onto it.
    compiled: Vec<Option<Arc<[Hop]>>>,
    /// Scratch for the policy's candidate VCs.
    vcs: Vec<usize>,
}

impl ChannelLayout<'_> {
    /// The compiled hops of `flow` on `route`: each hop's channel and the
    /// dense channels the policy offers there.  Compiled when the flow's
    /// route changes, never per cycle — which is why
    /// [`VcPolicy::candidates`] must be pure.
    fn hops(&mut self, flow: FlowId, route: &[Channel]) -> Arc<[Hop]> {
        let index = flow.index();
        if index >= self.compiled.len() {
            self.compiled.resize(index + 1, None);
        }
        if let Some(hops) = &self.compiled[index] {
            if hops.iter().map(|hop| hop.channel).eq(route.iter().copied()) {
                return Arc::clone(hops);
            }
        }
        let mut hops = Vec::with_capacity(route.len());
        for (hop, &channel) in route.iter().enumerate() {
            let link_vcs = self.vc_map.link_vcs(channel.link);
            self.vcs.clear();
            self.policy.candidates(
                &VcChoice {
                    link: channel.link,
                    link_vcs,
                    assigned_vc: channel.vc,
                    hop,
                    flow,
                },
                &mut self.vcs,
            );
            debug_assert!(!self.vcs.is_empty(), "policies must offer a candidate");
            for vc in &mut self.vcs {
                *vc = self.offsets[channel.link.index()] + (*vc).min(link_vcs - 1);
            }
            hops.push(Hop {
                channel,
                candidates: Candidates::new(&self.vcs),
            });
        }
        let hops: Arc<[Hop]> = hops.into();
        self.compiled[index] = Some(Arc::clone(&hops));
        hops
    }

    /// Dense index of a channel.
    fn dense(&self, channel: Channel) -> usize {
        self.offsets[channel.link.index()] + channel.vc
    }

    /// Dense channel indices of a route.
    fn dense_path(&self, route: &[Channel]) -> Vec<usize> {
        route.iter().map(|&channel| self.dense(channel)).collect()
    }
}

/// Per-packet bookkeeping, stored in the simulator's slab at the slot the
/// packet was admitted to.
#[derive(Debug, Clone)]
struct PacketState {
    packet: Packet,
    /// The packet's (current) route.
    hops: Arc<[Hop]>,
    /// Dense channel index the head flit actually claimed at each hop so
    /// far (`taken.len() - 1` is the head's frontier hop).
    taken: Vec<usize>,
    /// Flits not yet injected; a pull-back resets it to the flits not yet
    /// ejected.
    unsent: usize,
    /// Number of flits already ejected at the destination.
    ejected: usize,
}

impl PacketState {
    /// Puts the packet on `route` with its flow's compiled hops.  Runs on
    /// admission and on every reroute.
    fn set_route(&mut self, route: &[Channel], layout: &mut ChannelLayout<'_>) {
        self.hops = layout.hops(self.packet.flow, route);
    }

    /// `true` when the packet travels exactly `route`.
    fn on_route(&self, route: &[Channel]) -> bool {
        self.hops
            .iter()
            .map(|hop| hop.channel)
            .eq(route.iter().copied())
    }

    /// Where the residue of a started worm begins — the earliest hop it
    /// still holds a flit at, or hop 0 while it is still injecting — or
    /// `None` when its head has not left the source.  `min_hop` is the
    /// earliest hop the packet has a flit buffered at.
    fn residue_start(&self, min_hop: Option<usize>) -> Option<usize> {
        if self.taken.is_empty() && min_hop.is_none() {
            None
        } else if self.unsent == 0 {
            Some(min_hop.unwrap_or(self.hops.len()))
        } else {
            Some(0)
        }
    }

    fn in_flight(&self) -> bool {
        self.ejected < self.packet.length
    }
}

/// A buffered flit: the slab slot of its packet, the hop of the packet's
/// route it sits at, and whether it is the packet's last flit — the one
/// that releases each channel it leaves.  Nothing else of a flit matters.
#[derive(Debug, Clone, Copy)]
struct BufFlit {
    slot: usize,
    hop: usize,
    tail: bool,
}

/// One decided flit movement, applied in the second phase of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// Inject the next flit of the packet in slab slot `slot` into channel
    /// `to`; `claim` marks a head flit acquiring the channel.
    Inject { slot: usize, to: usize, claim: bool },
    /// Advance the head-of-line flit of channel `from` into channel `to`.
    Advance { from: usize, to: usize, claim: bool },
    /// Eject the head-of-line flit of channel `from` at the destination.
    Eject { from: usize },
}

impl Move {
    /// The channel a flit enters, if any.
    fn target(self) -> Option<usize> {
        match self {
            Move::Inject { to, .. } | Move::Advance { to, .. } => Some(to),
            Move::Eject { .. } => None,
        }
    }
}

/// What the packet at the front of a flow queue tries next, compiled from
/// the slab whenever that front changes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum HeadStep {
    /// Claim the first free one of the route's first-hop candidates.
    Claim(Candidates),
    /// Push the next flit into the first channel the packet already holds.
    Follow(usize),
    /// Nothing left to inject.
    Idle,
}

/// The compiled front of one non-empty flow queue.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueueHead {
    slot: usize,
    step: HeadStep,
}

impl QueueHead {
    fn compile(slot: usize, state: &PacketState) -> Self {
        let step = if state.unsent == 0 {
            HeadStep::Idle
        } else if let Some(&first) = state.taken.first() {
            HeadStep::Follow(first)
        } else {
            HeadStep::Claim(state.hops[0].candidates.clone())
        };
        QueueHead { slot, step }
    }
}

/// Per-flow injection queues of slab slots, dense by flow index.
/// `heads[f]` is the compiled front of queue `f` (`None` while it is
/// empty), so the injection scan never reads the slab.
///
/// A head is recompiled only when its front can change: on admission into
/// an empty queue, on every [`sync`](Self::sync) after a queue edit (an
/// injection that claims a channel or finishes its packet, a drain, a
/// purge), and wholesale through [`recompile`](Self::recompile) after a
/// drain event or a fault epoch, which also reroute packets in place.
#[derive(Debug, Default)]
struct FlowQueues {
    queues: Vec<VecDeque<usize>>,
    heads: Vec<Option<QueueHead>>,
}

impl FlowQueues {
    fn clear(&mut self) {
        for queue in &mut self.queues {
            queue.clear();
        }
        self.heads.fill(None);
    }

    /// The queue of `flow`, for an edit that must be followed by
    /// [`sync`](Self::sync).
    fn queue_mut(&mut self, flow: FlowId) -> &mut VecDeque<usize> {
        let index = flow.index();
        if index >= self.queues.len() {
            self.queues.resize_with(index + 1, VecDeque::new);
            self.heads.resize(index + 1, None);
        }
        &mut self.queues[index]
    }

    /// Recompiles the head of `flow` after its queue changed.  Returns
    /// `true` when the queue is non-empty.
    fn sync(&mut self, flow: FlowId, packets: &[PacketState]) -> bool {
        let index = flow.index();
        let front = self.queues.get(index).and_then(|queue| queue.front());
        let head = front.map(|&slot| QueueHead::compile(slot, &packets[slot]));
        let queued = head.is_some();
        if let Some(entry) = self.heads.get_mut(index) {
            *entry = head;
        }
        queued
    }

    /// Queues the admitted packet in `slot`.  Returns `true` when it
    /// landed at the front; only then is a head compiled.
    fn push_back(&mut self, flow: FlowId, slot: usize, packets: &[PacketState]) -> bool {
        let queue = self.queue_mut(flow);
        queue.push_back(slot);
        queue.len() == 1 && self.sync(flow, packets)
    }

    /// Recompiles every head from the slab.
    fn recompile(&mut self, packets: &[PacketState]) {
        for (head, queue) in self.heads.iter_mut().zip(&self.queues) {
            *head = queue
                .front()
                .map(|&slot| QueueHead::compile(slot, &packets[slot]));
        }
    }

    /// Panics unless every head equals the one compiled from the slab now.
    fn assert_heads_exact(&self, packets: &[PacketState]) {
        for (flow, (head, queue)) in self.heads.iter().zip(&self.queues).enumerate() {
            let expected = queue
                .front()
                .map(|&slot| QueueHead::compile(slot, &packets[slot]));
            assert_eq!(*head, expected, "stale head of flow {flow}");
        }
    }

    /// The slot at the front of every non-empty queue, in flow-id order,
    /// read from the queues themselves rather than the compiled heads.
    fn fronts(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues
            .iter()
            .filter_map(|queue| queue.front().copied())
    }

    /// Every non-empty queue, in flow-id order.
    fn iter(&self) -> impl Iterator<Item = &VecDeque<usize>> + '_ {
        self.queues.iter().filter(|queue| !queue.is_empty())
    }
}

/// Runtime state of the fault seam, armed via
/// [`VcSimulator::with_faults`].
struct FaultContext<'a> {
    topology: &'a Topology,
    map: &'a CoreMap,
    plan: FaultPlan,
    /// Next plan event to apply.
    cursor: usize,
    /// Cumulative failed links and switches.
    down: FaultSet,
    /// Flows currently stranded by a partition (gated at injection).
    unreachable: BTreeSet<FlowId>,
    stats: ReconfigStats,
    unreachable_packets: usize,
    route_log: Vec<RouteSet>,
}

/// The route each flow currently takes: its static route unless the
/// drain or a fault epoch re-routed it.  Both write `rerouted`; everything
/// reads [`route_of`](Self::route_of).
struct RouteTable<'a> {
    routes: &'a RouteSet,
    rerouted: HashMap<FlowId, Route>,
}

impl RouteTable<'_> {
    /// The channels `flow` currently routes over (empty for a same-switch
    /// flow).
    fn route_of(&self, flow: FlowId) -> &[Channel] {
        self.rerouted
            .get(&flow)
            .map(Route::view)
            .or_else(|| self.routes.route(flow))
            .map_or(&[], RouteView::channels)
    }

    /// The committed route of `flow` during a fault epoch: `None` while a
    /// partition strands the flow.
    fn committed(&self, ctx: &FaultContext<'_>, flow: FlowId) -> Option<&[Channel]> {
        (!ctx.unreachable.contains(&flow)).then(|| self.route_of(flow))
    }
}

/// The VC-fidelity wormhole simulator.  Borrows the design it simulates.
pub struct VcSimulator<'a> {
    comm: &'a CommGraph,
    routes: RouteTable<'a>,
    layout: ChannelLayout<'a>,
    config: VcSimConfig,
    /// Recovery routing function for the dynamic drain (`None` = detected
    /// deadlocks end the run).
    recovery: Option<RouteSet>,
    /// Input buffer of each channel (at the link's downstream switch).
    buffers: Vec<VecDeque<BufFlit>>,
    /// Slab slot of the packet that currently owns each channel (wormhole
    /// VC allocation).
    owner: Vec<Option<usize>>,
    credits: CreditBook,
    /// Packet slab, indexed by admission slot.  Entries stay for the whole
    /// run; packets purged by a partition are retired in place.
    packets: Vec<PacketState>,
    /// Slab entries retired by [`strand_flows`](Self::strand_flows).
    purged: usize,
    queues: FlowQueues,
    /// Per-cycle scratch, reused across cycles: the decided moves, and
    /// which channels a decided move already enters (all `false` between
    /// cycles).
    moves: Vec<Move>,
    entering: Vec<bool>,
    /// Which items the decide phase visits.
    schedule: Schedule,
    /// The moves of the full reference scan, which debug builds compare
    /// with `moves` every cycle.
    scan_moves: Vec<Move>,
    /// Credit stalls of the run so far, reported once at its end as
    /// `vc.credit_stall_flit_cycles`: a counter call per stalled
    /// flit-cycle would cost more than the cycle itself while a recorder
    /// is installed.
    credit_stalls: u64,
    /// The exact detector and its wait-target scratch, reused across
    /// checks.
    wait_graph: WaitGraph,
    waits: Vec<WaitTarget>,
    /// Flows permanently switched onto the recovery routing function.
    reconfigured: HashSet<FlowId>,
    /// Fault-injection seam (`None` = fault-free run, byte-identical to a
    /// simulator built without [`with_faults`](Self::with_faults)).
    faults: Option<FaultContext<'a>>,
}

impl<'a> std::fmt::Debug for VcSimulator<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcSimulator")
            .field("policy", &self.layout.policy.name())
            .field("channels", &self.layout.channel_count)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> VcSimulator<'a> {
    /// Creates a simulator for the given design.  `vc_map` defines the
    /// buffer space (one buffer per link × VC) and the per-hop VC
    /// assignments the [`VcPolicy`] interprets.
    ///
    /// # Panics
    ///
    /// Panics if a route references a link or VC outside the `vc_map` —
    /// build the map with
    /// [`VcMap::from_design`](noc_deadlock::vcmap::VcMap::from_design) on
    /// the same design the routes belong to.
    pub fn new(
        comm: &'a CommGraph,
        routes: &'a RouteSet,
        vc_map: &'a VcMap,
        policy: &'a dyn VcPolicy,
        config: &VcSimConfig,
    ) -> Self {
        validate_routes(routes, vc_map, "route");
        let mut offsets = Vec::with_capacity(vc_map.link_count());
        let mut channel_count = 0usize;
        for link in 0..vc_map.link_count() {
            offsets.push(channel_count);
            channel_count += vc_map.link_vcs(LinkId::from_index(link));
        }
        VcSimulator {
            comm,
            routes: RouteTable {
                routes,
                rerouted: HashMap::new(),
            },
            layout: ChannelLayout {
                vc_map,
                policy,
                offsets,
                channel_count,
                compiled: Vec::new(),
                vcs: Vec::new(),
            },
            config: config.clone(),
            recovery: None,
            buffers: vec![VecDeque::new(); channel_count],
            owner: vec![None; channel_count],
            credits: CreditBook::new(
                channel_count,
                config.buffer_depth,
                config.credit_return_latency,
            ),
            packets: Vec::new(),
            purged: 0,
            queues: FlowQueues::default(),
            moves: Vec::new(),
            entering: vec![false; channel_count],
            schedule: Schedule::new(
                channel_count,
                comm.flow_count(),
                config.credit_return_latency == 0,
            ),
            scan_moves: Vec::new(),
            credit_stalls: 0,
            wait_graph: WaitGraph::new(),
            waits: Vec::new(),
            reconfigured: HashSet::new(),
            faults: None,
        }
    }

    /// Enables the DBR-style dynamic drain: when the exact detector finds a
    /// deadlock, the knotted packets are pulled back to their sources and
    /// their flows permanently reconfigured onto `recovery` (a
    /// deadlock-free routing function, e.g. up*/down* routes).
    ///
    /// # Panics
    ///
    /// Panics if a recovery route references a link or VC outside the
    /// simulator's [`VcMap`].
    pub fn with_recovery(mut self, recovery: RouteSet) -> Self {
        validate_routes(&recovery, self.layout.vc_map, "recovery route");
        self.recovery = Some(recovery);
        self
    }

    /// Arms the fault seam: the events of `plan` are applied at their
    /// scheduled cycles, and on each event the simulator reroutes the
    /// affected flows onto the surviving up*/down* subgraph with an
    /// epoch-commit protocol that never commits while the combined
    /// (committed + in-flight residue) dependency graph is cyclic — a
    /// scoped drain pulls offending worms back to their sources instead.
    /// Flows stranded by a partition become a typed `Unreachable` outcome
    /// ([`VcSimOutcome::unreachable_flows`]) rather than an idle-timeout.
    ///
    /// `topology` and `map` must be the design the routes were built on.
    /// An empty plan ([`FaultPlan::none`]) leaves the run byte-identical to
    /// an unarmed simulator.
    pub fn with_faults(
        mut self,
        topology: &'a Topology,
        map: &'a CoreMap,
        plan: FaultPlan,
    ) -> Self {
        let down = FaultSet::new(topology);
        self.faults = Some(FaultContext {
            topology,
            map,
            plan,
            cursor: 0,
            down,
            unreachable: BTreeSet::new(),
            stats: ReconfigStats::default(),
            unreachable_packets: 0,
            route_log: Vec::new(),
        });
        self
    }

    /// Generates a workload from the design's communication graph and runs
    /// it to completion, deadlock or the cycle cap.
    pub fn run(&mut self, traffic: &TrafficConfig) -> VcSimOutcome {
        let workload = generate_workload(self.comm, traffic);
        self.run_workload(&workload)
    }

    /// Runs an explicit workload.
    pub fn run_workload(&mut self, workload: &Workload) -> VcSimOutcome {
        let mut run_span = noc_telemetry::span("sim", "vc_run");
        run_span
            .arg("policy", self.layout.policy.name())
            .arg("packets", workload.packets.len());
        self.reset();
        let mut stats = SimStats::default();
        let mut drain = DrainStats::default();
        let mut detection: Option<DeadlockEvent> = None;
        let mut deadlock_flows: Vec<FlowId> = Vec::new();
        let mut deadlock_channels: Vec<(LinkId, usize)> = Vec::new();
        let mut pending = workload.packets.iter().peekable();
        let mut idle_cycles = 0u64;
        let mut deadlocked = false;
        // Packets admitted to the network but not yet fully ejected,
        // maintained incrementally so the per-cycle liveness check does not
        // scan the whole slab.
        let mut in_flight_packets = 0usize;
        let mut clock = PhaseClock::new();

        let mut cycle = 0u64;
        while cycle < self.config.max_cycles {
            // Scheduled fault events fire first: the epoch protocol
            // reconfigures routes before anything moves this cycle.
            if self.process_faults(cycle, &mut in_flight_packets) {
                idle_cycles = 0;
            }
            let (schedule, owner) = (&mut self.schedule, &self.owner);
            self.credits.collect_returns(cycle, |channel| {
                schedule.credited(channel, owner[channel].is_none())
            });

            // Admit newly created packets into their flow queue.
            while let Some(packet) = pending.next_if(|p| p.created_at <= cycle) {
                stats.injected_packets += 1;
                let stranded = self
                    .faults
                    .as_mut()
                    .filter(|ctx| ctx.unreachable.contains(&packet.flow));
                if let Some(ctx) = stranded {
                    // Typed Unreachable: the flow is stranded by a
                    // partition; the packet is refused, not deadlocked.
                    ctx.unreachable_packets += 1;
                    continue;
                }
                let route = self.routes.route_of(packet.flow);
                if route.is_empty() {
                    // Same-switch flow: delivered immediately.
                    stats.delivered_packets += 1;
                    stats.delivered_flits += packet.length;
                    stats.record_latency(cycle.saturating_sub(packet.created_at));
                    continue;
                }
                self.packets.push(PacketState {
                    unsent: packet.length,
                    hops: self.layout.hops(packet.flow, route),
                    taken: Vec::with_capacity(route.len()),
                    ejected: 0,
                    packet: packet.clone(),
                });
                let slot = self.packets.len() - 1;
                if self.queues.push_back(packet.flow, slot, &self.packets) {
                    self.schedule.flow_synced(packet.flow.index(), true);
                }
                in_flight_packets += 1;
            }

            clock.start();
            self.decide_moves();
            clock.lap(Phase::Decide);
            let progressed = !self.moves.is_empty();
            let completed = self.apply_moves(cycle, &mut stats);
            clock.lap(Phase::Apply);
            in_flight_packets -= completed;

            let in_flight = in_flight_packets > 0;
            if !in_flight && pending.peek().is_none() {
                cycle += 1;
                break;
            }
            if progressed || !in_flight {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                noc_telemetry::counter("vc.stall_cycles", 1);
            }

            // Exact detection: periodically, and on every idle cycle.
            let exact_enabled = self.config.detect_period > 0;
            let periodic = exact_enabled && (cycle + 1).is_multiple_of(self.config.detect_period);
            if in_flight && exact_enabled && (periodic || !progressed) {
                noc_telemetry::counter("vc.detector_invocations", 1);
                clock.start();
                let dead_slots = self.deadlocked_slots();
                clock.lap(Phase::Detect);
                if !dead_slots.is_empty() {
                    if detection.is_none() {
                        // Attribute the first detection: the condemned flows
                        // and the channels their worms had claimed, for
                        // comparison against static trap witnesses.
                        deadlock_flows = dead_slots
                            .iter()
                            .map(|&slot| self.packets[slot].packet.flow)
                            .collect();
                        deadlock_flows.sort();
                        deadlock_flows.dedup();
                        deadlock_channels =
                            dead_slots
                                .iter()
                                .flat_map(|&slot| {
                                    let state = &self.packets[slot];
                                    state.taken.iter().zip(state.hops.iter()).map(
                                        |(&dense, hop)| {
                                            let link = hop.channel.link;
                                            (link, dense - self.layout.offsets[link.index()])
                                        },
                                    )
                                })
                                .collect();
                        deadlock_channels.sort_by_key(|&(link, vc)| (link.index(), vc));
                        deadlock_channels.dedup();
                    }
                    detection.get_or_insert(DeadlockEvent {
                        cycle,
                        kind: DetectionKind::WaitForGraph,
                        packets: dead_slots.len(),
                    });
                    if self.recovery.is_some() {
                        self.drain_deadlocked(&dead_slots, &mut drain);
                        idle_cycles = 0;
                    } else {
                        deadlocked = true;
                        cycle += 1;
                        break;
                    }
                }
            }

            // Idle-timeout fallback (the exact detector normally fires long
            // before this trips).
            if self.config.idle_timeout > 0 && idle_cycles >= self.config.idle_timeout {
                detection.get_or_insert(DeadlockEvent {
                    cycle,
                    kind: DetectionKind::IdleTimeout,
                    packets: 0,
                });
                deadlocked = true;
                cycle += 1;
                break;
            }
            cycle += 1;
        }

        stats.cycles = cycle;
        clock.report();
        if self.credit_stalls > 0 {
            noc_telemetry::counter("vc.credit_stall_flit_cycles", self.credit_stalls);
        }
        noc_telemetry::counter("sim.decide_visits", self.schedule.visits);
        noc_telemetry::counter("vc.injected_packets", stats.injected_packets as u64);
        noc_telemetry::counter("vc.delivered_packets", stats.delivered_packets as u64);
        noc_telemetry::counter("vc.cycles", stats.cycles);
        run_span
            .arg("cycles", stats.cycles)
            .arg("delivered", stats.delivered_packets);
        drain.flows_reconfigured = self.reconfigured.len();
        let stranded_packets = in_flight_packets;
        debug_assert_eq!(
            stranded_packets,
            self.packets.iter().filter(|p| p.in_flight()).count(),
            "in-flight counter drifted from the packet slab"
        );
        let (reconfig, unreachable_flows, unreachable_packets, reconfig_routes) =
            match self.faults.as_mut() {
                Some(ctx) => (
                    ctx.stats.clone(),
                    ctx.unreachable.iter().copied().collect(),
                    ctx.unreachable_packets,
                    std::mem::take(&mut ctx.route_log),
                ),
                None => (ReconfigStats::default(), Vec::new(), 0, Vec::new()),
            };
        VcSimOutcome {
            stats,
            deadlocked,
            stranded_packets,
            detection,
            drain,
            policy: self.layout.policy.name().to_string(),
            deadlock_flows,
            deadlock_channels,
            reconfig,
            unreachable_flows,
            unreachable_packets,
            reconfig_routes,
        }
    }

    fn reset(&mut self) {
        for buffer in &mut self.buffers {
            buffer.clear();
        }
        for owner in &mut self.owner {
            *owner = None;
        }
        self.credits = CreditBook::new(
            self.layout.channel_count,
            self.config.buffer_depth,
            self.config.credit_return_latency,
        );
        self.packets.clear();
        self.purged = 0;
        self.credit_stalls = 0;
        self.queues.clear();
        self.schedule.clear();
        self.routes.rerouted.clear();
        self.reconfigured.clear();
        if let Some(ctx) = self.faults.as_mut() {
            ctx.cursor = 0;
            ctx.down = FaultSet::new(ctx.topology);
            ctx.unreachable.clear();
            ctx.stats = ReconfigStats::default();
            ctx.unreachable_packets = 0;
            ctx.route_log.clear();
        }
    }

    /// Phase 2: apply the decided moves, updating ownership, credits,
    /// ejections and statistics.  Returns the number of packets fully
    /// delivered this cycle.
    fn apply_moves(&mut self, cycle: u64, stats: &mut SimStats) -> usize {
        let mut completed = 0usize;
        for index in 0..self.moves.len() {
            match self.moves[index] {
                Move::Inject { slot, to, claim } => {
                    let state = &mut self.packets[slot];
                    state.unsent -= 1;
                    let (flow, tail) = (state.packet.flow, state.unsent == 0);
                    if claim {
                        self.owner[to] = Some(slot);
                        state.taken.push(to);
                    } else {
                        debug_assert_eq!(self.owner[to], Some(slot));
                    }
                    self.credits.consume(to);
                    self.push_flit(to, BufFlit { slot, hop: 0, tail });
                    if tail {
                        // The whole packet has left the source: the next
                        // packet of this flow may start injecting.
                        let queue = self.queues.queue_mut(flow);
                        if queue.front() == Some(&slot) {
                            queue.pop_front();
                        }
                    }
                    if claim || tail {
                        let queued = self.queues.sync(flow, &self.packets);
                        self.schedule.flow_synced(flow.index(), queued);
                    }
                }
                Move::Advance { from, to, claim } => {
                    let bf = self.pop_flit(from, cycle);
                    if claim {
                        self.owner[to] = Some(bf.slot);
                        self.packets[bf.slot].taken.push(to);
                    }
                    self.release_on_tail(from, &bf);
                    self.credits.consume(to);
                    self.push_flit(
                        to,
                        BufFlit {
                            hop: bf.hop + 1,
                            ..bf
                        },
                    );
                }
                Move::Eject { from } => {
                    let bf = self.pop_flit(from, cycle);
                    self.release_on_tail(from, &bf);
                    let state = &mut self.packets[bf.slot];
                    state.ejected += 1;
                    stats.delivered_flits += 1;
                    if !state.in_flight() {
                        stats.delivered_packets += 1;
                        completed += 1;
                        stats.record_latency(cycle.saturating_sub(state.packet.created_at) + 1);
                    }
                }
            }
        }
        completed
    }

    /// Appends a flit to the buffer of `to`; into an empty buffer it
    /// becomes a new, ready front.
    fn push_flit(&mut self, to: usize, bf: BufFlit) {
        if self.buffers[to].is_empty() {
            self.schedule.channel_filled(to);
        }
        self.buffers[to].push_back(bf);
    }

    /// Takes the front flit of `from`, which left the buffer in `cycle`,
    /// and returns its credit.  The flit behind it inherits the front's
    /// place in the ready set.
    fn pop_flit(&mut self, from: usize, cycle: u64) -> BufFlit {
        let bf = self.buffers[from].pop_front().expect("decided with a flit");
        if self.buffers[from].is_empty() {
            self.schedule.channel_emptied(from);
        }
        if self.credits.give_back(from, cycle) {
            self.schedule.credited(from, self.owner[from].is_none());
        }
        bf
    }

    /// A tail flit leaving channel `from` releases its packet's ownership.
    fn release_on_tail(&mut self, from: usize, bf: &BufFlit) {
        if bf.tail && self.owner[from] == Some(bf.slot) {
            self.owner[from] = None;
            self.schedule.released(from);
        }
    }

    /// Classifies one pending movement (a buffered flit or an injection)
    /// of the packet in `slot`: `true` when it can move now, else `waits`
    /// is left holding what each candidate waits for.
    fn classify_candidates(
        &self,
        slot: usize,
        candidates: &[usize],
        established: bool,
        waits: &mut Vec<WaitTarget>,
    ) -> bool {
        waits.clear();
        for &to in candidates {
            if !established {
                if let Some(q) = self.owner[to] {
                    if q != slot {
                        waits.push(WaitTarget::Packet(q));
                        continue;
                    }
                }
            }
            if self.credits.can_send(to) {
                return true;
            }
            if self.buffers[to].len() < self.config.buffer_depth {
                // The buffer has room; the credit is still travelling back
                // upstream and will arrive without anyone else moving.
                return true;
            }
            waits.push(WaitTarget::Channel(to));
        }
        false
    }

    /// Runs the exact detector on the current state: the slab slots of the
    /// packets that can never move again, in packet-id order (empty iff no
    /// deadlock).  Fills the reused wait graph in one pass over the buffers
    /// and one over the queue fronts, reading the slab and the queues
    /// themselves — never the compiled heads — so a stale head cannot hide
    /// a knot.
    fn deadlocked_slots(&mut self) -> Vec<usize> {
        let mut graph = std::mem::take(&mut self.wait_graph);
        let mut waits = std::mem::take(&mut self.waits);
        graph.begin(self.layout.channel_count, self.packets.len());
        for (channel, buffer) in self.buffers.iter().enumerate() {
            let Some(bf) = buffer.front() else {
                continue;
            };
            let state = &self.packets[bf.slot];
            let next = bf.hop + 1;
            let can_move = if next == state.hops.len() {
                true // ejection is always possible
            } else if state.taken.len() == next {
                let candidates = state.hops[next].candidates.as_slice();
                self.classify_candidates(bf.slot, candidates, false, &mut waits)
            } else {
                self.classify_candidates(bf.slot, &[state.taken[next]], true, &mut waits)
            };
            graph.channel(channel, can_move, &waits);
            let mut previous = None;
            for bf in buffer {
                if previous != Some(bf.slot) {
                    graph.flit(channel, bf.slot, self.packets[bf.slot].packet.id);
                    previous = Some(bf.slot);
                }
            }
        }
        for slot in self.queues.fronts() {
            let state = &self.packets[slot];
            if state.unsent == 0 {
                continue;
            }
            let can_move = match state.taken.first() {
                None => {
                    let candidates = state.hops[0].candidates.as_slice();
                    self.classify_candidates(slot, candidates, false, &mut waits)
                }
                Some(&first) => self.classify_candidates(slot, &[first], true, &mut waits),
            };
            graph.injection(
                slot,
                state.packet.id,
                !state.taken.is_empty(),
                can_move,
                &waits,
            );
        }
        let dead = graph.dead_slots();
        self.wait_graph = graph;
        self.waits = waits;
        dead
    }

    /// Executes one DBR-style drain event: pulls every deadlocked packet's
    /// flits out of the network back to its source and permanently moves
    /// its flow onto the recovery route — unless a fault epoch already
    /// re-routed the flow, whose route detours the failed region and stays.
    fn drain_deadlocked(&mut self, dead: &[usize], drain: &mut DrainStats) {
        let recovery = self.recovery.as_ref().expect("drain requires recovery");
        for &slot in dead {
            let flow = self.packets[slot].packet.flow;
            self.routes.rerouted.entry(flow).or_insert_with(|| {
                let route = recovery.route(flow).map(RouteView::to_route);
                route.unwrap_or_else(|| panic!("recovery routes must cover flow {flow}"))
            });
            self.reconfigured.insert(flow);
        }
        self.pull_back_to_source(dead);

        // Packets of reconfigured flows that have not entered the network
        // yet switch to the new route as well (the drained ones are on it
        // already; in-flight survivors keep the path they hold).
        for state in &mut self.packets {
            let flow = state.packet.flow;
            if state.taken.is_empty()
                && state.ejected == 0
                && state.unsent > 0
                && self.reconfigured.contains(&flow)
            {
                state.set_route(self.routes.route_of(flow), &mut self.layout);
            }
        }

        self.queues.recompile(&self.packets);
        self.schedule.ready_all(&self.buffers, &self.queues);
        drain.events += 1;
        drain.packets_drained += dead.len();
        noc_telemetry::counter("vc.drain_events", 1);
        noc_telemetry::histogram("vc.drained_packets", dead.len() as u64);
    }
}

/// A phase of the simulated cycle, as attributed by [`PhaseClock`].
#[derive(Debug, Clone, Copy)]
enum Phase {
    Decide,
    Apply,
    Detect,
}

/// Per-run wall time of the cycle phases — move decision, move application
/// and the run loop's exact-detector checks — reported as the
/// `sim.decide_us`, `sim.apply_us` and `sim.detect_us` counters.  The clock
/// only runs when a telemetry recorder is installed at the start of the
/// run, and it opens no per-cycle spans.
struct PhaseClock {
    /// When the phase being timed started; `None` while not recording.
    mark: Option<Instant>,
    spent: [Duration; 3],
}

impl PhaseClock {
    fn new() -> Self {
        PhaseClock {
            mark: noc_telemetry::enabled().then(Instant::now),
            spent: [Duration::ZERO; 3],
        }
    }

    /// Starts timing a phase.
    fn start(&mut self) {
        if let Some(mark) = &mut self.mark {
            *mark = Instant::now();
        }
    }

    /// Charges the time since the last `start` or `lap` to `phase`, and
    /// starts timing the next phase.
    fn lap(&mut self, phase: Phase) {
        if let Some(mark) = &mut self.mark {
            let now = Instant::now();
            self.spent[phase as usize] += now - *mark;
            *mark = now;
        }
    }

    fn report(&self) {
        if self.mark.is_none() {
            return;
        }
        let names = ["sim.decide_us", "sim.apply_us", "sim.detect_us"];
        for (name, spent) in names.into_iter().zip(self.spent) {
            let micros = u64::try_from(spent.as_micros()).unwrap_or(u64::MAX);
            noc_telemetry::counter(name, micros);
        }
    }
}

/// Panics when a route references a link or VC outside the VC map.
fn validate_routes(routes: &RouteSet, vc_map: &VcMap, what: &str) {
    for (flow, route) in routes.iter() {
        for channel in route.channels() {
            let vcs = vc_map.link_vcs(channel.link);
            assert!(
                channel.vc < vcs,
                "{what} of {flow} references unknown channel {channel} \
                 (link has {vcs} VCs in the VC map)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdaptiveEscape, AssignedVc, SingleVc};
    use noc_deadlock::vcmap::VcMap;
    use noc_routing::shortest::route_all_shortest;
    use noc_routing::Route;
    use noc_topology::{generators, CoreMap, LinkId, SwitchId, Topology};

    /// One flow across a 3-switch chain, from the first switch to the last.
    fn line_design() -> (Topology, CommGraph, CoreMap, RouteSet, Vec<SwitchId>) {
        let generated = generators::chain(3, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 100.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[2]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        (generated.topology, comm, map, routes, generated.switches)
    }

    /// The Figure 1 configuration: four flows chasing each other around a
    /// unidirectional ring.
    fn figure_1_ring() -> (Topology, CommGraph, RouteSet) {
        let generated = generators::unidirectional_ring(4, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..4 {
            comm.add_flow(cores[i], cores[(i + 2) % 4], 100.0);
        }
        let links: Vec<LinkId> = (0..4).map(LinkId::from_index).collect();
        let mut routes = RouteSet::new(4);
        for i in 0..4 {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([links[i], links[(i + 1) % 4]]),
            );
        }
        (generated.topology, comm, routes)
    }

    fn pressure_traffic() -> TrafficConfig {
        TrafficConfig {
            packets_per_flow: 20,
            packet_length: 6,
            mean_gap_cycles: 0,
            seed: 1,
        }
    }

    #[test]
    fn single_flow_delivers_all_packets() {
        let (topo, comm, _, routes, _) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        );
        let outcome = sim.run(&TrafficConfig {
            packets_per_flow: 10,
            packet_length: 4,
            ..TrafficConfig::default()
        });
        assert!(!outcome.deadlocked);
        assert_eq!(outcome.stats.injected_packets, 10);
        assert_eq!(outcome.stats.delivered_packets, 10);
        assert_eq!(outcome.stats.delivered_flits, 40);
        assert_eq!(outcome.stranded_packets, 0);
        assert!(outcome.detection.is_none());
        assert_eq!(outcome.drain, DrainStats::default());
        assert_eq!(outcome.policy, "assigned-vc");
        assert!(outcome.stats.mean_latency() >= 2.0, "2 hops minimum");
    }

    #[test]
    fn same_switch_flow_is_delivered_instantly() {
        let generated = generators::chain(2, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 10.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[0]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        let vc_map = VcMap::from_design(&generated.topology, &routes);
        let outcome = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        )
        .run(&TrafficConfig::default());
        assert!(outcome.stats.injected_packets > 0);
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert!(!outcome.deadlocked);
    }

    #[test]
    fn larger_buffers_reduce_latency_under_contention() {
        let generated = generators::chain(5, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..5).map(|i| comm.add_core(format!("c{i}"))).collect();
        // Several flows sharing the same chain links.
        comm.add_flow(cores[0], cores[4], 100.0);
        comm.add_flow(cores[1], cores[4], 100.0);
        comm.add_flow(cores[0], cores[3], 100.0);
        let mut map = CoreMap::new(5);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        let vc_map = VcMap::from_design(&generated.topology, &routes);
        let traffic = TrafficConfig {
            packets_per_flow: 30,
            packet_length: 4,
            ..TrafficConfig::default()
        };
        let run = |buffer_depth| {
            let config = VcSimConfig {
                buffer_depth,
                ..VcSimConfig::default()
            };
            VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config).run(&traffic)
        };
        let (small, large) = (run(1), run(8));
        assert!(!small.deadlocked && !large.deadlocked);
        assert!(large.stats.cycles <= small.stats.cycles);
    }

    #[test]
    fn unsafe_ring_deadlocks_and_the_exact_detector_names_the_knot() {
        let (topo, comm, routes) = figure_1_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 100_000,
            ..VcSimConfig::default()
        };
        let mut sim = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config);
        let outcome = sim.run(&pressure_traffic());
        assert!(outcome.deadlocked, "the cyclic ring must deadlock");
        assert!(outcome.stranded_packets > 0);
        let event = outcome.detection.expect("detection recorded");
        assert_eq!(event.kind, DetectionKind::WaitForGraph);
        assert!(event.packets >= 2, "a knot involves several packets");
    }

    #[test]
    fn exact_detection_fires_no_later_than_the_timeout() {
        let (topo, comm, routes) = figure_1_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let exact = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &SingleVc,
            &VcSimConfig {
                buffer_depth: 1,
                idle_timeout: 0,
                ..VcSimConfig::default()
            },
        )
        .run(&pressure_traffic());
        let timeout = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &SingleVc,
            &VcSimConfig {
                buffer_depth: 1,
                detect_period: 0, // exact detector disabled
                idle_timeout: 200,
                ..VcSimConfig::default()
            },
        )
        .run(&pressure_traffic());
        let exact_event = exact.detection.expect("exact detection fired");
        let timeout_event = timeout.detection.expect("timeout detection fired");
        assert_eq!(exact_event.kind, DetectionKind::WaitForGraph);
        assert_eq!(timeout_event.kind, DetectionKind::IdleTimeout);
        assert!(exact_event.cycle <= timeout_event.cycle);
    }

    #[test]
    fn assigned_vcs_from_removal_make_the_ring_safe() {
        let (mut topo, comm, routes) = figure_1_ring();
        let mut routes = routes;
        noc_deadlock::removal::remove_deadlocks(
            &mut topo,
            &mut routes,
            &noc_deadlock::removal::RemovalConfig::default(),
        )
        .unwrap();
        let vc_map = VcMap::from_design(&topo, &routes);
        assert!(!vc_map.is_single_vc(), "removal bought at least one VC");
        let config = VcSimConfig {
            buffer_depth: 1,
            ..VcSimConfig::default()
        };
        let mut sim = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config);
        let outcome = sim.run(&pressure_traffic());
        assert!(!outcome.deadlocked);
        assert!(outcome.detection.is_none());
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert_eq!(outcome.stranded_packets, 0);

        // The same repaired design simulated VC-obliviously deadlocks
        // again: the VC assignment is what the safety lives in.
        let mut unsafe_sim = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config);
        let unsafe_outcome = unsafe_sim.run(&pressure_traffic());
        assert!(unsafe_outcome.deadlocked);
    }

    #[test]
    fn adaptive_escape_delivers_on_an_escape_design() {
        // Bidirectional ring, all-to-all flows, shortest routes: cyclic
        // CDG; escape channels repair it, and the Duato-adaptive policy
        // must deliver everything on the repaired design.
        let generated = generators::bidirectional_ring(6, 1.0);
        let n = 6;
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    comm.add_flow(cores[i], cores[j], 50.0);
                }
            }
        }
        let mut map = CoreMap::new(n);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let mut topo = generated.topology;
        let mut routes = route_all_shortest(&topo, &comm, &map).unwrap();
        noc_deadlock::escape::apply_escape_channels(
            &mut topo,
            &mut routes,
            noc_topology::SwitchId::from_index(0),
        )
        .unwrap();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            ..VcSimConfig::default()
        };
        let traffic = TrafficConfig {
            packets_per_flow: 6,
            packet_length: 5,
            ..TrafficConfig::default()
        };
        for policy in [&AssignedVc as &dyn VcPolicy, &AdaptiveEscape] {
            let mut sim = VcSimulator::new(&comm, &routes, &vc_map, policy, &config);
            let outcome = sim.run(&traffic);
            assert!(!outcome.deadlocked, "policy {}", policy.name());
            assert_eq!(
                outcome.stats.delivered_packets,
                outcome.stats.injected_packets,
                "policy {}",
                policy.name()
            );
        }
    }

    /// The Figure 1 trap built on a *bidirectional* 4-ring: the four flows
    /// are forced the long way around the clockwise links, so a single-VC
    /// run deadlocks exactly like the unidirectional ring — but legal
    /// up*/down* recovery routes (the last element) exist.
    fn trapped_ring() -> (
        Topology,
        CommGraph,
        CoreMap,
        RouteSet,
        RouteSet,
        Vec<noc_topology::SwitchId>,
    ) {
        let generated = generators::bidirectional_ring(4, 1.0);
        let n = 4;
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            comm.add_flow(cores[i], cores[(i + 2) % n], 100.0);
        }
        let mut map = CoreMap::new(n);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let topo = generated.topology;
        let cw: Vec<LinkId> = (0..n)
            .map(|i| {
                topo.find_link(generated.switches[i], generated.switches[(i + 1) % n])
                    .expect("ring link exists")
            })
            .collect();
        let mut routes = RouteSet::new(n);
        for i in 0..n {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([cw[i], cw[(i + 1) % n]]),
            );
        }
        assert!(noc_deadlock::verify::check_deadlock_free(&topo, &routes).is_err());
        let recovery = noc_routing::updown::route_all_updown(
            &topo,
            &comm,
            &map,
            noc_topology::SwitchId::from_index(0),
        )
        .unwrap();
        (topo, comm, map, routes, recovery, generated.switches)
    }

    #[test]
    fn dynamic_drain_recovers_a_deadlocked_ring() {
        // With the drain armed every deadlock of the trapped ring is
        // resolved and the run completes.
        let (topo, comm, _, routes, recovery, _) = trapped_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 500_000,
            ..VcSimConfig::default()
        };
        let traffic = pressure_traffic();
        let mut sim =
            VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config).with_recovery(recovery);
        let outcome = sim.run(&traffic);
        assert!(!outcome.deadlocked, "every deadlock must be drained");
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert_eq!(outcome.stranded_packets, 0);
        // The run without recovery deadlocks, so the drain genuinely fired.
        let mut bare = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config);
        let bare_outcome = bare.run(&traffic);
        assert!(bare_outcome.deadlocked);
        assert!(outcome.drain.events >= 1);
        assert!(outcome.drain.packets_drained >= 1);
        assert!(outcome.drain.flows_reconfigured >= 1);
        assert!(outcome.detection.is_some());
    }

    #[test]
    fn drained_flow_stranded_then_repaired() {
        // The drain moves flow 0 onto its recovery route at the first
        // detection; then its destination switch fails (a partition strands
        // the flow) and is repaired (the epoch gives it a surviving route).
        let (topo, comm, map, routes, recovery, switches) = trapped_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 500_000,
            ..VcSimConfig::default()
        };
        let traffic = TrafficConfig {
            packets_per_flow: 40,
            packet_length: 6,
            mean_gap_cycles: 8,
            seed: 1,
        };
        let drained = FlowId::from_index(0);
        let plan = crate::fault::FaultPlan::new(vec![
            crate::fault::FaultEvent {
                cycle: 200,
                kind: crate::fault::FaultKind::SwitchDown(switches[2]),
            },
            crate::fault::FaultEvent {
                cycle: 500,
                kind: crate::fault::FaultKind::SwitchUp(switches[2]),
            },
        ]);
        let outcome = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config)
            .with_recovery(recovery)
            .with_faults(&topo, &map, plan)
            .run(&traffic);
        let detection = outcome.detection.expect("the trap is detected");
        assert!(detection.cycle < 200, "the drain fires before the fault");
        assert!(outcome.deadlock_flows.contains(&drained));
        assert_eq!(outcome.reconfig_routes.len(), 2);
        let route_in = |epoch: usize| outcome.reconfig_routes[epoch].route(drained).unwrap();
        assert!(route_in(0).is_empty(), "stranded in the down epoch");
        assert!(!route_in(1).is_empty(), "rerouted in the up epoch");
        assert!(outcome.unreachable_flows.is_empty());
        let stats = &outcome.stats;
        assert_eq!(
            stats.delivered_packets as usize
                + outcome.stranded_packets
                + outcome.unreachable_packets,
            stats.injected_packets as usize
        );
        // Pinned outcome.  This is the one case where the shared route table
        // reads differently from a lookup that prefers the recovery route
        // of a drained flow (the stranded flow falls back to its static
        // route), and nothing the run does may depend on it.
        let rc = &outcome.reconfig;
        assert_eq!(
            (
                stats.cycles,
                stats.injected_packets,
                stats.delivered_packets
            ),
            (669, 160, 96)
        );
        assert_eq!(
            (
                stats.delivered_flits,
                stats.total_latency_cycles,
                stats.max_latency_cycles
            ),
            (579, 22_822, 525)
        );
        assert_eq!(
            (
                outcome.deadlocked,
                outcome.stranded_packets,
                outcome.unreachable_packets
            ),
            (false, 0, 64)
        );
        assert_eq!(
            outcome.drain,
            DrainStats {
                events: 1,
                packets_drained: 4,
                flows_reconfigured: 4
            }
        );
        assert_eq!(
            (rc.epochs_committed, rc.drain_fallbacks, rc.cyclic_commits),
            (2, 0, 0)
        );
        assert_eq!((rc.packets_drained, rc.flows_rerouted), (0, 2));
        assert_eq!(
            route_in(1).links().map(LinkId::index).collect::<Vec<_>>(),
            [0, 2]
        );
    }

    #[test]
    fn credit_return_latency_throttles_but_still_delivers() {
        let (topo, comm, _, routes, _) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        let traffic = TrafficConfig {
            packets_per_flow: 10,
            packet_length: 4,
            ..TrafficConfig::default()
        };
        let fast = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig {
                credit_return_latency: 0,
                ..VcSimConfig::default()
            },
        )
        .run(&traffic);
        let slow = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig {
                credit_return_latency: 4,
                ..VcSimConfig::default()
            },
        )
        .run(&traffic);
        for outcome in [&fast, &slow] {
            assert!(!outcome.deadlocked);
            assert_eq!(
                outcome.stats.delivered_packets,
                outcome.stats.injected_packets
            );
        }
        assert!(
            slow.stats.cycles > fast.stats.cycles,
            "credit latency must cost cycles ({} vs {})",
            slow.stats.cycles,
            fast.stats.cycles
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let (topo, comm, routes) = figure_1_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            ..VcSimConfig::default()
        };
        let a =
            VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config).run(&pressure_traffic());
        let b =
            VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config).run(&pressure_traffic());
        assert_eq!(a, b);
    }

    /// Bidirectional 6-ring with two disjoint clockwise 2-hop flows — an
    /// acyclic design whose routes a link fault can break.
    fn faultable_ring() -> (
        Topology,
        CommGraph,
        CoreMap,
        RouteSet,
        Vec<noc_topology::SwitchId>,
    ) {
        let generated = generators::bidirectional_ring(6, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..6).map(|i| comm.add_core(format!("c{i}"))).collect();
        comm.add_flow(cores[0], cores[2], 100.0);
        comm.add_flow(cores[3], cores[5], 100.0);
        let mut map = CoreMap::new(6);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        (generated.topology, comm, map, routes, generated.switches)
    }

    #[test]
    fn armed_with_an_empty_plan_is_byte_identical() {
        let (topo, comm, map, routes, _) = faultable_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig::default();
        let traffic = pressure_traffic();
        let plain = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config).run(&traffic);
        let armed = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config)
            .with_faults(&topo, &map, crate::fault::FaultPlan::none())
            .run(&traffic);
        assert_eq!(plain, armed);
        assert_eq!(
            armed.reconfig,
            noc_deadlock::report::ReconfigStats::default()
        );
    }

    #[test]
    fn link_fault_reroutes_and_delivers() {
        let (topo, comm, map, routes, switches) = faultable_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        // Kill the clockwise 1→2 link mid-run: flow 0→2 must detour.
        let dead = topo.find_link(switches[1], switches[2]).unwrap();
        let plan = crate::fault::FaultPlan::new(vec![crate::fault::FaultEvent {
            cycle: 20,
            kind: crate::fault::FaultKind::LinkDown(dead),
        }]);
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        )
        .with_faults(&topo, &map, plan);
        let outcome = sim.run(&pressure_traffic());
        assert!(!outcome.deadlocked);
        assert_eq!(outcome.stranded_packets, 0);
        assert_eq!(outcome.unreachable_packets, 0);
        assert!(outcome.unreachable_flows.is_empty());
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert_eq!(outcome.reconfig.epochs_committed, 1);
        assert!(outcome.reconfig.flows_rerouted >= 1);
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
    }

    #[test]
    fn partition_is_a_typed_unreachable_not_a_timeout() {
        let (topo, comm, map, routes, switches) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        // The destination switch dies mid-run: the flow is stranded.
        let plan = crate::fault::FaultPlan::new(vec![crate::fault::FaultEvent {
            cycle: 30,
            kind: crate::fault::FaultKind::SwitchDown(switches[2]),
        }]);
        let traffic = TrafficConfig {
            packets_per_flow: 10,
            packet_length: 4,
            mean_gap_cycles: 10,
            seed: 1,
        };
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        )
        .with_faults(&topo, &map, plan);
        let outcome = sim.run(&traffic);
        assert!(!outcome.deadlocked, "a partition is not a deadlock");
        assert!(outcome.detection.is_none(), "no knot, no detection");
        assert_eq!(outcome.stranded_packets, 0);
        assert_eq!(outcome.unreachable_flows, vec![FlowId::from_index(0)]);
        assert!(outcome.unreachable_packets >= 1);
        assert_eq!(
            outcome.stats.delivered_packets as usize + outcome.unreachable_packets,
            outcome.stats.injected_packets as usize,
            "delivered + unreachable accounts for every injected packet"
        );
        assert_eq!(outcome.reconfig.events.len(), 1);
        assert_eq!(outcome.reconfig.events[0].flows_unreachable, 1);
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
    }

    #[test]
    fn repair_restores_a_stranded_flow() {
        let (topo, comm, map, routes, switches) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        let fwd = topo.find_link(switches[1], switches[2]).unwrap();
        let bwd = topo.find_link(switches[2], switches[1]).unwrap();
        let plan = crate::fault::FaultPlan::new(vec![
            crate::fault::FaultEvent {
                cycle: 30,
                kind: crate::fault::FaultKind::LinkDown(fwd),
            },
            crate::fault::FaultEvent {
                cycle: 30,
                kind: crate::fault::FaultKind::LinkDown(bwd),
            },
            crate::fault::FaultEvent {
                cycle: 200,
                kind: crate::fault::FaultKind::LinkUp(fwd),
            },
            crate::fault::FaultEvent {
                cycle: 200,
                kind: crate::fault::FaultKind::LinkUp(bwd),
            },
        ]);
        let traffic = TrafficConfig {
            packets_per_flow: 20,
            packet_length: 4,
            mean_gap_cycles: 20,
            seed: 2,
        };
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        )
        .with_faults(&topo, &map, plan);
        let outcome = sim.run(&traffic);
        assert!(!outcome.deadlocked);
        assert_eq!(outcome.stranded_packets, 0);
        assert!(
            outcome.unreachable_flows.is_empty(),
            "the repair puts the flow back in service"
        );
        assert!(
            outcome.unreachable_packets >= 1,
            "the outage dropped traffic"
        );
        assert!(
            outcome.stats.delivered_packets >= 1,
            "traffic after the repair is delivered"
        );
        assert_eq!(
            outcome.stats.delivered_packets as usize + outcome.unreachable_packets,
            outcome.stats.injected_packets as usize
        );
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
    }

    #[test]
    fn fault_on_a_trapped_ring_commits_acyclic_via_the_fallback() {
        // The Figure 1 trap on a bidirectional ring (cyclic committed
        // routes, single VC) plus a pendant switch.  The pendant link dies
        // at cycle 1, while the ring knot is fully formed: the pendant flow
        // is disconnected, but no surviving candidate crosses the dead
        // link, so the committed cycle reaches the fallback loop — which
        // must reroute the ring flows onto up*/down*, drain the knotted
        // worms, and never commit cyclic.
        let mut generated = generators::bidirectional_ring(4, 1.0);
        let n = 4;
        let pendant_switch = generated.topology.add_switch("pendant");
        let (pendant_link, _) =
            generated
                .topology
                .add_bidirectional_link(pendant_switch, generated.switches[0], 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            comm.add_flow(cores[i], cores[(i + 2) % n], 100.0);
        }
        let pendant_core = comm.add_core("cp");
        let pendant_flow = comm.add_flow(pendant_core, cores[2], 100.0);
        let mut map = CoreMap::new(n + 1);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        map.assign(pendant_core, pendant_switch).unwrap();
        let topo = generated.topology;
        let cw: Vec<LinkId> = (0..n)
            .map(|i| {
                topo.find_link(generated.switches[i], generated.switches[(i + 1) % n])
                    .expect("ring link exists")
            })
            .collect();
        let mut routes = RouteSet::new(n + 1);
        for i in 0..n {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([cw[i], cw[(i + 1) % n]]),
            );
        }
        routes.set_route(
            pendant_flow,
            Route::from_links([pendant_link, cw[0], cw[1]]),
        );
        assert!(noc_deadlock::verify::check_deadlock_free(&topo, &routes).is_err());
        let vc_map = VcMap::from_design(&topo, &routes);
        // Fire at cycle 1: the exact detector ends a recovery-less run on
        // the first stalled cycle, so the epoch must land while the trap is
        // formed but before detection condemns it.
        let plan = crate::fault::FaultPlan::new(vec![crate::fault::FaultEvent {
            cycle: 1,
            kind: crate::fault::FaultKind::LinkDown(pendant_link),
        }]);
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 500_000,
            ..VcSimConfig::default()
        };
        let mut sim = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config)
            .with_faults(&topo, &map, plan);
        let outcome = sim.run(&pressure_traffic());
        assert!(!outcome.deadlocked, "the epoch protocol resolves the trap");
        assert_eq!(outcome.stranded_packets, 0);
        assert_eq!(outcome.unreachable_flows, vec![pendant_flow]);
        assert!(outcome.stats.delivered_packets >= 1);
        assert_eq!(
            outcome.stats.delivered_packets as usize + outcome.unreachable_packets,
            outcome.stats.injected_packets as usize
        );
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
        assert!(
            outcome.reconfig.flows_rerouted >= n,
            "every trapped ring flow moves onto up*/down*"
        );
        assert!(
            outcome.reconfig.drain_fallbacks >= 1,
            "the cyclic committed routes force the fallback"
        );
        // The recorded epoch snapshot is deadlock-free end to end.
        assert_eq!(outcome.reconfig_routes.len(), 1);
        let snapshot = &outcome.reconfig_routes[0];
        assert!(noc_deadlock::verify::check_deadlock_free(&topo, snapshot).is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown channel")]
    fn routes_outside_the_vc_map_are_rejected() {
        let (topo, comm, _, mut routes, _) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        routes.route_mut(FlowId::from_index(0)).unwrap()[0] =
            noc_topology::Channel::new(LinkId::from_index(0), 9);
        let _ = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        );
    }
}
