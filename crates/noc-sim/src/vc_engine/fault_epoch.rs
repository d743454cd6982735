//! The fault epochs and the drain mechanics they share with the DBR
//! drain: applying a batch of fault events, re-routing or stranding the
//! affected flows, the epoch's dependency-graph check, and pulling worms
//! back to their sources.

use super::{FaultContext, PacketState, VcSimulator};
use noc_deadlock::report::ReconfigEvent;
use noc_graph::{scc, DiGraph, NodeId};
use noc_routing::updown::{UpDownLabels, UpDownTree};
use noc_routing::{Route, RouteSet};
use noc_topology::{Connectivity, FlowId, SwitchId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

impl<'a> VcSimulator<'a> {
    /// Applies every fault event due at `cycle` as one reconfiguration
    /// epoch.  Returns `true` when an epoch was committed.
    pub(super) fn process_faults(&mut self, cycle: u64, in_flight: &mut usize) -> bool {
        // Take the context out so the batch can call `&mut self` helpers.
        let due = |ctx: &mut FaultContext<'a>| {
            let next = ctx.plan.events().get(ctx.cursor);
            next.is_some_and(|e| e.cycle <= cycle)
        };
        let Some(mut ctx) = self.faults.take_if(due) else {
            return false;
        };
        {
            let mut span = noc_telemetry::span("sim", "reconfig_epoch");
            span.arg("cycle", cycle);
            self.apply_fault_batch(&mut ctx, cycle, in_flight);
        }
        self.queues.recompile(&self.packets);
        self.schedule.ready_all(&self.buffers, &self.queues);
        noc_telemetry::counter("vc.reconfig_epochs", 1);
        self.faults = Some(ctx);
        true
    }

    /// One reconfiguration epoch: apply the due faults, reroute affected
    /// flows onto the surviving up*/down* subgraph, strand disconnected
    /// flows, and commit only once the combined dependency graph of
    /// committed routes plus in-flight residues is acyclic — pulling worms
    /// back to their sources (a scoped DBR drain) when it is not.
    fn apply_fault_batch(&mut self, ctx: &mut FaultContext<'a>, cycle: u64, in_flight: &mut usize) {
        // 1. Apply every due event atomically (one epoch per batch).  Link
        // faults are physical cable faults: both directions of a
        // bidirectional pair go down (and come back) together, so the
        // surviving fabric stays symmetric and up*/down* recovery remains
        // complete per connected component.
        let due = &ctx.plan.events()[ctx.cursor..];
        let faults_applied = due.iter().take_while(|e| e.cycle <= cycle).count();
        let mut any_repair = false;
        for event in &due[..faults_applied] {
            any_repair |= event.kind.apply(ctx.topology, &mut ctx.down);
        }
        ctx.cursor += faults_applied;

        let flow_count = self.comm.flow_count();

        // 2. Flows to re-examine: committed routes crossing a now-unusable
        // link, plus stranded flows retried after a repair.
        let candidates: Vec<FlowId> = (0..flow_count)
            .map(FlowId::from_index)
            .filter(|&flow| match self.routes.committed(ctx, flow) {
                None => any_repair,
                Some(route) => route
                    .iter()
                    .any(|channel| !ctx.down.link_usable(ctx.topology, channel.link)),
            })
            .collect();

        // 3. Survivor connectivity and per-component up*/down* labels
        // (rooted at each component's lowest-index switch).
        let conn = ctx.topology.connectivity_after(&ctx.down);
        let mut labels: HashMap<usize, UpDownLabels> = HashMap::new();
        for index in 0..ctx.topology.switch_count() {
            let switch = SwitchId::from_index(index);
            if let Some(component) = conn.component_of(switch) {
                labels
                    .entry(component)
                    .or_insert_with(|| UpDownLabels::surviving(ctx.topology, switch, &ctx.down));
            }
        }

        // Per source switch, the up*/down* search over this epoch's labels
        // and fault set, run on first use.
        let mut trees: HashMap<SwitchId, UpDownTree> = HashMap::new();

        // 4. Reroute or strand each candidate flow.
        let mut newly_unreachable: Vec<FlowId> = Vec::new();
        let mut rerouted_this_event: HashSet<FlowId> = HashSet::new();
        for flow in candidates {
            match self.surviving_route(ctx, &conn, &labels, &mut trees, flow) {
                Some(route) => {
                    self.routes.rerouted.insert(flow, route);
                    ctx.unreachable.remove(&flow);
                    rerouted_this_event.insert(flow);
                }
                None => {
                    self.routes.rerouted.remove(&flow);
                    if ctx.unreachable.insert(flow) {
                        newly_unreachable.push(flow);
                    }
                }
            }
        }

        // 5. Purge the traffic of newly stranded flows: their packets leave
        // the network and the accounting, so a partition surfaces as the
        // typed Unreachable outcome instead of an idle-timeout.
        if !newly_unreachable.is_empty() {
            ctx.unreachable_packets += self.strand_flows(&newly_unreachable, in_flight);
        }

        // 6. In-flight packets: pull back worms whose remaining path
        // crosses a dead link, swap not-yet-started packets onto the new
        // committed route, and register every worm still travelling a
        // superseded path as a transient residue of the epoch.
        let min_hops = self.min_buffered_hops();
        let mut pulled: Vec<usize> = Vec::new();
        let mut residues: Vec<(usize, Vec<usize>)> = Vec::new();
        for slot in self.in_flight_by_id(|_| true) {
            let state = &self.packets[slot];
            let Some(route) = self.routes.committed(ctx, state.packet.flow) else {
                continue; // unreachable flows were purged in step 5
            };
            let Some(start) = state.residue_start(min_hops[slot]) else {
                self.packets[slot].set_route(route, &mut self.layout);
                continue;
            };
            let broken = state.hops[start..]
                .iter()
                .any(|hop| !ctx.down.link_usable(ctx.topology, hop.channel.link));
            if broken {
                pulled.push(slot);
            } else if !state.on_route(route) {
                residues.push((slot, self.residue_path(state, start)));
            }
        }
        if !pulled.is_empty() {
            self.pull_back_to_source(&pulled);
        }
        let mut packets_drained = pulled.len();

        // 7. Epoch check: the combined graph of committed routes plus
        // transient residues must be acyclic before the epoch commits.
        // While it is not, drain residues crossing a cycle back to their
        // sources (scoped DBR fallback); when only committed routes remain
        // cyclic, move the involved flows onto the surviving up*/down*
        // function, whose routes cannot cycle among themselves.
        let mut fallback_drain = false;
        let max_rounds = flow_count + (self.packets.len() - self.purged) + 4;
        let mut rounds = 0usize;
        loop {
            let cyclic = self.dependency_cycles(ctx, &residues);
            if cyclic.is_empty() {
                break;
            }
            fallback_drain = true;
            rounds += 1;
            assert!(rounds <= max_rounds, "fault epoch failed to converge");
            let crosses = |path: &[usize]| path.iter().any(|c| cyclic.binary_search(c).is_ok());

            // (a) Drain transient residues crossing the cycle.
            let (crossing, kept): (Vec<_>, Vec<_>) =
                residues.into_iter().partition(|(_, path)| crosses(path));
            residues = kept;
            if !crossing.is_empty() {
                let to_drain: Vec<usize> = crossing.into_iter().map(|(slot, _)| slot).collect();
                self.pull_back_to_source(&to_drain);
                packets_drained += to_drain.len();
                continue;
            }

            // (b) The committed routes themselves are cyclic (e.g. an
            // unsafe baseline design at fault time): reroute the involved
            // flows onto the surviving up*/down* function.
            let mut progressed = false;
            for flow in (0..flow_count).map(FlowId::from_index) {
                if rerouted_this_event.contains(&flow) {
                    continue;
                }
                let Some(route) = self.routes.committed(ctx, flow) else {
                    continue;
                };
                if !crosses(&self.layout.dense_path(route)) {
                    continue;
                }
                progressed = true;
                let Some(new_route) = self.surviving_route(ctx, &conn, &labels, &mut trees, flow)
                else {
                    // Defensive: the cyclic flow cannot be rerouted on the
                    // surviving fabric — strand it.
                    self.routes.rerouted.remove(&flow);
                    if ctx.unreachable.insert(flow) {
                        newly_unreachable.push(flow);
                        ctx.unreachable_packets += self.strand_flows(&[flow], in_flight);
                    }
                    continue;
                };
                self.routes.rerouted.insert(flow, new_route);
                rerouted_this_event.insert(flow);
                // Worms of the flow still travelling the old path become
                // transient residues of this epoch.
                let fresh_hops = self.min_buffered_hops();
                for slot in self.in_flight_by_id(|state| state.packet.flow == flow) {
                    if residues.iter().any(|&(residue, _)| residue == slot) {
                        continue;
                    }
                    let state = &self.packets[slot];
                    match state.residue_start(fresh_hops[slot]) {
                        None => self.packets[slot]
                            .set_route(self.routes.route_of(flow), &mut self.layout),
                        Some(start) => residues.push((slot, self.residue_path(state, start))),
                    }
                }
            }
            assert!(
                progressed,
                "cyclic fault epoch with no residue or committed flow to act on"
            );
        }

        // 8. Post-protocol runtime recheck: the exact wait-for detector must
        // agree no knot survives the epoch; any remaining knot (formed
        // before the event, invisible to the assigned-VC model) is drained
        // here rather than committed over.
        let mut wait_rounds = 0usize;
        loop {
            let dead = self.deadlocked_slots();
            if dead.is_empty() {
                break;
            }
            fallback_drain = true;
            wait_rounds += 1;
            assert!(
                wait_rounds <= max_rounds,
                "wait-for drain failed to converge"
            );
            // Victims keep the detector's packet-id order; stranded flows
            // have no packets left to be among them.
            self.pull_back_to_source(&dead);
            packets_drained += dead.len();
        }

        // 9. Commit.  `committed_cyclic` is re-derived from the evidence —
        // it must always be false, and the property suite asserts so.
        let committed_cyclic = !self.dependency_cycles(ctx, &residues).is_empty()
            || !self.deadlocked_slots().is_empty();
        ctx.stats.record(ReconfigEvent {
            cycle,
            faults_applied,
            flows_rerouted: rerouted_this_event.len(),
            flows_unreachable: newly_unreachable.len(),
            packets_drained,
            fallback_drain,
            committed_cyclic,
        });
        ctx.stats.unreachable_flows = ctx.unreachable.len();
        let mut snapshot = RouteSet::new(flow_count);
        for flow in (0..flow_count).map(FlowId::from_index) {
            let route = self.routes.committed(ctx, flow).unwrap_or_default();
            snapshot.set_route(flow, Route::new(route.to_vec()));
        }
        ctx.route_log.push(snapshot);
    }

    /// The dense channels on a cycle of the epoch's dependency graph,
    /// sorted.  The graph's edges are the consecutive channel pairs of
    /// every committed route and every in-flight residue.
    fn dependency_cycles(
        &self,
        ctx: &FaultContext<'a>,
        residues: &[(usize, Vec<usize>)],
    ) -> Vec<usize> {
        let mut graph = DiGraph::with_capacity(self.layout.channel_count, 0);
        for channel in 0..self.layout.channel_count {
            graph.add_node(channel);
        }
        let committed = (0..self.comm.flow_count())
            .filter_map(|index| self.routes.committed(ctx, FlowId::from_index(index)))
            .map(|route| self.layout.dense_path(route));
        let residues = residues.iter().map(|(_, path)| path.clone());
        for path in committed.chain(residues) {
            for pair in path.windows(2).filter(|pair| pair[0] != pair[1]) {
                graph.add_edge(NodeId::from_index(pair[0]), NodeId::from_index(pair[1]), ());
            }
        }
        let mut channels: Vec<usize> = scc::cyclic_components(&graph)
            .concat()
            .into_iter()
            .map(NodeId::index)
            .collect();
        channels.sort_unstable();
        channels
    }

    /// Dense channel indices a worm still occupies or will request on its
    /// *current* (pre-reconfiguration) path, from hop `start` on: hops the
    /// head already claimed use the channel actually taken, future hops the
    /// assigned VC.
    fn residue_path(&self, state: &PacketState, start: usize) -> Vec<usize> {
        (start..state.hops.len())
            .map(|hop| match state.taken.get(hop) {
                Some(&dense) => dense,
                None => self.layout.dense(state.hops[hop].channel),
            })
            .collect()
    }

    /// Earliest route hop each slab slot still has a flit buffered at.
    fn min_buffered_hops(&self) -> Vec<Option<usize>> {
        let mut min_hops: Vec<Option<usize>> = vec![None; self.packets.len()];
        for bf in self.buffers.iter().flatten() {
            let min = &mut min_hops[bf.slot];
            *min = Some(min.map_or(bf.hop, |hop| hop.min(bf.hop)));
        }
        min_hops
    }

    /// The slots of the in-flight packets accepted by `keep`, in packet-id
    /// order.
    fn in_flight_by_id(&self, keep: impl Fn(&PacketState) -> bool) -> Vec<usize> {
        let mut slots: Vec<usize> = (0..self.packets.len())
            .filter(|&slot| self.packets[slot].in_flight() && keep(&self.packets[slot]))
            .collect();
        slots.sort_by_key(|&slot| self.packets[slot].packet.id);
        slots
    }

    /// An up*/down* route for `flow` on the surviving fabric (VC 0 on every
    /// hop), or `None` when its endpoints are disconnected.  `trees` caches
    /// each source's search for the epoch.
    fn surviving_route(
        &self,
        ctx: &FaultContext<'a>,
        conn: &Connectivity,
        labels: &HashMap<usize, UpDownLabels>,
        trees: &mut HashMap<SwitchId, UpDownTree>,
        flow: FlowId,
    ) -> Option<Route> {
        let payload = self.comm.flow(flow).expect("flow exists");
        let src = ctx.map.switch_of(payload.source)?;
        let dst = ctx.map.switch_of(payload.destination)?;
        if src == dst {
            return Some(Route::empty());
        }
        let component = conn.component_of(src)?;
        if conn.component_of(dst) != Some(component) {
            return None;
        }
        let labels = labels.get(&component)?;
        let tree = trees
            .entry(src)
            .or_insert_with(|| UpDownTree::avoiding(ctx.topology, labels, src, &ctx.down));
        Some(Route::from_links(tree.route_to(dst)?))
    }

    /// Removes every flit of the packets in `victims` from the buffers,
    /// releases their channel ownerships and resyncs the credits from the
    /// remaining occupancy (in-flight credit returns are absorbed).
    fn evict(&mut self, victims: &[usize]) {
        let mut victim = vec![false; self.packets.len()];
        for &slot in victims {
            victim[slot] = true;
        }
        for buffer in &mut self.buffers {
            buffer.retain(|bf| !victim[bf.slot]);
        }
        for (channel, owner) in self.owner.iter_mut().enumerate() {
            if owner.is_some_and(|slot| victim[slot]) {
                *owner = None;
                self.schedule.released(channel);
            }
        }
        let occupancy: Vec<usize> = self.buffers.iter().map(VecDeque::len).collect();
        let (schedule, owner) = (&mut self.schedule, &self.owner);
        self.credits.reset_from_occupancy(occupancy, |channel| {
            schedule.credited(channel, owner[channel].is_none())
        });
    }

    /// Pulls the given packets' flits out of the network and re-queues each
    /// packet at its source on its flow's current route — the drain
    /// mechanics shared by the DBR drain and the fault epochs.
    ///
    /// Flits eject in order, so a victim's buffered and unsent flits are
    /// exactly its un-ejected suffix; that suffix injects again as a worm
    /// whose first flit claims and whose last flit — the packet's last —
    /// releases.
    pub(super) fn pull_back_to_source(&mut self, victims: &[usize]) {
        if cfg!(debug_assertions) {
            // Invariant: each victim's buffered flits and unsent count make
            // up its un-ejected suffix, and its tail is buffered exactly
            // when nothing is left to send.
            let mut buffered = vec![(0usize, 0usize); self.packets.len()];
            for bf in self.buffers.iter().flatten() {
                buffered[bf.slot].0 += 1;
                buffered[bf.slot].1 += usize::from(bf.tail);
            }
            for &slot in victims {
                let state = &self.packets[slot];
                let remaining = state.packet.length - state.ejected;
                let (flits, tails) = buffered[slot];
                debug_assert!(remaining > 0, "pulled-back packets have flits left");
                debug_assert_eq!(flits + state.unsent, remaining, "suffix of slot {slot}");
                debug_assert_eq!(tails, usize::from(state.unsent == 0), "tail of slot {slot}");
            }
        }
        self.evict(victims);
        for &slot in victims {
            let state = &mut self.packets[slot];
            let flow = state.packet.flow;
            state.unsent = state.packet.length - state.ejected;
            state.taken.clear();
            let route = self.routes.route_of(flow);
            assert!(
                !route.is_empty(),
                "flow {flow} pulled back onto an empty route"
            );
            state.set_route(route, &mut self.layout);
        }

        // Re-queue the pulled packets, oldest first and ahead of packets
        // that have not started injecting — but never ahead of a surviving
        // packet that is mid-injection.  Such a packet owns its claimed
        // channels and can only finish from the queue front; burying it
        // would wedge the flow forever (and hide the worm from the
        // detector, which only sees queue fronts).
        let mut per_flow: BTreeMap<FlowId, Vec<usize>> = BTreeMap::new();
        for &slot in victims {
            per_flow
                .entry(self.packets[slot].packet.flow)
                .or_default()
                .push(slot);
        }
        for (flow, mut slots) in per_flow {
            slots.sort_by_key(|&slot| self.packets[slot].packet.id);
            let queue = self.queues.queue_mut(flow);
            queue.retain(|slot| !victims.contains(slot));
            let insert_at = match queue.front() {
                Some(&front) if !self.packets[front].taken.is_empty() => 1,
                _ => 0,
            };
            for &slot in slots.iter().rev() {
                queue.insert(insert_at, slot);
            }
            self.queues.sync(flow, &self.packets);
        }
        if cfg!(debug_assertions) {
            // Invariant: every surviving mid-injection worm is still at the
            // front of its flow queue.
            for queue in self.queues.iter() {
                for (position, &slot) in queue.iter().enumerate() {
                    debug_assert!(
                        position == 0 || self.packets[slot].taken.is_empty(),
                        "mid-injection packet {} buried at queue position {position}",
                        self.packets[slot].packet.id
                    );
                }
            }
        }
    }

    /// Removes every undelivered packet of the given flows from the network
    /// and the accounting.  Returns the number of packets purged (each
    /// becomes an unreachable packet, not a stranded one).
    fn strand_flows(&mut self, flows: &[FlowId], in_flight: &mut usize) -> usize {
        let victims = self.in_flight_by_id(|state| flows.contains(&state.packet.flow));
        if victims.is_empty() {
            return 0;
        }
        self.evict(&victims);
        for &flow in flows {
            self.queues
                .queue_mut(flow)
                .retain(|slot| !victims.contains(slot));
            self.queues.sync(flow, &self.packets);
        }
        for &slot in &victims {
            // Retire the slab entry in place: no flits, no claims, and no
            // longer in flight.
            let state = &mut self.packets[slot];
            state.unsent = 0;
            state.taken.clear();
            state.ejected = state.packet.length;
        }
        self.purged += victims.len();
        *in_flight -= victims.len();
        victims.len()
    }
}
