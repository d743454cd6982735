//! Whole-network area and power estimation.

use crate::params::{FLIT_WIDTH_BITS, FREQUENCY_MHZ, LINK_ENERGY_PJ_PER_BIT};
use crate::switch::{estimate_switch, SwitchEstimate, SwitchGeometry};
use noc_routing::RouteSet;
use noc_topology::{CommGraph, Topology};

/// Aggregate estimate for a routed NoC design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkEstimate {
    /// Per-switch estimates, indexed by switch index.
    pub switches: Vec<SwitchEstimate>,
    /// Link (wire) dynamic power in mW.
    pub link_power_mw: f64,
    /// Total switch + link power in mW.
    pub total_power_mw: f64,
    /// Total switch area in µm².
    pub total_area_um2: f64,
}

/// Estimates area and power of `topology` carrying `routes` for the flow
/// bandwidths of `comm`, with the ORION-style switch model at the
/// [`params`](crate::params) operating point.
///
/// Traffic load: a flow of bandwidth `B` MB/s at `flit_width` bits per
/// flit and frequency `f` MHz injects `B·8 / (flit_width · f)` flits per
/// cycle; that load is charged to every switch its route traverses (the
/// switch driven by each channel's link) and to every link it crosses.
pub fn estimate(topology: &Topology, comm: &CommGraph, routes: &RouteSet) -> NetworkEstimate {
    let flits_per_cycle =
        |bandwidth_mb_s: f64| (bandwidth_mb_s * 8.0) / (FLIT_WIDTH_BITS as f64 * FREQUENCY_MHZ);

    // Aggregate per-switch load (flits/cycle) and total link traversals.
    let mut switch_load = vec![0.0f64; topology.switch_count()];
    let mut link_flits_per_cycle = 0.0f64;
    for (flow_id, flow) in comm.flows() {
        let Some(route) = routes.route(flow_id) else {
            continue;
        };
        let load = flits_per_cycle(flow.bandwidth);
        for link_id in route.links() {
            if let Some(link) = topology.link(link_id) {
                // The switch that drives this link pays buffering,
                // arbitration and crossbar energy for the flow.
                switch_load[link.source.index()] += load;
                link_flits_per_cycle += load;
            }
        }
        // The final switch ejects the flow to its local port.
        if let Some(last) = route.channels().last() {
            if let Some(link) = topology.link(last.link) {
                switch_load[link.target.index()] += load;
            }
        }
    }

    let mut switches = Vec::with_capacity(topology.switch_count());
    let mut total_area = 0.0;
    let mut total_power = 0.0;
    for (switch_id, _) in topology.switches() {
        let geometry = SwitchGeometry {
            in_links: topology.links_to(switch_id).count(),
            out_links: topology.links_from(switch_id).count(),
            input_buffers: topology.switch_input_buffers(switch_id),
        };
        let estimate = estimate_switch(geometry, switch_load[switch_id.index()]);
        total_area += estimate.total_area_um2();
        total_power += estimate.total_power_mw();
        switches.push(estimate);
    }

    let link_power_mw = link_flits_per_cycle
        * FREQUENCY_MHZ
        * 1.0e6
        * FLIT_WIDTH_BITS as f64
        * LINK_ENERGY_PJ_PER_BIT
        * 1.0e-9;
    total_power += link_power_mw;

    NetworkEstimate {
        switches,
        link_power_mw,
        total_power_mw: total_power,
        total_area_um2: total_area,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::shortest::route_all_shortest;
    use noc_topology::{generators, CommGraph, CoreMap};

    fn ring_design(extra_vcs_on_link0: usize) -> (Topology, CommGraph, RouteSet) {
        let generated = generators::unidirectional_ring(4, 1000.0);
        let mut topo = generated.topology;
        for _ in 0..extra_vcs_on_link0 {
            topo.add_vc(noc_topology::LinkId::from_index(0)).unwrap();
        }
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..4 {
            comm.add_flow(cores[i], cores[(i + 2) % 4], 100.0);
        }
        let mut map = CoreMap::new(4);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_shortest(&topo, &comm, &map).unwrap();
        (topo, comm, routes)
    }

    #[test]
    fn estimate_is_positive_and_consistent() {
        let (topo, comm, routes) = ring_design(0);
        let e = estimate(&topo, &comm, &routes);
        assert_eq!(e.switches.len(), 4);
        assert!(e.total_power_mw > 0.0);
        assert!(e.total_area_um2 > 0.0);
        assert!(e.link_power_mw > 0.0);
        let switch_sum: f64 = e.switches.iter().map(|s| s.total_power_mw()).sum();
        assert!((switch_sum + e.link_power_mw - e.total_power_mw).abs() < 1e-9);
        assert!(e.switches[0].total_power_mw() > 0.0);
    }

    #[test]
    fn extra_vcs_increase_area_and_power() {
        let (t0, c0, r0) = ring_design(0);
        let (t4, c4, r4) = ring_design(4);
        let base = estimate(&t0, &c0, &r0);
        let padded = estimate(&t4, &c4, &r4);
        assert!(padded.total_area_um2 > base.total_area_um2);
        assert!(padded.total_power_mw > base.total_power_mw);
    }

    #[test]
    fn more_traffic_means_more_dynamic_power() {
        let (topo, mut comm, routes) = ring_design(0);
        let low = estimate(&topo, &comm, &routes);
        // Double the traffic by adding the same flows again.
        let cores: Vec<_> = comm.cores().map(|(id, _)| id).collect();
        for i in 0..4 {
            comm.add_flow(cores[i], cores[(i + 2) % 4], 100.0);
        }
        // Routes for the new flows: reuse the routing pass.
        let mut map = CoreMap::new(4);
        let generated = generators::unidirectional_ring(4, 1000.0);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes2 = route_all_shortest(&topo, &comm, &map).unwrap();
        let high = estimate(&topo, &comm, &routes2);
        assert!(high.total_power_mw > low.total_power_mw);
        // Area unchanged: traffic does not change the hardware.
        assert!((high.total_area_um2 - low.total_area_um2).abs() < 1e-9);
    }

    #[test]
    fn flows_without_routes_are_ignored() {
        let (topo, comm, _) = ring_design(0);
        let empty = RouteSet::new(comm.flow_count());
        let e = estimate(&topo, &comm, &empty);
        assert_eq!(e.link_power_mw, 0.0);
        assert!(e.total_power_mw > 0.0, "leakage remains");
        assert!(e.switches.iter().all(|s| s.dynamic_power_mw == 0.0));
    }
}
