//! Dimension-order (XY) routing for 2-D meshes.
//!
//! XY routing first travels along the X dimension (columns), then along the
//! Y dimension (rows).  On a mesh it is minimal and deadlock-free, which
//! makes it a useful sanity baseline: the CDG of an XY-routed mesh must be
//! acyclic, and the deadlock-removal algorithm must add zero VCs to it.

use crate::route::{Route, RouteSet};
use crate::validate::RouteError;
use noc_topology::{CommGraph, CoreMap, LinkId, SwitchId, Topology};

/// A mesh coordinate helper: maps the row-major switch list produced by
/// [`noc_topology::generators::mesh2d`] to (row, column) coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshCoords {
    cols: usize,
    switches: Vec<SwitchId>,
}

impl MeshCoords {
    /// Creates the coordinate map for a `rows × cols` mesh whose switches
    /// are listed in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `switches.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, switches: Vec<SwitchId>) -> Self {
        assert_eq!(switches.len(), rows * cols, "switch list must be row-major");
        MeshCoords { cols, switches }
    }

    /// The switch at `(row, col)`.
    fn at(&self, row: usize, col: usize) -> SwitchId {
        self.switches[row * self.cols + col]
    }

    /// The `(row, col)` position of `switch`, if it belongs to the mesh.
    fn position(&self, switch: SwitchId) -> Option<(usize, usize)> {
        self.switches
            .iter()
            .position(|&s| s == switch)
            .map(|i| (i / self.cols, i % self.cols))
    }
}

/// Routes every flow with dimension-order XY routing over the mesh described
/// by `coords`.
///
/// # Errors
///
/// * [`RouteError::Topology`] if a core is unmapped.
/// * [`RouteError::Unroutable`] if a needed mesh link is missing from the
///   topology (e.g. the topology is not actually the mesh `coords` claims).
pub fn route_all_xy(
    topology: &Topology,
    comm: &CommGraph,
    map: &CoreMap,
    coords: &MeshCoords,
) -> Result<RouteSet, RouteError> {
    let mut routes = RouteSet::new(comm.flow_count());
    for (flow_id, flow) in comm.flows() {
        let src = map.require(flow.source)?;
        let dst = map.require(flow.destination)?;
        if src == dst {
            routes.set_route(flow_id, Route::empty());
            continue;
        }
        let (sr, sc) = coords
            .position(src)
            .ok_or(RouteError::WrongEndpoints { flow: flow_id })?;
        let (dr, dc) = coords
            .position(dst)
            .ok_or(RouteError::WrongEndpoints { flow: flow_id })?;

        let mut links: Vec<LinkId> = Vec::new();
        let (mut r, mut c) = (sr, sc);
        // X first (columns), then Y (rows).
        while c != dc {
            let next_c = if dc > c { c + 1 } else { c - 1 };
            let link = topology
                .find_link(coords.at(r, c), coords.at(r, next_c))
                .ok_or(RouteError::Unroutable {
                    flow: flow_id,
                    from: coords.at(r, c),
                    to: coords.at(r, next_c),
                })?;
            links.push(link);
            c = next_c;
        }
        while r != dr {
            let next_r = if dr > r { r + 1 } else { r - 1 };
            let link = topology
                .find_link(coords.at(r, c), coords.at(next_r, c))
                .ok_or(RouteError::Unroutable {
                    flow: flow_id,
                    from: coords.at(r, c),
                    to: coords.at(next_r, c),
                })?;
            links.push(link);
            r = next_r;
        }
        routes.set_route(flow_id, Route::from_links(links));
    }
    Ok(routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_routes;
    use noc_topology::{generators, CommGraph, CoreMap};

    fn mesh_design(rows: usize, cols: usize) -> (Topology, CommGraph, CoreMap, MeshCoords) {
        let generated = generators::mesh2d(rows, cols, 1.0);
        let coords = MeshCoords::new(rows, cols, generated.switches.clone());
        let mut comm = CommGraph::new();
        let n = rows * cols;
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        // all-to-all-ish: each core talks to the diagonally opposite one.
        for i in 0..n {
            comm.add_flow(cores[i], cores[n - 1 - i], 10.0);
        }
        let mut map = CoreMap::new(n);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        (generated.topology, comm, map, coords)
    }

    #[test]
    fn xy_routes_are_minimal_and_valid() {
        let (t, c, m, coords) = mesh_design(3, 4);
        let routes = route_all_xy(&t, &c, &m, &coords).unwrap();
        validate_routes(&t, &c, &m, &routes).unwrap();
        // Route length equals Manhattan distance.
        for (fid, flow) in c.flows() {
            let (sr, sc) = coords.position(m.require(flow.source).unwrap()).unwrap();
            let (dr, dc) = coords
                .position(m.require(flow.destination).unwrap())
                .unwrap();
            let manhattan = sr.abs_diff(dr) + sc.abs_diff(dc);
            assert_eq!(routes.route(fid).unwrap().hop_count(), manhattan);
        }
    }

    #[test]
    fn xy_goes_column_first() {
        let (t, c, m, coords) = mesh_design(3, 3);
        let routes = route_all_xy(&t, &c, &m, &coords).unwrap();
        // Flow 0: from (0,0) to (2,2). First hops must stay in row 0.
        let r = routes.route(noc_topology::FlowId::from_index(0)).unwrap();
        let path = r.switch_path(&t).unwrap();
        assert_eq!(path[1], coords.at(0, 1));
        assert_eq!(path[2], coords.at(0, 2));
        assert_eq!(path[3], coords.at(1, 2));
    }

    #[test]
    fn coordinates_round_trip() {
        let generated = generators::mesh2d(2, 3, 1.0);
        let coords = MeshCoords::new(2, 3, generated.switches.clone());
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(coords.position(coords.at(r, c)), Some((r, c)));
            }
        }
        assert_eq!(coords.position(SwitchId::from_index(99)), None);
    }

    #[test]
    fn same_switch_flow_is_empty() {
        let generated = generators::mesh2d(2, 2, 1.0);
        let coords = MeshCoords::new(2, 2, generated.switches.clone());
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        let f = comm.add_flow(a, b, 1.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[0]).unwrap();
        let routes = route_all_xy(&generated.topology, &comm, &map, &coords).unwrap();
        assert!(routes.route(f).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn wrong_switch_count_panics() {
        MeshCoords::new(2, 2, vec![SwitchId::from_index(0)]);
    }
}
