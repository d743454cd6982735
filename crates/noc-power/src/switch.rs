//! Per-switch area and power estimation.

use crate::params::{
    ARBITER_PAIR_AREA_UM2, ARBITRATION_ENERGY_PJ, BUFFER_ACCESS_ENERGY_PJ_PER_BIT, BUFFER_BITS,
    BUFFER_BIT_AREA_UM2, CROSSBAR_BIT_AREA_UM2, CROSSBAR_ENERGY_PJ_PER_BIT, FLIT_WIDTH_BITS,
    FREQUENCY_MHZ, LEAKAGE_MW_PER_UM2,
};

/// Geometry of one switch, derived from the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchGeometry {
    /// Incoming physical links (plus one local injection port is added
    /// internally).
    pub in_links: usize,
    /// Outgoing physical links (plus one local ejection port).
    pub out_links: usize,
    /// Total VC input buffers across all incoming links (one buffer per VC).
    pub input_buffers: usize,
}

impl SwitchGeometry {
    /// Total input ports including the local injection port.
    fn in_ports(&self) -> usize {
        self.in_links + 1
    }

    /// Total output ports including the local ejection port.
    fn out_ports(&self) -> usize {
        self.out_links + 1
    }

    /// Buffers including the single local-port buffer.
    fn buffers(&self) -> usize {
        self.input_buffers + 1
    }
}

/// Area and power breakdown of one switch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwitchEstimate {
    /// Input-buffer area in µm².
    pub buffer_area_um2: f64,
    /// Crossbar area in µm².
    pub crossbar_area_um2: f64,
    /// Arbiter area in µm².
    pub arbiter_area_um2: f64,
    /// Dynamic power in mW at the given load.
    pub dynamic_power_mw: f64,
    /// Leakage power in mW.
    pub leakage_power_mw: f64,
}

impl SwitchEstimate {
    /// Total switch area in µm².
    pub(crate) fn total_area_um2(&self) -> f64 {
        self.buffer_area_um2 + self.crossbar_area_um2 + self.arbiter_area_um2
    }

    /// Total switch power in mW.
    pub(crate) fn total_power_mw(&self) -> f64 {
        self.dynamic_power_mw + self.leakage_power_mw
    }
}

/// Estimates the area and power of a switch.
///
/// `load_flits_per_cycle` is the aggregate flit rate traversing the switch
/// (0.0 = idle, `out_ports` = fully saturated); it drives the dynamic-energy
/// terms while area and leakage depend only on the geometry — which is why
/// adding VCs (buffers) costs area and leakage even on idle links, the
/// effect behind the paper's Figure 10.
pub(crate) fn estimate_switch(
    geometry: SwitchGeometry,
    load_flits_per_cycle: f64,
) -> SwitchEstimate {
    let buffer_area_um2 = geometry.buffers() as f64 * BUFFER_BITS as f64 * BUFFER_BIT_AREA_UM2;
    let crossbar_area_um2 = geometry.in_ports() as f64
        * geometry.out_ports() as f64
        * FLIT_WIDTH_BITS as f64
        * CROSSBAR_BIT_AREA_UM2;
    let arbiter_area_um2 =
        geometry.in_ports() as f64 * geometry.out_ports() as f64 * ARBITER_PAIR_AREA_UM2;

    // Dynamic energy per flit: buffer write+read, crossbar traversal, one
    // arbitration.
    let energy_per_flit_pj = FLIT_WIDTH_BITS as f64
        * (BUFFER_ACCESS_ENERGY_PJ_PER_BIT + CROSSBAR_ENERGY_PJ_PER_BIT)
        + ARBITRATION_ENERGY_PJ;
    // flits/cycle * cycles/s * pJ = pW; convert to mW.
    let dynamic_power_mw =
        load_flits_per_cycle * FREQUENCY_MHZ * 1.0e6 * energy_per_flit_pj * 1.0e-9;

    let total_area = buffer_area_um2 + crossbar_area_um2 + arbiter_area_um2;
    let leakage_power_mw = total_area * LEAKAGE_MW_PER_UM2;

    SwitchEstimate {
        buffer_area_um2,
        crossbar_area_um2,
        arbiter_area_um2,
        dynamic_power_mw,
        leakage_power_mw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(buffers: usize) -> SwitchGeometry {
        SwitchGeometry {
            in_links: 3,
            out_links: 3,
            input_buffers: buffers,
        }
    }

    #[test]
    fn ports_include_the_local_port() {
        let g = geometry(3);
        assert_eq!(g.in_ports(), 4);
        assert_eq!(g.out_ports(), 4);
        assert_eq!(g.buffers(), 4);
    }

    #[test]
    fn more_buffers_mean_more_area_and_leakage() {
        let small = estimate_switch(geometry(3), 0.5);
        let big = estimate_switch(geometry(6), 0.5);
        assert!(big.buffer_area_um2 > small.buffer_area_um2);
        assert!(big.total_area_um2() > small.total_area_um2());
        assert!(big.leakage_power_mw > small.leakage_power_mw);
        // Crossbar area is unchanged: the extra VCs share the physical ports.
        assert!((big.crossbar_area_um2 - small.crossbar_area_um2).abs() < 1e-9);
    }

    #[test]
    fn idle_switch_has_only_leakage() {
        let e = estimate_switch(geometry(3), 0.0);
        assert_eq!(e.dynamic_power_mw, 0.0);
        assert!(e.leakage_power_mw > 0.0);
        assert!(e.total_power_mw() > 0.0);
    }

    #[test]
    fn dynamic_power_scales_linearly_with_load() {
        let half = estimate_switch(geometry(3), 0.5);
        let full = estimate_switch(geometry(3), 1.0);
        assert!((full.dynamic_power_mw - 2.0 * half.dynamic_power_mw).abs() < 1e-9);
    }
}
