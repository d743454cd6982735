//! Technology and micro-architecture constants of the power/area model.
//!
//! They describe a 65 nm-like switch running at 1 GHz with 32-bit flits
//! and 4-flit-deep VC buffers, in the same ballpark as the ORION 2.0
//! defaults the paper used.  Only relative comparisons matter for the
//! reproduced figures.

/// Flit width in bits.
pub const FLIT_WIDTH_BITS: usize = 32;
/// Depth of each VC input buffer in flits.
pub const BUFFER_DEPTH_FLITS: usize = 4;
/// Clock frequency in MHz.
pub const FREQUENCY_MHZ: f64 = 1000.0;
/// Area of one bit of buffer storage, in µm².
pub const BUFFER_BIT_AREA_UM2: f64 = 1.5;
/// Area of one crossbar crosspoint per bit, in µm².
pub const CROSSBAR_BIT_AREA_UM2: f64 = 0.6;
/// Area of the arbiter per request pair, in µm².
pub const ARBITER_PAIR_AREA_UM2: f64 = 12.0;
/// Energy of one buffer write + read, per bit, in pJ.
pub const BUFFER_ACCESS_ENERGY_PJ_PER_BIT: f64 = 0.012;
/// Energy of one crossbar traversal, per bit, in pJ.
pub const CROSSBAR_ENERGY_PJ_PER_BIT: f64 = 0.006;
/// Energy of one arbitration, in pJ.
pub const ARBITRATION_ENERGY_PJ: f64 = 0.4;
/// Energy of driving one bit over one inter-switch link, in pJ.
pub const LINK_ENERGY_PJ_PER_BIT: f64 = 0.02;
/// Leakage power per µm² of switch area, in mW.
///
/// Calibrated so that static (leakage) power is a realistic fraction of
/// total NoC power at 65 nm; this is what makes idle VC buffers — the
/// resource-ordering overhead — visible in Figure 10, as they are under
/// ORION 2.0.
pub const LEAKAGE_MW_PER_UM2: f64 = 1.0e-4;

/// Bits stored by one VC buffer.
pub const BUFFER_BITS: usize = FLIT_WIDTH_BITS * BUFFER_DEPTH_FLITS;

const _: () = assert!(BUFFER_BITS == 128);
