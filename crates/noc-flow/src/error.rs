//! The unified error type of the pipeline API.

use noc_deadlock::escape::EscapeError;
use noc_deadlock::recovery::RecoveryError;
use noc_deadlock::removal::RemovalError;
use noc_deadlock::verify::DeadlockCycle;
use noc_routing::RouteError;
use noc_synth::SynthesisError;
use noc_topology::TopologyError;
use std::error::Error;
use std::fmt;

/// Any failure a pipeline stage can report.
///
/// Every stage boundary validates its output (the `validate_*`/`verify`
/// checks the longhand pipelines used to call by hand), so the variants here
/// cover both the underlying algorithm errors and the stage contracts.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Topology synthesis failed.
    Synthesis(SynthesisError),
    /// Routing failed or produced invalid routes.
    Routing(RouteError),
    /// The deadlock-removal algorithm failed.
    Removal(RemovalError),
    /// The escape-channel avoidance scheme failed.
    Escape(EscapeError),
    /// The recovery-based reconfiguration scheme failed.
    Recovery(RecoveryError),
    /// An underlying topology-model error.
    Topology(TopologyError),
    /// A [`FlowSweep`](crate::FlowSweep) run was started with an empty
    /// strategy list.  A sweep with no strategies would silently produce
    /// points with empty outcome vectors, so it is rejected up front; pass
    /// at least one [`DeadlockStrategy`](crate::DeadlockStrategy).
    EmptyStrategySet,
    /// A stage that must produce a deadlock-free design left a CDG cycle —
    /// evidence that a [`DeadlockStrategy`](crate::DeadlockStrategy)
    /// implementation is broken.
    StillCyclic(DeadlockCycle),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Synthesis(e) => write!(f, "synthesis stage failed: {e}"),
            FlowError::Routing(e) => write!(f, "routing stage failed: {e}"),
            FlowError::Removal(e) => write!(f, "deadlock-removal stage failed: {e}"),
            FlowError::Escape(e) => write!(f, "escape-channel strategy failed: {e}"),
            FlowError::Recovery(e) => write!(f, "recovery-reconfig strategy failed: {e}"),
            FlowError::Topology(e) => write!(f, "topology error: {e}"),
            FlowError::EmptyStrategySet => write!(
                f,
                "sweep was given an empty strategy list; pass at least one DeadlockStrategy"
            ),
            FlowError::StillCyclic(c) => {
                write!(f, "deadlock strategy left a cyclic CDG: {c}")
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Synthesis(e) => Some(e),
            FlowError::Routing(e) => Some(e),
            FlowError::Removal(e) => Some(e),
            FlowError::Escape(e) => Some(e),
            FlowError::Recovery(e) => Some(e),
            FlowError::Topology(e) => Some(e),
            FlowError::StillCyclic(c) => Some(c),
            FlowError::EmptyStrategySet => None,
        }
    }
}

impl From<SynthesisError> for FlowError {
    fn from(e: SynthesisError) -> Self {
        FlowError::Synthesis(e)
    }
}

impl From<RouteError> for FlowError {
    fn from(e: RouteError) -> Self {
        FlowError::Routing(e)
    }
}

impl From<RemovalError> for FlowError {
    fn from(e: RemovalError) -> Self {
        FlowError::Removal(e)
    }
}

impl From<TopologyError> for FlowError {
    fn from(e: TopologyError) -> Self {
        FlowError::Topology(e)
    }
}

impl From<EscapeError> for FlowError {
    fn from(e: EscapeError) -> Self {
        FlowError::Escape(e)
    }
}

impl From<RecoveryError> for FlowError {
    fn from(e: RecoveryError) -> Self {
        FlowError::Recovery(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::LinkId;

    #[test]
    fn display_and_source_cover_wrapped_errors() {
        let e: FlowError = TopologyError::UnknownLink(LinkId::from_index(3)).into();
        assert!(e.to_string().contains("L3"));
        assert!(e.source().is_some());
    }

    #[test]
    fn strategy_error_variants_wrap_their_sources() {
        let e: FlowError =
            EscapeError::Topology(TopologyError::UnknownLink(LinkId::from_index(1))).into();
        assert!(e.to_string().contains("escape-channel"));
        assert!(e.source().is_some());

        let e: FlowError = RecoveryError::Stalled { round: 2 }.into();
        assert!(e.to_string().contains("recovery-reconfig"));
        assert!(e.source().is_some());

        assert!(FlowError::EmptyStrategySet.source().is_none());
        assert!(FlowError::EmptyStrategySet
            .to_string()
            .contains("empty strategy list"));
    }
}
