//! Pluggable virtual-channel allocation policies.
//!
//! When a head flit is ready to cross onto the next physical link of its
//! route, the router must pick *which* VC of that link to request.  The
//! deadlock strategies of the suite answer that question statically — every
//! route hop carries an assigned `(link, vc)` channel — but how faithfully
//! the runtime honours the assignment is a policy decision:
//!
//! | Policy | Candidate VCs | Deadlock guarantee |
//! |---|---|---|
//! | [`AssignedVc`] | exactly the strategy's assignment | inherited from the strategy (acyclic CDG ⇒ none) |
//! | [`AdaptiveEscape`] | the base lane (VC 0) first, the assignment last | Duato: the assigned (escape) channel is always requestable, and every escape dependency ascends in layer order |
//! | [`SingleVc`] | always VC 0 | **none** — deliberately discards the assignment; must deadlock on cyclic base CDGs |
//!
//! [`SingleVc`] exists as the negative control of the experiment: it is the
//! runtime a VC-oblivious simulator would implement, and watching it deadlock
//! where every strategy's assignment delivers 100 % is what makes the VC
//! budget of the strategies *measurably* buy something.
//!
//! A candidate list is a preference order, not a commitment.  The engine
//! compiles it once per route (on admission and on every reroute), and a
//! blocked head re-tries its whole compiled list every cycle, taking the
//! first candidate that is free.  So a policy that always includes the
//! assigned escape VC satisfies Duato's requirement that the escape network
//! stays reachable from every blocked state.

use noc_topology::{FlowId, LinkId};

/// Everything a [`VcPolicy`] may consult when ranking the VCs of the next
/// physical link of a packet's route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcChoice {
    /// The physical link being entered.
    pub link: LinkId,
    /// Number of VCs multiplexed on that link.
    pub link_vcs: usize,
    /// The VC the deadlock strategy assigned to this hop of the route.
    pub assigned_vc: usize,
    /// Hop index within the route (0 = first link after the source).
    pub hop: usize,
    /// The flow the packet belongs to.
    pub flow: FlowId,
}

/// A virtual-channel allocation policy: ranks the VCs a head flit may
/// request on the next link, in preference order.
pub trait VcPolicy: Sync {
    /// Stable policy name (used in sweep output and JSON artifacts).
    fn name(&self) -> &str;

    /// Appends the candidate VC indices for `choice` to `out`, most
    /// preferred first.  `out` arrives empty; implementations must push at
    /// least one in-range candidate (`< choice.link_vcs`, except for
    /// [`SingleVc`], which intentionally pins VC 0 — present on every link).
    ///
    /// Must be a pure function of `choice`: the engine calls it once per
    /// hop when it puts a packet on a route and keeps the answer for as
    /// long as the packet stays on that route.
    fn candidates(&self, choice: &VcChoice, out: &mut Vec<usize>);
}

/// Honour the strategy's static VC assignment exactly — the faithful
/// runtime for `CycleBreaking`, `ResourceOrdering` and static
/// `EscapeChannel` designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AssignedVc;

impl VcPolicy for AssignedVc {
    fn name(&self) -> &str {
        "assigned-vc"
    }

    fn candidates(&self, choice: &VcChoice, out: &mut Vec<usize>) {
        out.push(choice.assigned_vc);
    }
}

/// Duato-style adaptive escape: a packet opportunistically rides the
/// *base* VC (VC 0, the adaptive lane) when it is free, and otherwise
/// falls back to the VC the strategy assigned — its escape channel, which
/// is always the final candidate.
///
/// Deadlock freedom follows Duato's argument: a blocked head re-tries its
/// whole candidate list every cycle, so it can always request its
/// assigned escape channel, and every dependency of the escape subnetwork
/// ascends in escape-layer order — an escape VC `v ≥ 1` is only ever held
/// by a packet *assigned* layer `v` there (whose later requests sit on
/// layers `≥ v`), and holders of the base lane fall back to layers `≥ 0`.
/// Within one layer the assigned hops are up\*/down\*-legal by
/// construction, so no dependency cycle can close.
///
/// The restriction to the base lane is load-bearing: letting packets
/// adaptively occupy *higher* escape layers than their own assignment
/// creates descending escape dependencies (a layer-2 channel held by a
/// packet whose escape continuation is layer 0), and such runs genuinely
/// deadlock — the exact wait-for-graph detector catches them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveEscape;

impl VcPolicy for AdaptiveEscape {
    fn name(&self) -> &str {
        "adaptive-escape"
    }

    fn candidates(&self, choice: &VcChoice, out: &mut Vec<usize>) {
        if choice.assigned_vc != 0 {
            out.push(0);
        }
        out.push(choice.assigned_vc);
    }
}

/// The deliberately unsafe baseline: every packet rides VC 0 of every link,
/// discarding whatever VC assignment the deadlock strategy produced — the
/// behaviour of a simulator that keys its buffers on the physical link
/// alone.  On a design whose base (single-VC) CDG is cyclic this policy
/// *must* deadlock under pressure; that observable failure is the control
/// group of the `fig_sim_strategies` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SingleVc;

impl VcPolicy for SingleVc {
    fn name(&self) -> &str {
        "unsafe-single-vc"
    }

    fn candidates(&self, _choice: &VcChoice, out: &mut Vec<usize>) {
        out.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choice(link_vcs: usize, assigned_vc: usize) -> VcChoice {
        VcChoice {
            link: LinkId::from_index(3),
            link_vcs,
            assigned_vc,
            hop: 1,
            flow: FlowId::from_index(0),
        }
    }

    fn collect(policy: &dyn VcPolicy, choice: &VcChoice) -> Vec<usize> {
        let mut out = Vec::new();
        policy.candidates(choice, &mut out);
        out
    }

    #[test]
    fn assigned_vc_is_the_single_candidate() {
        assert_eq!(collect(&AssignedVc, &choice(3, 2)), vec![2]);
        assert_eq!(AssignedVc.name(), "assigned-vc");
    }

    #[test]
    fn adaptive_escape_tries_the_base_lane_then_the_assignment() {
        assert_eq!(collect(&AdaptiveEscape, &choice(4, 1)), vec![0, 1]);
        assert_eq!(collect(&AdaptiveEscape, &choice(4, 3)), vec![0, 3]);
        // A base-layer assignment degenerates to the assignment alone —
        // never a higher escape layer (that would be unsound).
        assert_eq!(collect(&AdaptiveEscape, &choice(4, 0)), vec![0]);
        assert_eq!(collect(&AdaptiveEscape, &choice(1, 0)), vec![0]);
        assert_eq!(AdaptiveEscape.name(), "adaptive-escape");
    }

    #[test]
    fn adaptive_escape_always_ends_on_the_assignment_exactly_once() {
        for vcs in 1..5 {
            for assigned in 0..vcs {
                let candidates = collect(&AdaptiveEscape, &choice(vcs, assigned));
                assert_eq!(candidates.last(), Some(&assigned));
                assert_eq!(candidates.iter().filter(|&&vc| vc == assigned).count(), 1);
                // Only the base lane is ever used adaptively.
                assert!(candidates.iter().all(|&vc| vc == 0 || vc == assigned));
            }
        }
    }

    #[test]
    fn single_vc_ignores_the_assignment() {
        assert_eq!(collect(&SingleVc, &choice(4, 3)), vec![0]);
        assert_eq!(SingleVc.name(), "unsafe-single-vc");
    }
}
