//! The topology graph `TG(S, L)`: switches, directed physical links and the
//! virtual channels carried by each link.

use crate::error::TopologyError;
use crate::ids::{Channel, LinkId, SwitchId};

/// A switch (router) of the NoC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Switch {
    /// Human-readable name, e.g. `"SW3"` or `"sw_media_0"`.
    pub name: String,
}

/// A directed physical link between two switches.
///
/// Every link starts with a single virtual channel (VC 0).  The
/// deadlock-removal algorithm and the resource-ordering baseline add VCs by
/// calling [`Topology::add_vc`]; the number of *extra* VCs
/// ([`Topology::extra_vc_count`]) is the headline cost metric of the paper
/// (Figures 8 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Switch the link leaves from.
    pub source: SwitchId,
    /// Switch the link arrives at.
    pub target: SwitchId,
    /// Number of virtual channels multiplexed on the link (≥ 1).
    pub vcs: usize,
    /// Usable bandwidth of the link in abstract MB/s units; only relative
    /// magnitudes matter (used by synthesis and the power model).
    pub bandwidth: f64,
}

/// The topology graph `TG(S, L)` of Definition 1.
///
/// Next to the link arena the topology keeps, per switch, the ids of the
/// links leaving it and the links arriving at it.  [`add_link`] appends to
/// both lists, so each is in ascending [`LinkId`] order — the order a scan
/// of the whole arena would visit them in.  [`links_from`], [`links_to`],
/// [`find_link`] and [`switch_input_buffers`] therefore
/// cost O(degree) instead of O(links), and every search built on them
/// visits switches in the same order as a filtered arena scan would.
///
/// [`add_link`]: Topology::add_link
/// [`links_from`]: Topology::links_from
/// [`links_to`]: Topology::links_to
/// [`find_link`]: Topology::find_link
/// [`switch_input_buffers`]: Topology::switch_input_buffers
///
/// # Example
///
/// ```
/// use noc_topology::Topology;
///
/// let mut topo = Topology::new();
/// let a = topo.add_switch("a");
/// let b = topo.add_switch("b");
/// let l = topo.add_link(a, b, 1.0);
/// assert_eq!(topo.link(l).unwrap().vcs, 1);
/// let extra = topo.add_vc(l).unwrap();
/// assert_eq!(extra.vc, 1);
/// assert_eq!(topo.extra_vc_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Topology {
    switches: Vec<Switch>,
    links: Vec<Link>,
    /// `out_links[s]`: the links leaving switch `s`, in ascending id order.
    out_links: Vec<Vec<LinkId>>,
    /// `in_links[s]`: the links arriving at switch `s`, in ascending id order.
    in_links: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a switch and returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>) -> SwitchId {
        let id = SwitchId::from_index(self.switches.len());
        self.switches.push(Switch { name: name.into() });
        self.out_links.push(Vec::new());
        self.in_links.push(Vec::new());
        id
    }

    /// Adds a directed physical link with a single VC and the given bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint switch does not exist.
    pub fn add_link(&mut self, source: SwitchId, target: SwitchId, bandwidth: f64) -> LinkId {
        assert!(
            source.index() < self.switches.len(),
            "source switch out of bounds"
        );
        assert!(
            target.index() < self.switches.len(),
            "target switch out of bounds"
        );
        let id = LinkId::from_index(self.links.len());
        self.links.push(Link {
            source,
            target,
            vcs: 1,
            bandwidth,
        });
        self.out_links[source.index()].push(id);
        self.in_links[target.index()].push(id);
        id
    }

    /// Adds a pair of opposite links between `a` and `b` and returns them as
    /// `(a_to_b, b_to_a)`.
    pub fn add_bidirectional_link(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        bandwidth: f64,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, bandwidth);
        let ba = self.add_link(b, a, bandwidth);
        (ab, ba)
    }

    /// Adds one virtual channel to `link` and returns the new [`Channel`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownLink`] if the link does not exist.
    pub fn add_vc(&mut self, link: LinkId) -> Result<Channel, TopologyError> {
        let data = self
            .links
            .get_mut(link.index())
            .ok_or(TopologyError::UnknownLink(link))?;
        let vc = data.vcs;
        data.vcs += 1;
        Ok(Channel::new(link, vc))
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of directed physical links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Total number of channels (sum of VCs over all links).
    pub fn channel_count(&self) -> usize {
        self.links.iter().map(|l| l.vcs).sum()
    }

    /// Number of *extra* VCs beyond the first on every link.  This is the
    /// quantity plotted on the y-axis of Figures 8 and 9 of the paper.
    pub fn extra_vc_count(&self) -> usize {
        self.links.iter().map(|l| l.vcs - 1).sum()
    }

    /// Returns the switch payload, if the id is valid.
    pub(crate) fn switch(&self, id: SwitchId) -> Option<&Switch> {
        self.switches.get(id.index())
    }

    /// Returns the link payload, if the id is valid.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// Iterates over `(SwitchId, &Switch)`.
    pub fn switches(&self) -> impl Iterator<Item = (SwitchId, &Switch)> + '_ {
        self.switches
            .iter()
            .enumerate()
            .map(|(i, s)| (SwitchId::from_index(i), s))
    }

    /// Iterates over `(LinkId, &Link)`.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId::from_index(i), l))
    }

    /// Iterates over every channel of the topology in `(link, vc)` order.
    pub fn channels(&self) -> impl Iterator<Item = Channel> + '_ {
        self.links()
            .flat_map(|(id, link)| (0..link.vcs).map(move |vc| Channel::new(id, vc)))
    }

    /// Iterates over the links leaving `switch`, in ascending id order
    /// (empty for an unknown switch).
    pub fn links_from(&self, switch: SwitchId) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.listed(&self.out_links, switch)
    }

    /// Iterates over the links arriving at `switch`, in ascending id order
    /// (empty for an unknown switch).
    pub fn links_to(&self, switch: SwitchId) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.listed(&self.in_links, switch)
    }

    fn listed<'a>(
        &'a self,
        lists: &'a [Vec<LinkId>],
        switch: SwitchId,
    ) -> impl Iterator<Item = (LinkId, &'a Link)> + 'a {
        lists
            .get(switch.index())
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(move |&id| (id, &self.links[id.index()]))
    }

    /// Returns the first (lowest-id) link `source -> target`, if one exists.
    pub fn find_link(&self, source: SwitchId, target: SwitchId) -> Option<LinkId> {
        self.links_from(source)
            .find(|(_, l)| l.target == target)
            .map(|(id, _)| id)
    }

    /// Number of input buffers the switch needs: one per VC of every
    /// incoming link.
    pub fn switch_input_buffers(&self, switch: SwitchId) -> usize {
        self.links_to(switch).map(|(_, l)| l.vcs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4() -> (Topology, Vec<SwitchId>, Vec<LinkId>) {
        let mut t = Topology::new();
        let sw: Vec<_> = (1..=4).map(|i| t.add_switch(format!("SW{i}"))).collect();
        let links: Vec<_> = (0..4)
            .map(|i| t.add_link(sw[i], sw[(i + 1) % 4], 1.0))
            .collect();
        (t, sw, links)
    }

    #[test]
    fn counts_for_the_paper_ring() {
        let (t, _, _) = ring4();
        assert_eq!(t.switch_count(), 4);
        assert_eq!(t.link_count(), 4);
        assert_eq!(t.channel_count(), 4);
        assert_eq!(t.extra_vc_count(), 0);
    }

    #[test]
    fn adding_a_vc_creates_the_paper_l1_prime_channel() {
        let (mut t, _, links) = ring4();
        let c = t.add_vc(links[0]).unwrap();
        assert_eq!(c, Channel::new(links[0], 1));
        assert_eq!(c.to_string(), "L0'1");
        assert_eq!(t.channel_count(), 5);
        assert_eq!(t.extra_vc_count(), 1);
        assert_eq!(t.link(links[0]).unwrap().vcs, 2);
    }

    #[test]
    fn add_vc_on_unknown_link_errors() {
        let (mut t, _, _) = ring4();
        let err = t.add_vc(LinkId::from_index(99)).unwrap_err();
        assert_eq!(err, TopologyError::UnknownLink(LinkId::from_index(99)));
    }

    #[test]
    fn link_lookup_and_iteration() {
        let (t, sw, links) = ring4();
        assert_eq!(t.find_link(sw[0], sw[1]), Some(links[0]));
        assert_eq!(t.find_link(sw[1], sw[0]), None);
        assert_eq!(t.links_from(sw[0]).count(), 1);
        assert_eq!(t.links_to(sw[0]).count(), 1);
        assert_eq!(t.channels().count(), 4);
        assert_eq!(t.switches().count(), 4);
    }

    #[test]
    fn link_lists_match_a_filtered_arena_scan() {
        let mut t = Topology::new();
        let sw: Vec<_> = (0..4).map(|i| t.add_switch(format!("s{i}"))).collect();
        // Parallel links, a self-loop and interleaved endpoints.
        for (a, b) in [(0, 1), (2, 0), (0, 1), (1, 1), (3, 0), (0, 2), (1, 0)] {
            t.add_link(sw[a], sw[b], 1.0);
        }
        for &s in &sw {
            let from: Vec<_> = t.links_from(s).map(|(id, _)| id).collect();
            let to: Vec<_> = t.links_to(s).map(|(id, _)| id).collect();
            let scan_from: Vec<_> = t
                .links()
                .filter(|(_, l)| l.source == s)
                .map(|(id, _)| id)
                .collect();
            let scan_to: Vec<_> = t
                .links()
                .filter(|(_, l)| l.target == s)
                .map(|(id, _)| id)
                .collect();
            assert_eq!(from, scan_from);
            assert_eq!(to, scan_to);
        }
        assert_eq!(t.find_link(sw[0], sw[1]), Some(LinkId::from_index(0)));
        assert_eq!(t.links_from(SwitchId::from_index(9)).count(), 0);
        assert_eq!(t.links_to(SwitchId::from_index(9)).count(), 0);
    }

    #[test]
    fn bidirectional_links_create_both_directions() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let (ab, ba) = t.add_bidirectional_link(a, b, 2.0);
        assert_eq!(t.link(ab).unwrap().source, a);
        assert_eq!(t.link(ba).unwrap().source, b);
        assert_eq!(t.link_count(), 2);
    }

    #[test]
    fn input_buffers_count_vcs() {
        let (mut t, sw, links) = ring4();
        assert_eq!(t.switch_input_buffers(sw[1]), 1);
        t.add_vc(links[0]).unwrap(); // link 0 enters switch 1
        assert_eq!(t.switch_input_buffers(sw[1]), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_link_with_unknown_switch_panics() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        t.add_link(a, SwitchId::from_index(3), 1.0);
    }
}
