//! Irregular switch-based network topologies with up*/down* routing.
//!
//! This crate models the network substrate of Sivaram, Kesavan, Panda and
//! Stunkel, *"Where to Provide Support for Efficient Multicasting in
//! Irregular Networks: Network Interface or Switch?"* (ICPP '98): a set of
//! crossbar switches with a fixed number of ports, some ports attached to
//! processing nodes (hosts), some connected by bidirectional links to other
//! switches (multiple parallel links between a switch pair are allowed), and
//! some left open. The only guarantee is that the network is connected.
//!
//! On top of the raw graph the crate provides:
//!
//! * [`updown::UpDown`] — the Autonet-style BFS spanning tree and the
//!   loop-free assignment of an *up* end to every link (§2.2 of the paper);
//! * [`routing::RoutingTables`] — deadlock-free adaptive up*/down* routing:
//!   all minimal legal next hops for every (switch, phase, destination
//!   switch) triple, where a legal route traverses zero or more *up* links
//!   followed by zero or more *down* links. A destination's distances are
//!   computed the first time it is routed to, and next hops are derived
//!   from them at lookup, so routing state grows with what is routed;
//! * [`reach::Reachability`] — the per-output-port *reachability strings*
//!   used by the tree-based multidestination-worm scheme (§3.2.3);
//! * [`apex::ApexPlan`] — the up-phase guidance a tree-based worm needs to
//!   reach a least-common-ancestor switch that covers a destination set;
//! * [`gen`] — a seeded random generator for connected irregular topologies
//!   (the paper averages results over several of these), and [`zoo`] — a few
//!   fixed topologies for tests and examples.
//!
//! All structures are immutable after construction and cheap to share;
//! the values computed on first use sit in `OnceLock`s, so a shared
//! network fills them in safely from any thread.

pub mod apex;
pub mod builder;
pub mod dot;
pub mod dsu;
pub mod error;
pub mod fault;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod mask;
pub mod metrics;
pub mod reach;
pub mod rng;
pub mod routing;
pub mod updown;
pub mod zoo;

pub use apex::ApexPlan;
pub use builder::TopologyBuilder;
pub use error::TopologyError;
pub use fault::{ErrorModel, FaultEvent, FaultKind, FaultPlan, FaultStatus, FlitFate, RandomFaultConfig};
pub use gen::{generate, ExtraLinks, RandomTopologyConfig};
pub use graph::{Link, PortUse, Switch, Topology};
pub use ids::{IdOverflow, LinkId, NodeId, PortIdx, SwitchId};
pub use mask::NodeMask;
pub use metrics::{link_is_redundant, network_metrics, remove_link, NetworkMetrics};
pub use reach::{ReachSet, Reachability};
pub use routing::{Phase, PortCandidate, RoutingTables};
pub use updown::UpDown;

/// A fully analyzed network: the topology plus every derived routing
/// structure the simulator and the multicast planners consume.
///
/// Constructing a [`Network`] runs the whole Autonet pipeline once
/// (BFS spanning tree, up/down orientation, each switch's routing moves,
/// reachability strings). Routing distances are computed per destination
/// switch on first use, so analysis costs O(links) for routing and a
/// network that carries only tree worms never builds a distance column.
/// The network also holds the per-network inputs of multicast planning —
/// the locality ranks ([`Network::node_ranks`]) and the up*/down*
/// diameter ([`RoutingTables::diameter`]), each computed on first use
/// and kept — so a plan reads them instead of re-deriving them, and its
/// cost follows the multicast, not the network. [`Network::degrade`]
/// starts both afresh with the orientation and routing they come from.
#[derive(Debug, Clone)]
pub struct Network {
    /// The raw switch/host/link graph.
    pub topo: Topology,
    /// BFS spanning tree and up/down link orientation.
    pub updown: UpDown,
    /// Adaptive up*/down* routing tables.
    pub routing: RoutingTables,
    /// Per-port reachability strings for multidestination worms.
    pub reach: Reachability,
    /// The fault status this analysis was computed under (`None` =
    /// healthy). Carried so a further [`Network::degrade`] can diff
    /// against the correct baseline when recomputing incrementally.
    pub status: Option<fault::FaultStatus>,
}

impl Network {
    /// Analyze a topology, rooting the spanning tree at the default root
    /// (the switch with the lowest identifier, mirroring a deterministic
    /// Autonet election).
    pub fn analyze(topo: Topology) -> Result<Self, TopologyError> {
        Self::analyze_rooted(topo, SwitchId(0))
    }

    /// Analyze a topology with an explicit spanning-tree root.
    pub fn analyze_rooted(topo: Topology, root: SwitchId) -> Result<Self, TopologyError> {
        topo.validate()?;
        let updown = UpDown::compute(&topo, root)?;
        let routing = RoutingTables::compute(&topo, &updown)?;
        let reach = Reachability::compute(&topo, &updown)?;
        Ok(Self { topo, updown, routing, reach, status: None })
    }

    /// Re-analyze the network after faults, Autonet-style: re-elect a root
    /// (the previous root if it survived, else the lowest-id alive switch),
    /// recompute the up/down orientation over surviving links only, and
    /// rebuild the routing moves and reachability strings so no route or
    /// tree branch crosses a dead component. Distance columns start empty
    /// and are recomputed for the destinations routed to afterwards.
    ///
    /// Returns [`TopologyError::PartitionedNetwork`] when the surviving
    /// graph is disconnected — callers decide whether that is fatal.
    pub fn degrade(&self, status: &fault::FaultStatus) -> Result<Self, TopologyError> {
        if status.is_healthy() {
            return Ok(self.clone());
        }
        let old_root = self.updown.root();
        let root = if status.switch_up(old_root) {
            old_root
        } else {
            status
                .alive_switches()
                .next()
                .ok_or(TopologyError::Inconsistent("no alive switch left"))?
        };
        let updown = UpDown::compute_masked(&self.topo, root, status)?;
        let routing = RoutingTables::compute_masked(&self.topo, &updown, status)?;
        // Reachability recomputes only the switches whose orientation or
        // liveness inputs actually changed; clean subtrees are reused.
        let (reach, _recomputed) = self.reach.recompute_incremental(
            &self.topo,
            &updown,
            status,
            &self.updown,
            self.status.as_ref(),
        )?;
        Ok(Self {
            topo: self.topo.clone(),
            updown,
            routing,
            reach,
            status: Some(status.clone()),
        })
    }

    /// Locality rank of every node, indexed by node id: a permutation of
    /// `0..num_nodes` giving the canonical chain the software-tree
    /// planners order destinations by, so subtrees of a logical tree map
    /// onto nearby switches (after Kesavan–Panda's ordered chains).
    /// Switches are ranked by a depth-first walk of the up*/down*
    /// orientation's down-DAG from the root (lower-id children first);
    /// nodes on the same switch get consecutive ranks in id order.
    /// Computed on the first call and kept with the orientation.
    pub fn node_ranks(&self) -> &[u32] {
        self.updown.node_ranks(&self.topo)
    }

    /// Number of processing nodes attached to the network.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Number of switches in the network.
    pub fn num_switches(&self) -> usize {
        self.topo.num_switches()
    }
}
