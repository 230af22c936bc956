//! The router and live net database.
//!
//! Nets are routed with breadth-first search over the device routing
//! graph (PIP candidates + fixed segment links), with full occupancy
//! tracking. The database stays live after implementation: the relocation
//! engine *extends* nets (paralleling a replica input), adds *parallel
//! source* nets (paralleling outputs, Fig. 2 phase 2 / Fig. 5), and
//! retires sinks or whole nets (disconnecting the original CLB), all while
//! other nets keep their resources.
//!
//! A search keeps its state dense: the BFS parent of every node lives in
//! a flat table indexed by `(tile − frame origin) × WIRE_COUNT +
//! Wire::index()`, where the frame is the bounding box of everything the
//! search may visit. Occupancy stays a map (it is sparse and long-lived)
//! keyed through a fixed-seed multiplicative hasher, and is only ever
//! used for lookups.

use crate::error::SimError;
use rtm_fpga::geom::{ClbCoord, Rect};
use rtm_fpga::routing::{
    fixed_link, pip_exists, Pip, RouteNode, Wire, HEX_DELAY_PS, PIP_DELAY_PS, SINGLE_DELAY_PS,
    WIRE_COUNT,
};
use rtm_fpga::Device;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Identifier of a routed net within a [`NetDb`].
pub type NetId = usize;

/// Static per-wire adjacency: the destination wires reachable by one PIP.
fn pip_fanout(wire: Wire) -> &'static [Wire] {
    static TABLE: OnceLock<Vec<Vec<Wire>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..WIRE_COUNT)
            .map(|i| {
                let from = Wire::from_index(i);
                Wire::all().filter(|to| pip_exists(from, *to)).collect()
            })
            .collect()
    });
    &table[wire.index()]
}

/// One routed net: a source, and one **full** node path (source → sink)
/// per sink. Paths share trunk segments; every node and PIP is
/// reference-counted once per sink whose signal flows through it, so
/// retiring one sink never strips resources another sink depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The driving node (usually a `CellOut`).
    pub source: RouteNode,
    /// For each sink pin, the complete node sequence from the source.
    pub paths: BTreeMap<RouteNode, Vec<RouteNode>>,
    /// Reference count of each node across paths (plus one for the
    /// source).
    node_refs: BTreeMap<RouteNode, usize>,
    /// Reference count of each PIP across paths.
    pip_refs: BTreeMap<Pip, usize>,
}

impl RoutedNet {
    fn new(source: RouteNode) -> Self {
        let mut node_refs = BTreeMap::new();
        node_refs.insert(source, 1);
        RoutedNet {
            source,
            paths: BTreeMap::new(),
            node_refs,
            pip_refs: BTreeMap::new(),
        }
    }

    /// The sinks this net reaches.
    pub fn sinks(&self) -> impl Iterator<Item = RouteNode> + '_ {
        self.paths.keys().copied()
    }

    /// All nodes currently owned by the net.
    pub fn nodes(&self) -> impl Iterator<Item = RouteNode> + '_ {
        self.node_refs.keys().copied()
    }

    /// All PIPs currently active for the net.
    pub fn pips(&self) -> impl Iterator<Item = Pip> + '_ {
        self.pip_refs.keys().copied()
    }

    /// Propagation delay from source to `sink` in picoseconds, or `None`
    /// if the sink is not on the net.
    ///
    /// Each PIP costs [`PIP_DELAY_PS`]; driving onto a single or hex
    /// segment costs its segment delay.
    pub fn sink_delay_ps(&self, sink: RouteNode) -> Option<u64> {
        let path = self.paths.get(&sink)?;
        debug_assert_eq!(path.first(), Some(&self.source), "paths are full chains");
        Some(path_delay_ps(path))
    }

    /// The full source → `node` chain along some existing path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the net.
    fn chain_to(&self, node: RouteNode) -> Vec<RouteNode> {
        if node == self.source {
            return vec![node];
        }
        for path in self.paths.values() {
            if let Some(pos) = path.iter().position(|n| *n == node) {
                return path[..=pos].to_vec();
            }
        }
        panic!("node {node} not on net");
    }
}

/// Delay along a node sequence (PIP hops + segment drives).
pub fn path_delay_ps(path: &[RouteNode]) -> u64 {
    let mut total = 0;
    for pair in path.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.tile == b.tile {
            total += PIP_DELAY_PS;
            total += match b.wire {
                Wire::Out(_, _) => SINGLE_DELAY_PS,
                Wire::HexOut(_, _) => HEX_DELAY_PS,
                _ => 0,
            };
        }
        // Fixed links cost nothing extra (the segment delay was charged
        // when driving onto the outbound wire).
    }
    total
}

/// Sentinel net id marking nodes reserved by *foreign* net databases
/// (other designs sharing the device). Reserved nodes are unusable for
/// routing but carry no local net.
pub const RESERVED: NetId = usize::MAX;

/// A fixed-seed multiplicative hasher (the rotate-xor-multiply step of
/// Fx hashing). Route nodes hash as a few small integers, for which
/// SipHash's per-process random keys buy nothing but cost.
#[derive(Debug, Clone, Copy, Default)]
struct NodeHasher(u64);

impl NodeHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Which nets use each node. Lookup-only: nothing iterates it in an
/// order that can reach a result.
type Occupancy = HashMap<RouteNode, Vec<NetId>, BuildHasherDefault<NodeHasher>>;

/// Marks a dense parent-table slot no search has reached.
const NO_PARENT: u32 = u32::MAX;

/// The tile rectangle one search can visit: the bounding box of `within`
/// (clipped to the device; the whole device when `None`), the net's
/// existing nodes and the sink. Seeds and the sink may lie outside
/// `within`, so the frame must cover them too.
fn search_frame(
    dev: &Device,
    within: Option<Rect>,
    seeds: impl Iterator<Item = RouteNode>,
    sink: RouteNode,
) -> Rect {
    let area = match within {
        None => Some(dev.bounds()),
        Some(r) => r.intersection(&dev.bounds()),
    };
    let (mut r0, mut c0, mut r1, mut c1) =
        (sink.tile.row, sink.tile.col, sink.tile.row, sink.tile.col);
    let mut cover = |row: u16, col: u16| {
        r0 = r0.min(row);
        c0 = c0.min(col);
        r1 = r1.max(row);
        c1 = c1.max(col);
    };
    if let Some(a) = area {
        cover(a.origin.row, a.origin.col);
        cover(a.row_end() - 1, a.col_end() - 1);
    }
    for n in seeds {
        cover(n.tile.row, n.tile.col);
    }
    Rect::from_corners(ClbCoord::new(r0, c0), ClbCoord::new(r1, c1))
}

/// The dense index of `node` within `frame`, or `None` outside it.
fn dense_index(frame: Rect, node: RouteNode) -> Option<usize> {
    if !frame.contains(node.tile) {
        return None;
    }
    let r = (node.tile.row - frame.origin.row) as usize;
    let c = (node.tile.col - frame.origin.col) as usize;
    Some((r * frame.cols as usize + c) * WIRE_COUNT + node.wire.index())
}

/// The node behind a dense index of `frame` (inverse of [`dense_index`]).
fn dense_node(frame: Rect, idx: usize) -> RouteNode {
    let tile = idx / WIRE_COUNT;
    let cols = frame.cols as usize;
    RouteNode::new(
        ClbCoord::new(
            frame.origin.row + (tile / cols) as u16,
            frame.origin.col + (tile % cols) as u16,
        ),
        Wire::from_index(idx % WIRE_COUNT),
    )
}

/// The live net database: routed nets plus wire occupancy.
#[derive(Debug, Clone, Default)]
pub struct NetDb {
    nets: Vec<Option<RoutedNet>>,
    occupancy: Occupancy,
}

impl NetDb {
    /// An empty database.
    pub fn new() -> Self {
        NetDb::default()
    }

    /// Marks nodes used by other designs' nets as unusable. Several
    /// designs share one physical device but keep separate net databases;
    /// before routing in this database, the caller must reserve every
    /// node the others occupy, or the router may silently bridge nets.
    pub fn reserve<I: IntoIterator<Item = RouteNode>>(&mut self, nodes: I) {
        for node in nodes {
            let users = self.occupancy.entry(node).or_default();
            if !users.contains(&RESERVED) {
                users.push(RESERVED);
            }
        }
    }

    /// Releases every reservation made with [`NetDb::reserve`].
    pub fn clear_reservations(&mut self) {
        self.occupancy.retain(|_, users| {
            users.retain(|u| *u != RESERVED);
            !users.is_empty()
        });
    }

    /// All nodes currently owned by this database's live nets (the set a
    /// foreign database must reserve).
    pub fn all_nodes(&self) -> Vec<RouteNode> {
        let mut out: Vec<RouteNode> = self
            .nets()
            .flat_map(|(_, n)| n.nodes().collect::<Vec<_>>())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The net behind `id`, if it still exists.
    pub fn net(&self, id: NetId) -> Option<&RoutedNet> {
        self.nets.get(id).and_then(|n| n.as_ref())
    }

    /// All live nets.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &RoutedNet)> {
        self.nets
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
    }

    /// The nets using `node` (pass-through owner first).
    pub fn users_of(&self, node: RouteNode) -> &[NetId] {
        self.occupancy.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Routes a new net from `source` to every sink, in order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unroutable`] if any sink cannot be reached; the
    /// database and device are left unchanged in that case.
    pub fn route_net(
        &mut self,
        dev: &mut Device,
        source: RouteNode,
        sinks: &[RouteNode],
        within: Option<Rect>,
    ) -> Result<NetId, SimError> {
        let id = self.nets.len();
        let mut net = RoutedNet::new(source);
        self.occupancy.entry(source).or_default().push(id);
        let mut added: Vec<(Vec<RouteNode>, RouteNode)> = Vec::new();
        for sink in sinks {
            match self.find_path(dev, &net, id, *sink, within) {
                Ok(path) => {
                    self.commit_path(dev, &mut net, id, *sink, path.clone());
                    added.push((path, *sink));
                }
                Err(e) => {
                    // Roll back everything committed for this net.
                    for (_, s) in added.iter().rev() {
                        Self::retract_path(dev, &mut net, &mut self.occupancy, id, *s);
                    }
                    remove_occupant(&mut self.occupancy, source, id);
                    return Err(e);
                }
            }
        }
        self.nets.push(Some(net));
        Ok(id)
    }

    /// Extends an existing net to one more sink (paralleling a replica
    /// input with the original, paper Fig. 2 phase 1).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unroutable`] if no path exists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live net.
    pub fn extend_net(
        &mut self,
        dev: &mut Device,
        id: NetId,
        sink: RouteNode,
        within: Option<Rect>,
    ) -> Result<(), SimError> {
        let mut net = self.nets[id].take().expect("live net");
        let result = self.find_path(dev, &net, id, sink, within);
        match result {
            Ok(path) => {
                self.commit_path(dev, &mut net, id, sink, path);
                self.nets[id] = Some(net);
                Ok(())
            }
            Err(e) => {
                self.nets[id] = Some(net);
                Err(e)
            }
        }
    }

    /// Removes one sink (and the branch exclusively feeding it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live net or `sink` is not on it.
    pub fn remove_sink(&mut self, dev: &mut Device, id: NetId, sink: RouteNode) {
        let mut net = self.nets[id].take().expect("live net");
        assert!(net.paths.contains_key(&sink), "sink {sink} not on net {id}");
        Self::retract_path(dev, &mut net, &mut self.occupancy, id, sink);
        self.nets[id] = Some(net);
    }

    /// Merges net `from` into net `into`: all of `from`'s paths, resource
    /// refcounts and occupancy move to `into`. Used by two-phase routing
    /// relocation (paper Fig. 5): the replica path is routed as a
    /// temporary net, the original branch retired, then the replica
    /// absorbed into the original net's bookkeeping. No device bits
    /// change.
    ///
    /// # Panics
    ///
    /// Panics if either id is dead, the nets have different sources, or
    /// they share a sink.
    pub fn absorb(&mut self, into: NetId, from: NetId) {
        assert_ne!(into, from, "cannot absorb a net into itself");
        let from_net = self.nets[from].take().expect("live source net");
        let into_net = self.nets[into].as_mut().expect("live target net");
        assert_eq!(
            from_net.source, into_net.source,
            "absorb requires a shared source"
        );
        for (sink, path) in from_net.paths {
            assert!(
                !into_net.paths.contains_key(&sink),
                "nets share sink {sink}"
            );
            into_net.paths.insert(sink, path);
        }
        for (node, count) in from_net.node_refs {
            // The shared source is counted once in each net; collapse.
            *into_net.node_refs.entry(node).or_insert(0) += count;
        }
        for (pip, count) in from_net.pip_refs {
            *into_net.pip_refs.entry(pip).or_insert(0) += count;
        }
        for users in self.occupancy.values_mut() {
            for u in users.iter_mut() {
                if *u == from {
                    *u = into;
                }
            }
            let mut seen = Vec::new();
            users.retain(|u| {
                if seen.contains(u) {
                    false
                } else {
                    seen.push(*u);
                    true
                }
            });
        }
    }

    /// The net (if any) having `sink` among its sinks.
    pub fn net_with_sink(&self, sink: RouteNode) -> Option<NetId> {
        self.nets()
            .find(|(_, n)| n.paths.contains_key(&sink))
            .map(|(id, _)| id)
    }

    /// The net (if any) driven from `source`.
    pub fn net_with_source(&self, source: RouteNode) -> Option<NetId> {
        self.nets()
            .find(|(_, n)| n.source == source)
            .map(|(id, _)| id)
    }

    /// Removes an entire net, releasing all its resources.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live net.
    pub fn remove_net(&mut self, dev: &mut Device, id: NetId) {
        let mut net = self.nets[id].take().expect("live net");
        let sinks: Vec<RouteNode> = net.sinks().collect();
        for sink in sinks {
            Self::retract_path(dev, &mut net, &mut self.occupancy, id, sink);
        }
        remove_occupant(&mut self.occupancy, net.source, id);
    }

    /// Breadth-first search from the net's current nodes to `sink`.
    ///
    /// The parent of every reached node lives in a dense table over the
    /// search frame (see [`search_frame`]), allocated per search so no
    /// device-sized state is kept per database. A node outside the frame
    /// is neither the sink nor usable, so skipping it changes nothing.
    fn find_path(
        &self,
        dev: &Device,
        net: &RoutedNet,
        id: NetId,
        sink: RouteNode,
        within: Option<Rect>,
    ) -> Result<Vec<RouteNode>, SimError> {
        // The sink pin itself may be shared (paralleled outputs drive a
        // pin that already belongs to another net), but must not already
        // belong to *this* net.
        if net.node_refs.contains_key(&sink) {
            return Err(SimError::SinkOccupied { pin: sink });
        }
        let unroutable = SimError::Unroutable {
            from: net.source,
            to: sink,
        };
        let usable = |node: RouteNode| -> bool {
            if let Some(r) = within {
                if !r.contains(node.tile) {
                    return false;
                }
            }
            let users = self.users_of(node);
            users.is_empty() || users == [id]
        };
        // The frame covers the sink and every seed, so neither lookup
        // below misses.
        let frame = search_frame(dev, within, net.nodes(), sink);
        let Some(sink_idx) = dense_index(frame, sink) else {
            return Err(unroutable);
        };
        // `parent[i]` is the dense index of the node `i` was reached
        // from; a seed is its own parent.
        let mut parent = vec![NO_PARENT; frame.area() as usize * WIRE_COUNT];
        let mut queue: VecDeque<(RouteNode, u32)> = VecDeque::new();
        for n in net.nodes() {
            if let Some(i) = dense_index(frame, n) {
                parent[i] = i as u32;
                queue.push_back((n, i as u32));
            }
        }
        let (rows, cols) = (dev.rows(), dev.cols());
        while let Some((node, from)) = queue.pop_front() {
            let push = |next: RouteNode, parent: &mut [u32], q: &mut VecDeque<_>| {
                let Some(j) = dense_index(frame, next) else {
                    return false;
                };
                if parent[j] != NO_PARENT {
                    return false;
                }
                if next == sink {
                    parent[j] = from;
                    return true;
                }
                if usable(next) {
                    parent[j] = from;
                    q.push_back((next, j as u32));
                }
                false
            };
            // PIP hops within the tile.
            let mut found = false;
            for to in pip_fanout(node.wire) {
                let next = RouteNode::new(node.tile, *to);
                if push(next, &mut parent, &mut queue) {
                    found = true;
                    break;
                }
            }
            if !found {
                // Fixed segment link.
                if let Some(next) = fixed_link(node.tile, node.wire, rows, cols) {
                    found = push(next, &mut parent, &mut queue);
                }
            }
            if found {
                // Reconstruct the branch (sink back to the net node it
                // grew from), then prepend the source → branch-point
                // chain so the stored path is a full source → sink chain.
                let mut branch = vec![sink];
                let mut cur = sink_idx;
                loop {
                    let p = parent[cur] as usize;
                    if p == cur {
                        break;
                    }
                    branch.push(dense_node(frame, p));
                    cur = p;
                }
                branch.reverse();
                let mut path = net.chain_to(branch[0]);
                path.extend_from_slice(&branch[1..]);
                return Ok(path);
            }
        }
        Err(unroutable)
    }

    /// Activates a found path: PIPs on the device, refcounts, occupancy.
    fn commit_path(
        &mut self,
        dev: &mut Device,
        net: &mut RoutedNet,
        id: NetId,
        sink: RouteNode,
        path: Vec<RouteNode>,
    ) {
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.tile == b.tile {
                let pip = Pip::new(a.tile, a.wire, b.wire);
                let count = net.pip_refs.entry(pip).or_insert(0);
                if *count == 0 {
                    dev.add_pip(pip).expect("router only proposes valid pips");
                }
                *count += 1;
            }
        }
        for node in &path {
            let count = net.node_refs.entry(*node).or_insert(0);
            if *count == 0 {
                self.occupancy.entry(*node).or_default().push(id);
            }
            *count += 1;
        }
        net.paths.insert(sink, path);
    }

    /// Releases a sink's path: PIPs, refcounts, occupancy.
    fn retract_path(
        dev: &mut Device,
        net: &mut RoutedNet,
        occupancy: &mut Occupancy,
        id: NetId,
        sink: RouteNode,
    ) {
        let path = net.paths.remove(&sink).expect("sink present");
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.tile == b.tile {
                let pip = Pip::new(a.tile, a.wire, b.wire);
                let count = net.pip_refs.get_mut(&pip).expect("pip refcounted");
                *count -= 1;
                if *count == 0 {
                    net.pip_refs.remove(&pip);
                    dev.remove_pip(&pip).expect("pip active");
                }
            }
        }
        for node in &path {
            let count = net.node_refs.get_mut(node).expect("node refcounted");
            *count -= 1;
            if *count == 0 {
                net.node_refs.remove(node);
                remove_occupant(occupancy, *node, id);
            }
        }
    }
}

fn remove_occupant(occupancy: &mut Occupancy, node: RouteNode, id: NetId) {
    if let Some(users) = occupancy.get_mut(&node) {
        users.retain(|u| *u != id);
        if users.is_empty() {
            occupancy.remove(&node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::geom::ClbCoord;
    use rtm_fpga::part::Part;

    fn dev() -> Device {
        Device::new(Part::Xcv50)
    }

    fn out(r: u16, c: u16, cell: u8) -> RouteNode {
        RouteNode::new(ClbCoord::new(r, c), Wire::CellOut(cell))
    }

    fn pin(r: u16, c: u16, cell: u8, p: u8) -> RouteNode {
        RouteNode::new(ClbCoord::new(r, c), Wire::CellIn(cell, p))
    }

    #[test]
    fn routes_neighbouring_connection() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id = db
            .route_net(&mut d, out(3, 3, 0), &[pin(3, 4, 0, 0)], None)
            .unwrap();
        let net = db.net(id).unwrap();
        assert_eq!(net.sinks().collect::<Vec<_>>(), vec![pin(3, 4, 0, 0)]);
        // Device agrees: the sink is downstream of the source.
        let sinks = d.sinks_of(out(3, 3, 0));
        assert!(sinks.contains(&pin(3, 4, 0, 0)));
    }

    #[test]
    fn routes_long_connection_with_positive_delay() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id = db
            .route_net(&mut d, out(0, 0, 1), &[pin(12, 20, 2, 1)], None)
            .unwrap();
        let delay = db
            .net(id)
            .unwrap()
            .sink_delay_ps(pin(12, 20, 2, 1))
            .unwrap();
        assert!(delay > 5_000, "a ~30-tile route is several ns: {delay}ps");
        assert!(d.sinks_of(out(0, 0, 1)).contains(&pin(12, 20, 2, 1)));
    }

    #[test]
    fn multi_sink_fanout_shares_trunk() {
        let mut d = dev();
        let mut db = NetDb::new();
        let sinks = [pin(2, 6, 0, 2), pin(2, 6, 1, 3), pin(4, 6, 0, 2)];
        let id = db.route_net(&mut d, out(2, 2, 0), &sinks, None).unwrap();
        let net = db.net(id).unwrap();
        assert_eq!(net.sinks().count(), 3);
        for s in sinks {
            assert!(d.sinks_of(out(2, 2, 0)).contains(&s), "{s} not reached");
        }
    }

    #[test]
    fn occupancy_blocks_other_nets_and_release_restores() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id1 = db
            .route_net(&mut d, out(5, 5, 0), &[pin(5, 6, 0, 1)], None)
            .unwrap();
        let used_before: Vec<RouteNode> = db.net(id1).unwrap().nodes().collect();
        // A second net from a different source to a different pin of the
        // same tile must not reuse net 1's nodes.
        let id2 = db
            .route_net(&mut d, out(5, 5, 1), &[pin(5, 6, 1, 2)], None)
            .unwrap();
        let n2: Vec<RouteNode> = db.net(id2).unwrap().nodes().collect();
        for n in &n2 {
            assert!(!used_before.contains(n), "{n} reused");
        }
        db.remove_net(&mut d, id1);
        for n in used_before {
            assert!(db.users_of(n).is_empty());
        }
    }

    #[test]
    fn parallel_source_may_share_sink_pin() {
        let mut d = dev();
        let mut db = NetDb::new();
        let sink = pin(8, 8, 0, 0);
        let _orig = db.route_net(&mut d, out(8, 7, 0), &[sink], None).unwrap();
        // Replica output drives the same pin (Fig. 2 phase 2).
        let replica = db.route_net(&mut d, out(8, 9, 0), &[sink], None).unwrap();
        assert_eq!(
            db.net(replica).unwrap().sinks().collect::<Vec<_>>(),
            vec![sink]
        );
        assert_eq!(d.pips_driving(sink).len(), 2, "two drivers paralleled");
    }

    #[test]
    fn extend_net_adds_sink() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id = db
            .route_net(&mut d, out(1, 1, 0), &[pin(1, 2, 0, 1)], None)
            .unwrap();
        db.extend_net(&mut d, id, pin(2, 2, 1, 2), None).unwrap();
        assert_eq!(db.net(id).unwrap().sinks().count(), 2);
    }

    #[test]
    fn remove_sink_keeps_other_branches() {
        let mut d = dev();
        let mut db = NetDb::new();
        let s1 = pin(3, 5, 0, 3);
        let s2 = pin(5, 3, 0, 3);
        let id = db.route_net(&mut d, out(3, 3, 0), &[s1, s2], None).unwrap();
        db.remove_sink(&mut d, id, s1);
        let net = db.net(id).unwrap();
        assert_eq!(net.sinks().collect::<Vec<_>>(), vec![s2]);
        assert!(d.sinks_of(out(3, 3, 0)).contains(&s2));
        assert!(!d.sinks_of(out(3, 3, 0)).contains(&s1));
    }

    #[test]
    fn within_constraint_respected() {
        let mut d = dev();
        let mut db = NetDb::new();
        let region = Rect::new(ClbCoord::new(0, 0), 4, 4);
        let id = db
            .route_net(&mut d, out(0, 0, 0), &[pin(3, 3, 0, 3)], Some(region))
            .unwrap();
        for node in db.net(id).unwrap().nodes() {
            assert!(region.contains(node.tile), "{node} escapes region");
        }
    }

    #[test]
    fn unroutable_when_region_disconnects() {
        let mut d = dev();
        let mut db = NetDb::new();
        // Region containing only the source tile: sink outside.
        let region = Rect::new(ClbCoord::new(0, 0), 1, 1);
        let err = db
            .route_net(&mut d, out(0, 0, 0), &[pin(5, 5, 0, 0)], Some(region))
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        // Nothing leaked.
        assert_eq!(d.pips().count(), 0);
        assert!(db.users_of(out(0, 0, 0)).is_empty());
    }

    #[test]
    fn failed_multi_sink_rolls_back() {
        let mut d = dev();
        let mut db = NetDb::new();
        let region = Rect::new(ClbCoord::new(0, 0), 2, 2);
        let err = db
            .route_net(
                &mut d,
                out(0, 0, 0),
                &[pin(1, 1, 0, 1), pin(10, 10, 0, 0)],
                Some(region),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        assert_eq!(d.pips().count(), 0, "first sink's pips rolled back");
    }

    #[test]
    fn absorb_merges_parallel_nets() {
        let mut d = dev();
        let mut db = NetDb::new();
        let source = out(6, 6, 0);
        let s1 = pin(6, 8, 0, 2);
        let s2 = pin(8, 6, 0, 2);
        let orig = db.route_net(&mut d, source, &[s1], None).unwrap();
        let replica = db.route_net(&mut d, source, &[s2], None).unwrap();
        db.absorb(orig, replica);
        assert!(db.net(replica).is_none(), "absorbed net is gone");
        let n = db.net(orig).unwrap();
        assert_eq!(n.sinks().count(), 2);
        assert!(n.sink_delay_ps(s1).is_some());
        assert!(n.sink_delay_ps(s2).is_some());
        // Occupancy relabelled: every node now lists only `orig`.
        for node in n.nodes() {
            assert_eq!(db.users_of(node), &[orig], "{node}");
        }
        // And removal still releases everything.
        db.remove_net(&mut d, orig);
        assert_eq!(d.pips().count(), 0);
    }

    #[test]
    fn reservations_block_routing_and_clear() {
        let mut d = dev();
        let mut db = NetDb::new();
        // Reserve every wire of the corridor between source and sink.
        let source = out(2, 2, 0);
        let sink = pin(2, 4, 0, 0);
        let corridor: Vec<RouteNode> = Wire::all()
            .map(|w| RouteNode::new(ClbCoord::new(2, 3), w))
            .collect();
        db.reserve(corridor.clone());
        // The only row-2 path is blocked; the router detours or fails
        // within a 1-row region.
        let region = Rect::new(ClbCoord::new(2, 2), 1, 3);
        let err = db
            .route_net(&mut d, source, &[sink], Some(region))
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        db.clear_reservations();
        db.route_net(&mut d, source, &[sink], Some(region)).unwrap();
    }

    #[test]
    fn net_lookup_by_sink_and_source() {
        let mut d = dev();
        let mut db = NetDb::new();
        let source = out(1, 1, 2);
        let sink = pin(1, 3, 2, 0);
        let id = db.route_net(&mut d, source, &[sink], None).unwrap();
        assert_eq!(db.net_with_sink(sink), Some(id));
        assert_eq!(db.net_with_source(source), Some(id));
        assert_eq!(db.net_with_sink(pin(9, 9, 0, 0)), None);
        assert_eq!(db.net_with_source(out(9, 9, 0)), None);
    }

    #[test]
    fn delay_counts_pips_and_segments() {
        let mut d = dev();
        let mut db = NetDb::new();
        let sink = pin(0, 1, 0, 0);
        let id = db.route_net(&mut d, out(0, 0, 0), &[sink], None).unwrap();
        let delay = db.net(id).unwrap().sink_delay_ps(sink).unwrap();
        // Minimum: pip onto single (120+350) + pip into pin (120) = 590.
        assert!(delay >= 590, "delay {delay}");
        assert!(delay < 5_000, "neighbour route should be short: {delay}");
    }

    /// The `HashMap` breadth-first search the dense [`NetDb::find_path`]
    /// replaced, kept verbatim as the differential oracle.
    fn reference_find_path(
        db: &NetDb,
        dev: &Device,
        net: &RoutedNet,
        id: NetId,
        sink: RouteNode,
        within: Option<Rect>,
    ) -> Result<Vec<RouteNode>, SimError> {
        if net.node_refs.contains_key(&sink) {
            return Err(SimError::SinkOccupied { pin: sink });
        }
        let usable = |node: RouteNode| -> bool {
            if let Some(r) = within {
                if !r.contains(node.tile) {
                    return false;
                }
            }
            let users = db.users_of(node);
            users.is_empty() || users == [id]
        };
        let mut parent: HashMap<RouteNode, RouteNode> = HashMap::new();
        let mut queue: VecDeque<RouteNode> = VecDeque::new();
        for n in net.nodes() {
            parent.insert(n, n);
            queue.push_back(n);
        }
        let (rows, cols) = (dev.rows(), dev.cols());
        while let Some(node) = queue.pop_front() {
            let push = |next: RouteNode, parent_map: &mut HashMap<_, _>, q: &mut VecDeque<_>| {
                if parent_map.contains_key(&next) {
                    return false;
                }
                if next == sink {
                    parent_map.insert(next, node);
                    return true;
                }
                if usable(next) {
                    parent_map.insert(next, node);
                    q.push_back(next);
                }
                false
            };
            let mut found = false;
            for to in pip_fanout(node.wire) {
                let next = RouteNode::new(node.tile, *to);
                if push(next, &mut parent, &mut queue) {
                    found = true;
                    break;
                }
            }
            if !found {
                if let Some(next) = fixed_link(node.tile, node.wire, rows, cols) {
                    found = push(next, &mut parent, &mut queue);
                }
            }
            if found {
                let mut branch = vec![sink];
                let mut cur = sink;
                loop {
                    let p = parent[&cur];
                    if p == cur {
                        break;
                    }
                    branch.push(p);
                    cur = p;
                }
                branch.reverse();
                let mut path = net.chain_to(branch[0]);
                path.extend_from_slice(&branch[1..]);
                return Ok(path);
            }
        }
        Err(SimError::Unroutable {
            from: net.source,
            to: sink,
        })
    }

    /// Differential net: the dense search against the reference on
    /// random devices, nets, reservations and `within` regions.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// A tile `(dr, dc)` away from `from` (offsets biased by 8),
        /// clamped to the device.
        fn near(dev: &Device, from: ClbCoord, dr: u16, dc: u16) -> ClbCoord {
            let clamp = |v: u16, d: u16, max: u16| (v + d).saturating_sub(8).min(max - 1);
            ClbCoord::new(
                clamp(from.row, dr, dev.rows()),
                clamp(from.col, dc, dev.cols()),
            )
        }

        /// Wire `w` of `0..2 × WIRE_COUNT`: a cell input pin for the
        /// upper half (the usual sink), any wire for the lower.
        fn sink_wire(w: usize) -> Wire {
            if w < WIRE_COUNT {
                Wire::from_index(w)
            } else {
                Wire::CellIn((w / 4 % 4) as u8, (w % 4) as u8)
            }
        }

        /// A `within` region of shape `kind` around the search's seed
        /// tile `src` and sink tile `dst`. Kinds cover `None`, empty and
        /// 1×1 regions, regions that exclude the sink or the source, a
        /// covering box, and arbitrary (possibly off-device) rectangles.
        fn region(
            kind: u8,
            src: ClbCoord,
            dst: ClbCoord,
            r: u16,
            c: u16,
            h: u16,
            w: u16,
        ) -> Option<Rect> {
            let at = |t: ClbCoord| Rect::new(t, h + 1, w + 1);
            let covering = Rect::from_corners(
                ClbCoord::new(src.row.min(dst.row), src.col.min(dst.col)),
                ClbCoord::new(src.row.max(dst.row), src.col.max(dst.col)),
            );
            match kind {
                0 | 8 | 9 => None,
                1 => Some(Rect::new(ClbCoord::new(r % 40, c % 40), 0, w)),
                2 => Some(Rect::new(src, 1, 1)),
                3 => Some(Rect::new(ClbCoord::new(r % 40, c % 40), 1, 1)),
                // Anchored at the source: usually excludes the sink.
                4 => Some(at(src)),
                // Anchored at the sink: usually excludes the source.
                5 => Some(at(dst)),
                6 | 10 | 11 => Some(Rect::new(
                    ClbCoord::new(
                        covering.origin.row.saturating_sub(h),
                        covering.origin.col.saturating_sub(w),
                    ),
                    covering.rows + 2 * h,
                    covering.cols + 2 * w,
                )),
                7 => Some(Rect::new(ClbCoord::new(r % 40, c % 40), h * 4, w * 4)),
                _ => None,
            }
        }

        fn check(
            db: &NetDb,
            dev: &Device,
            net: &RoutedNet,
            id: NetId,
            sink: RouteNode,
            within: Option<Rect>,
        ) {
            let dense = db.find_path(dev, net, id, sink, within);
            let reference = reference_find_path(db, dev, net, id, sink, within);
            prop_assert_eq!(
                dense,
                reference,
                "net {} to {} within {:?}",
                id,
                sink,
                within
            );
        }

        #[test]
        fn seed_outside_within_grows_through_its_segment_link() {
            use rtm_fpga::routing::Dir;
            let mut d = dev();
            let mut db = NetDb::new();
            // A net ending on a south-bound single: its last node sits in
            // row 4, its segment link lands in row 5.
            let end = RouteNode::new(ClbCoord::new(4, 4), Wire::Out(Dir::South, 0));
            let id = db.route_net(&mut d, out(4, 3, 0), &[end], None).unwrap();
            let net = db.net(id).unwrap().clone();
            // Every node of the net lies outside the region.
            let region = Rect::new(ClbCoord::new(5, 0), 6, 12);
            assert!(net.nodes().all(|n| !region.contains(n.tile)));
            let within = Some(region);
            let sink = pin(7, 4, 0, 0);
            let dense = db.find_path(&d, &net, id, sink, within);
            assert_eq!(dense, reference_find_path(&db, &d, &net, id, sink, within));
            let path = dense.unwrap();
            assert!(
                path.contains(&end),
                "the branch grows from the outside seed"
            );
        }

        #[test]
        fn sink_outside_within_is_reached_over_a_segment_link() {
            use rtm_fpga::routing::Dir;
            let d = dev();
            let mut db = NetDb::new();
            let source = out(3, 3, 0);
            let id = db.nets.len();
            db.occupancy.entry(source).or_default().push(id);
            let net = RoutedNet::new(source);
            // The sink is the inbound end of a single leaving the region.
            let region = Rect::new(ClbCoord::new(2, 2), 4, 4);
            let sink = RouteNode::new(ClbCoord::new(6, 3), Wire::In(Dir::North, 0));
            assert!(!region.contains(sink.tile));
            let within = Some(region);
            let dense = db.find_path(&d, &net, id, sink, within);
            assert_eq!(dense, reference_find_path(&db, &d, &net, id, sink, within));
            assert_eq!(dense.unwrap().last(), Some(&sink));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn dense_search_matches_reference(
                big in any::<bool>(),
                reserved in proptest::collection::vec(
                    (any::<u16>(), any::<u16>(), 0usize..WIRE_COUNT, 0u8..4), 0..40),
                nets in proptest::collection::vec(
                    ((any::<u16>(), any::<u16>(), 0u8..4),
                     (0u16..17, 0u16..17, 0usize..2 * WIRE_COUNT),
                     (0u8..12, any::<u16>(), any::<u16>(), 0u16..6, 0u16..6)), 1..6),
                extends in proptest::collection::vec(
                    (any::<usize>(), 0u8..5,
                     (0u16..17, 0u16..17, 0usize..2 * WIRE_COUNT),
                     (0u8..12, any::<u16>(), any::<u16>(), 0u16..6, 0u16..6)), 0..6),
            ) {
                let mut dev = Device::new(if big { Part::Xcv100 } else { Part::Xcv50 });
                let mut db = NetDb::new();
                // Foreign reservations: single wires, or (one time in
                // four) every wire of a tile.
                for (r, c, w, whole) in reserved {
                    let tile = ClbCoord::new(r % dev.rows(), c % dev.cols());
                    if whole == 0 {
                        db.reserve(Wire::all().map(|w| RouteNode::new(tile, w)));
                    } else {
                        db.reserve([RouteNode::new(tile, Wire::from_index(w))]);
                    }
                }
                for ((r, c, cell), (dr, dc, wire), (kind, rr, rc, h, w)) in nets {
                    let src = ClbCoord::new(r % dev.rows(), c % dev.cols());
                    let source = RouteNode::new(src, Wire::CellOut(cell));
                    let dst = near(&dev, src, dr, dc);
                    let sink = RouteNode::new(dst, sink_wire(wire));
                    let within = region(kind, src, dst, rr, rc, h, w);
                    // A fresh net's first search, with the source's
                    // occupancy entry in place exactly as `route_net`
                    // makes it.
                    let id = db.nets.len();
                    db.occupancy.entry(source).or_default().push(id);
                    check(&db, &dev, &RoutedNet::new(source), id, sink, within);
                    remove_occupant(&mut db.occupancy, source, id);
                    let _ = db.route_net(&mut dev, source, &[sink], within);
                }
                for (pick, from, (dr, dc, wire), (kind, rr, rc, h, w)) in extends {
                    let live: Vec<NetId> = db.nets().map(|(id, _)| id).collect();
                    if live.is_empty() {
                        break;
                    }
                    let id = live[pick % live.len()];
                    let net = db.net(id).unwrap().clone();
                    let nodes: Vec<RouteNode> = net.nodes().collect();
                    let seed = nodes[pick % nodes.len()];
                    // `from == 0`: a node the net already owns
                    // (`SinkOccupied`); otherwise a sink near one of its
                    // nodes.
                    let sink = if from == 0 {
                        seed
                    } else {
                        RouteNode::new(near(&dev, seed.tile, dr, dc), sink_wire(wire))
                    };
                    // Kind 7 here: the net's bounding box minus its top
                    // row and left column, so some of the net's nodes
                    // sit just outside the region and seed the search
                    // through their segment links into it.
                    let within = if kind == 7 {
                        let (r0, c0) = nodes.iter().fold((u16::MAX, u16::MAX), |(r, c), n| {
                            (r.min(n.tile.row), c.min(n.tile.col))
                        });
                        let (r1, c1) = nodes
                            .iter()
                            .fold((0, 0), |(r, c), n| (r.max(n.tile.row), c.max(n.tile.col)));
                        Some(Rect::new(ClbCoord::new(r0 + 1, c0 + 1), r1 - r0, c1 - c0))
                    } else {
                        region(kind, seed.tile, sink.tile, rr, rc, h, w)
                    };
                    check(&db, &dev, &net, id, sink, within);
                    let _ = db.extend_net(&mut dev, id, sink, within);
                }
            }
        }
    }
}
