//! The 2-D mesh: nodes, XY routing, arbitrated links, per-link accounting.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use tve_sim::{Duration, SimHandle};
use tve_tlm::{
    AddrRange, Arbiter, ArbiterPolicy, BindError, LocalBoxFuture, ResponseStatus, TamIf,
    Transaction, UtilizationMonitor,
};

/// A mesh node coordinate `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl NodeId {
    /// Creates the coordinate `(x, y)`.
    pub fn new(x: u32, y: u32) -> Self {
        NodeId { x, y }
    }

    /// Manhattan distance to `other` — the XY hop count.
    pub fn hops_to(&self, other: NodeId) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A directed link between adjacent nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId {
    /// Source node.
    pub(crate) from: NodeId,
    /// Destination node (adjacent to `from`).
    pub(crate) to: NodeId,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// Mesh geometry and link timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Columns.
    pub cols: u32,
    /// Rows.
    pub rows: u32,
    /// Bits a link moves per occupied cycle.
    pub link_width_bits: u32,
    /// Per-hop overhead cycles (router pipeline, header).
    pub hop_overhead: u64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            cols: 3,
            rows: 3,
            link_width_bits: 32,
            hop_overhead: 2,
        }
    }
}

struct Link {
    arbiter: Arbiter,
    busy: std::cell::Cell<u64>,
}

/// A bound target: node, address window, component.
type BoundTarget = (NodeId, AddrRange, Rc<dyn TamIf>);

/// The mesh NoC; see the crate docs for the model.
pub struct MeshNoc {
    handle: SimHandle,
    cfg: MeshConfig,
    links: BTreeMap<(NodeId, NodeId), Link>,
    targets: RefCell<Vec<BoundTarget>>,
    monitor: RefCell<UtilizationMonitor>,
}

impl fmt::Debug for MeshNoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeshNoc")
            .field("cols", &self.cfg.cols)
            .field("rows", &self.cfg.rows)
            .field("targets", &self.targets.borrow().len())
            .finish()
    }
}

impl MeshNoc {
    /// Creates an empty `cols × rows` mesh.
    ///
    /// # Panics
    ///
    /// Panics for a degenerate geometry or zero link width.
    pub fn new(handle: &SimHandle, cfg: MeshConfig) -> Self {
        assert!(cfg.cols > 0 && cfg.rows > 0, "mesh must be non-empty");
        assert!(cfg.link_width_bits > 0, "link width must be positive");
        let mut links = BTreeMap::new();
        let mut add = |a: NodeId, b: NodeId| {
            links.insert(
                (a, b),
                Link {
                    arbiter: Arbiter::new(handle, ArbiterPolicy::Fcfs),
                    busy: std::cell::Cell::new(0),
                },
            );
        };
        for x in 0..cfg.cols {
            for y in 0..cfg.rows {
                let n = NodeId::new(x, y);
                if x + 1 < cfg.cols {
                    add(n, NodeId::new(x + 1, y));
                    add(NodeId::new(x + 1, y), n);
                }
                if y + 1 < cfg.rows {
                    add(n, NodeId::new(x, y + 1));
                    add(NodeId::new(x, y + 1), n);
                }
            }
        }
        MeshNoc {
            handle: handle.clone(),
            cfg,
            links,
            targets: RefCell::new(Vec::new()),
            monitor: RefCell::new(UtilizationMonitor::new(Duration::cycles(65_536))),
        }
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whether `node` lies inside the mesh.
    pub fn contains(&self, node: NodeId) -> bool {
        node.x < self.cfg.cols && node.y < self.cfg.rows
    }

    /// Binds `target` at `node`, reachable at `range` from any port.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if `range` overlaps an existing mapping.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    pub fn bind(
        &self,
        node: NodeId,
        range: AddrRange,
        target: Rc<dyn TamIf>,
    ) -> Result<(), BindError> {
        assert!(self.contains(node), "node {node} outside the mesh");
        let mut targets = self.targets.borrow_mut();
        for (_, existing, _) in targets.iter() {
            if existing.overlaps(&range) {
                return Err(BindError {
                    range,
                    conflict: *existing,
                });
            }
        }
        targets.push((node, range, target));
        Ok(())
    }

    /// An initiator port attached at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    pub fn port(self: &Rc<Self>, node: NodeId) -> NocPort {
        assert!(self.contains(node), "node {node} outside the mesh");
        NocPort {
            noc: Rc::clone(self),
            node,
            name: format!("noc-port{node}"),
        }
    }

    /// The XY (dimension-ordered, deadlock-free) route from `from` to
    /// `to`, as the sequence of traversed nodes excluding `from`.
    pub fn xy_route(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(from.hops_to(to) as usize);
        let mut cur = from;
        while cur.x != to.x {
            cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(cur);
        }
        while cur.y != to.y {
            cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(cur);
        }
        path
    }

    /// Cycles a packet of `bits` occupies one link.
    pub(crate) fn hop_occupancy(&self, bits: u64) -> Duration {
        Duration::cycles(self.cfg.hop_overhead + bits.div_ceil(self.cfg.link_width_bits as u64))
    }

    /// Total busy link-cycles recorded so far.
    pub fn total_busy_cycles(&self) -> u64 {
        self.monitor.borrow().total_busy_cycles()
    }

    /// The busiest directed link and its busy cycles — the hot spot a
    /// test engineer looks for.
    pub fn hottest_link(&self) -> Option<(LinkId, u64)> {
        self.links
            .iter()
            .max_by_key(|(_, l)| l.busy.get())
            .map(|(&(from, to), l)| (LinkId { from, to }, l.busy.get()))
    }

    fn lookup(&self, addr: u32) -> Option<(NodeId, Rc<dyn TamIf>)> {
        self.targets
            .borrow()
            .iter()
            .find(|(_, range, _)| range.contains(addr))
            .map(|(node, _, t)| (*node, Rc::clone(t)))
    }

    /// Moves a packet from `src` toward the target of `txn`, hop by hop
    /// (store-and-forward), then delivers it.
    async fn route_and_deliver(&self, src: NodeId, txn: &mut Transaction) {
        let Some((dst, target)) = self.lookup(txn.addr) else {
            txn.status = ResponseStatus::AddressError;
            return;
        };
        let dur = self.hop_occupancy(txn.bit_len);
        let mut prev = src;
        for next in self.xy_route(src, dst) {
            let link = self
                .links
                .get(&(prev, next))
                .expect("XY route uses existing links");
            link.arbiter.acquire(txn.initiator).await;
            link.busy.set(link.busy.get() + dur.as_cycles());
            self.monitor
                .borrow_mut()
                .record_busy(self.handle.now(), dur, txn.initiator);
            self.handle.wait(dur).await;
            link.arbiter.release();
            prev = next;
        }
        target.transport(txn).await;
    }
}

/// An initiator-side port of the mesh; implements [`TamIf`] so sources and
/// controllers work over the NoC unchanged.
pub struct NocPort {
    noc: Rc<MeshNoc>,
    node: NodeId,
    name: String,
}

impl fmt::Debug for NocPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NocPort").field("node", &self.node).finish()
    }
}

impl TamIf for NocPort {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            self.noc.route_and_deliver(self.node, txn).await;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_sim::Simulation;
    use tve_tlm::{Command, InitiatorId, SinkTarget, TamIfExt};

    fn mesh(sim: &Simulation) -> Rc<MeshNoc> {
        Rc::new(MeshNoc::new(&sim.handle(), MeshConfig::default()))
    }

    #[test]
    fn geometry_and_links() {
        let sim = Simulation::new();
        let noc = mesh(&sim);
        // 3x3 mesh: 12 undirected edges = 24 directed links.
        assert_eq!(noc.link_count(), 24);
        assert!(noc.contains(NodeId::new(2, 2)));
        assert!(!noc.contains(NodeId::new(3, 0)));
    }

    #[test]
    fn xy_route_is_dimension_ordered_manhattan() {
        let sim = Simulation::new();
        let noc = mesh(&sim);
        let path = noc.xy_route(NodeId::new(0, 0), NodeId::new(2, 1));
        assert_eq!(
            path,
            vec![NodeId::new(1, 0), NodeId::new(2, 0), NodeId::new(2, 1)]
        );
        assert_eq!(
            path.len() as u32,
            NodeId::new(0, 0).hops_to(NodeId::new(2, 1))
        );
        assert!(noc
            .xy_route(NodeId::new(1, 1), NodeId::new(1, 1))
            .is_empty());
    }

    #[test]
    fn delivery_time_scales_with_hops() {
        let mut sim = Simulation::new();
        let noc = mesh(&sim);
        let sink = Rc::new(SinkTarget::new("s"));
        noc.bind(NodeId::new(2, 2), AddrRange::new(0, 0x100), sink.clone())
            .unwrap();
        let near = noc.port(NodeId::new(2, 1)); // 1 hop
        let far = noc.port(NodeId::new(0, 0)); // 4 hops
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let t0 = h.now();
            near.write(InitiatorId(0), 0, &[0; 4], 128).await.unwrap();
            let near_time = (h.now() - t0).as_cycles();
            let t1 = h.now();
            far.write(InitiatorId(0), 0, &[0; 4], 128).await.unwrap();
            let far_time = (h.now() - t1).as_cycles();
            (near_time, far_time)
        });
        sim.run();
        let (near_time, far_time) = jh.try_take().unwrap();
        // hop = 2 overhead + 4 transfer = 6 cycles.
        assert_eq!(near_time, 6);
        assert_eq!(far_time, 24);
        assert_eq!(sink.transaction_count(), 2);
    }

    #[test]
    fn disjoint_paths_run_concurrently_shared_links_serialize() {
        // Two transfers on disjoint rows finish in one-hop time; two on
        // the same link serialize.
        let mut sim = Simulation::new();
        let noc = mesh(&sim);
        let a = Rc::new(SinkTarget::new("a"));
        let b = Rc::new(SinkTarget::new("b"));
        noc.bind(NodeId::new(1, 0), AddrRange::new(0x000, 0x10), a)
            .unwrap();
        noc.bind(NodeId::new(1, 2), AddrRange::new(0x100, 0x10), b)
            .unwrap();
        let p0 = noc.port(NodeId::new(0, 0));
        let p1 = noc.port(NodeId::new(0, 2));
        for (port, addr) in [(p0, 0x000u32), (p1, 0x100)] {
            sim.spawn(async move {
                port.transfer_volume(InitiatorId(0), Command::Write, addr, 128)
                    .await
                    .unwrap();
            });
        }
        assert_eq!(sim.run().cycles(), 6, "disjoint rows are parallel");

        // Same source link: serialized.
        let mut sim = Simulation::new();
        let noc = mesh(&sim);
        let c = Rc::new(SinkTarget::new("c"));
        noc.bind(NodeId::new(1, 0), AddrRange::new(0, 0x10), c)
            .unwrap();
        for i in 0..2u8 {
            let port = noc.port(NodeId::new(0, 0));
            sim.spawn(async move {
                port.transfer_volume(InitiatorId(i), Command::Write, 0, 128)
                    .await
                    .unwrap();
            });
        }
        assert_eq!(sim.run().cycles(), 12, "shared link serializes");
    }

    #[test]
    fn hottest_link_identifies_the_bottleneck() {
        let mut sim = Simulation::new();
        let noc = mesh(&sim);
        let sink = Rc::new(SinkTarget::new("hot"));
        noc.bind(NodeId::new(2, 0), AddrRange::new(0, 0x10), sink)
            .unwrap();
        // All traffic funnels through (1,0)->(2,0).
        for y in 0..3u32 {
            let port = noc.port(NodeId::new(0, y));
            sim.spawn(async move {
                port.transfer_volume(InitiatorId(y as u8), Command::Write, 0, 256)
                    .await
                    .unwrap();
            });
        }
        sim.run();
        // XY routes x first: packets from (0,1) and (0,2) both descend the
        // rightmost column, so (2,1)->(2,0) carries two of the three.
        let (link, busy) = noc.hottest_link().unwrap();
        assert_eq!(link.from, NodeId::new(2, 1));
        assert_eq!(link.to, NodeId::new(2, 0));
        assert_eq!(busy, 2 * 10); // 2 packets x (2 + 256/32)
    }

    #[test]
    fn unmapped_address_errors() {
        let mut sim = Simulation::new();
        let noc = mesh(&sim);
        let port = noc.port(NodeId::new(0, 0));
        let jh = sim.spawn(async move { port.read(InitiatorId(0), 0xDEAD, 32).await });
        sim.run();
        assert_eq!(
            jh.try_take().unwrap().unwrap_err().status,
            ResponseStatus::AddressError
        );
    }

    #[test]
    fn heavy_random_traffic_completes_without_deadlock() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut sim = Simulation::new();
        let noc = mesh(&sim);
        let mut sinks = Vec::new();
        for (i, (x, y)) in [(0u32, 0u32), (2, 0), (0, 2), (2, 2), (1, 1)]
            .iter()
            .enumerate()
        {
            let sink = Rc::new(SinkTarget::new(format!("s{i}")));
            noc.bind(
                NodeId::new(*x, *y),
                AddrRange::new(i as u32 * 0x100, 0x100),
                sink.clone(),
            )
            .unwrap();
            sinks.push(sink);
        }
        let mut rng = StdRng::seed_from_u64(42);
        let total = 200;
        for k in 0..total {
            let src = NodeId::new(rng.gen_range(0..3), rng.gen_range(0..3));
            let dst_addr = rng.gen_range(0..5u32) * 0x100;
            let bits = rng.gen_range(32..2048);
            let port = noc.port(src);
            sim.spawn(async move {
                port.transfer_volume(InitiatorId((k % 8) as u8), Command::Write, dst_addr, bits)
                    .await
                    .unwrap();
            });
        }
        sim.run();
        let delivered: u64 = sinks.iter().map(|s| s.transaction_count()).sum();
        assert_eq!(delivered, total as u64, "XY routing must not deadlock");
        assert!(noc.total_busy_cycles() > 0);
    }

    #[test]
    fn binding_outside_the_mesh_panics() {
        let sim = Simulation::new();
        let noc = mesh(&sim);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = noc.bind(
                NodeId::new(9, 9),
                AddrRange::new(0, 1),
                Rc::new(SinkTarget::new("x")),
            );
        }));
        assert!(result.is_err());
    }
}
