//! Manhattan-grid Network-on-Chip mesh for inter-checker routing.
//!
//! FireGuard's fabric network (paper §III-C) has two channels: a half-duplex
//! multicast channel (event filter → message queues, modelled in
//! `fireguard-core`) and a full-duplex routing channel — a Manhattan-grid
//! NoC mesh over which analysis engines exchange packets (e.g. the shadow
//! stack's block-parallelism handoff). Each router has five bidirectional
//! ports (north/south/east/west/local).
//!
//! The model is a deterministic contention-aware latency model: packets
//! follow dimension-ordered XY routes; each router output port is a
//! resource that serialises one flit per slow-domain cycle, so congested
//! links queue packets and per-flow ordering is preserved.
//!
//! # Examples
//!
//! ```
//! use fireguard_noc::{Mesh, NodeId};
//! let mut mesh = Mesh::new(4, 4);
//! let a = mesh.node(0, 0);
//! let b = mesh.node(3, 2);
//! let t = mesh.send(a, b, 100);
//! assert!(t > 100);
//! ```

#![forbid(unsafe_code)]

/// Identifies a mesh node (an attached analysis engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// The flat index of this node.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Statistics for the mesh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Packets routed.
    pub packets: u64,
    /// Total hop count across all packets.
    pub hops: u64,
    /// Total queueing delay (cycles spent waiting for busy ports).
    pub queueing: u64,
}

/// A `w × h` Manhattan-grid mesh with XY dimension-ordered routing.
#[derive(Debug, Clone)]
pub struct Mesh {
    w: u16,
    h: u16,
    /// `port_busy[router][dir]`: the cycle at which that output port frees.
    /// Directions: 0=east, 1=west, 2=north, 3=south, 4=local-eject.
    port_busy: Vec<[u64; 5]>,
    /// Per source→destination pair, the last delivery time (per-flow
    /// FIFO), as a flat `src * nodes + dst` table: mesh sizes are tiny
    /// (≤16 engines), so a dense array beats a map on the routing path.
    /// 0 means "never delivered" (deliveries are always ≥ 1).
    last_delivery: Vec<u64>,
    stats: MeshStats,
}

impl Mesh {
    /// Builds a mesh of `w × h` routers.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(w: u16, h: u16) -> Self {
        assert!(w > 0 && h > 0, "mesh dimensions must be positive");
        Mesh {
            w,
            h,
            port_busy: vec![[0; 5]; usize::from(w) * usize::from(h)],
            last_delivery: vec![
                0;
                usize::from(w) * usize::from(h) * usize::from(w) * usize::from(h)
            ],
            stats: MeshStats::default(),
        }
    }

    /// A mesh sized for `engines` nodes: the smallest near-square grid.
    pub fn for_engines(engines: usize) -> Self {
        assert!(engines > 0);
        let w = (engines as f64).sqrt().ceil() as u16;
        let h = engines.div_ceil(usize::from(w)) as u16;
        Mesh::new(w.max(1), h.max(1))
    }

    /// The node at grid position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node(&self, x: u16, y: u16) -> NodeId {
        assert!(x < self.w && y < self.h, "node outside mesh");
        NodeId(y * self.w + x)
    }

    /// The node for a flat engine index (row-major).
    pub fn node_for_engine(&self, engine: usize) -> NodeId {
        assert!(engine < usize::from(self.w) * usize::from(self.h));
        NodeId(engine as u16)
    }

    /// Grid coordinates of `n`.
    pub fn coords(&self, n: NodeId) -> (u16, u16) {
        (n.0 % self.w, n.0 / self.w)
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        u64::from(ax.abs_diff(bx)) + u64::from(ay.abs_diff(by))
    }

    /// Routes one packet from `src` to `dst`, injected at slow-domain cycle
    /// `now`; returns the delivery cycle at the destination's local port.
    ///
    /// Uses XY routing (east/west first, then north/south); every traversed
    /// output port serialises one packet per cycle, modelling contention.
    pub fn send(&mut self, src: NodeId, dst: NodeId, now: u64) -> u64 {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut t = now;
        let mut hops = 0u64;
        let mut queueing = 0u64;

        let mut traverse = |mesh: &mut Mesh, x: u16, y: u16, dir: usize, t: &mut u64| {
            let r = usize::from(y) * usize::from(mesh.w) + usize::from(x);
            let free = mesh.port_busy[r][dir].max(*t);
            queueing += free - *t;
            mesh.port_busy[r][dir] = free + 1;
            *t = free + 1;
        };

        while x != dx {
            let dir = if dx > x { 0 } else { 1 };
            traverse(self, x, y, dir, &mut t);
            x = if dx > x { x + 1 } else { x - 1 };
            hops += 1;
        }
        while y != dy {
            let dir = if dy > y { 2 } else { 3 };
            traverse(self, x, y, dir, &mut t);
            y = if dy > y { y + 1 } else { y - 1 };
            hops += 1;
        }
        // Local ejection port at the destination.
        traverse(self, x, y, 4, &mut t);

        // Per-flow FIFO: a later send on the same flow never arrives earlier.
        let nodes = usize::from(self.w) * usize::from(self.h);
        let flow = usize::from(src.0) * nodes + usize::from(dst.0);
        let t = t.max(self.last_delivery[flow] + 1);
        self.last_delivery[flow] = t;

        self.stats.packets += 1;
        self.stats.hops += hops;
        self.stats.queueing += queueing;
        t
    }

    /// Mesh statistics.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Width of the grid.
    pub fn width(&self) -> u16 {
        self.w
    }

    /// Height of the grid.
    pub fn height(&self) -> u16 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hop_send_costs_only_ejection() {
        let mut m = Mesh::new(2, 2);
        let n = m.node(1, 1);
        assert_eq!(m.send(n, n, 10), 11);
    }

    #[test]
    fn latency_scales_with_manhattan_distance() {
        let mut m = Mesh::new(4, 4);
        let a = m.node(0, 0);
        let b = m.node(3, 3);
        assert_eq!(m.hops(a, b), 6);
        // 6 hops + ejection, uncontended: 7 cycles.
        assert_eq!(m.send(a, b, 0), 7);
    }

    #[test]
    fn contention_queues_on_shared_ports() {
        let mut m = Mesh::new(4, 1);
        let a = m.node(0, 0);
        let b = m.node(3, 0);
        let t1 = m.send(a, b, 0);
        let t2 = m.send(a, b, 0);
        assert!(t2 > t1, "same-cycle injections serialise: {t1} vs {t2}");
        assert!(m.stats().queueing > 0);
    }

    #[test]
    fn per_flow_ordering_holds_under_cross_traffic() {
        let mut m = Mesh::new(3, 3);
        let a = m.node(0, 0);
        let b = m.node(2, 2);
        let c = m.node(1, 0);
        let mut last = 0;
        for i in 0..20 {
            // cross traffic sharing the east links
            let _ = m.send(c, b, i);
            let t = m.send(a, b, i);
            assert!(t > last, "per-flow FIFO violated at {i}");
            last = t;
        }
    }

    #[test]
    fn for_engines_builds_near_square() {
        let m = Mesh::for_engines(12);
        assert!(usize::from(m.width()) * usize::from(m.height()) >= 12);
        assert!(m.width().abs_diff(m.height()) <= 1);
    }

    #[test]
    fn xy_routes_are_deterministic() {
        let run = || {
            let mut m = Mesh::new(4, 4);
            let mut total = 0;
            for i in 0..16u16 {
                for j in 0..16u16 {
                    let a = m.node_for_engine(usize::from(i));
                    let b = m.node_for_engine(usize::from(j));
                    total += m.send(a, b, u64::from(i) * 3);
                }
            }
            total
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_bounds_node_panics() {
        let m = Mesh::new(2, 2);
        let _ = m.node(2, 0);
    }

    #[test]
    fn coords_round_trip() {
        let m = Mesh::new(5, 3);
        for y in 0..3 {
            for x in 0..5 {
                assert_eq!(m.coords(m.node(x, y)), (x, y));
            }
        }
    }
}
