//! The 5-port wormhole router replicated per plane at every tile.

use crate::flit::Flit;
use crate::routing::{Route, RoutingTable};
use crate::{Coord, Plane};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// A router port. Four mesh directions plus the local (tile) port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Port {
    /// Towards row `y - 1`.
    North,
    /// Towards row `y + 1`.
    South,
    /// Towards column `x + 1`.
    East,
    /// Towards column `x - 1`.
    West,
    /// The tile socket attached to this router.
    Local,
}

impl Port {
    /// All ports in index order.
    pub const ALL: [Port; 5] = [
        Port::North,
        Port::South,
        Port::East,
        Port::West,
        Port::Local,
    ];

    /// Number of router ports.
    pub const COUNT: usize = 5;

    /// Dense index of the port.
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::South => 1,
            Port::East => 2,
            Port::West => 3,
            Port::Local => 4,
        }
    }

    /// The port a neighbouring router receives on when this router sends
    /// through `self` (i.e. the opposite direction).
    ///
    /// # Panics
    ///
    /// Panics for [`Port::Local`], which has no mesh counterpart.
    pub fn opposite(self) -> Port {
        match self {
            Port::North => Port::South,
            Port::South => Port::North,
            Port::East => Port::West,
            Port::West => Port::East,
            Port::Local => panic!("local port has no opposite"),
        }
    }

    /// The coordinate reached by stepping from `from` through this port, or
    /// `None` if the step leaves the `u8` coordinate space (mesh bounds are
    /// checked by the caller).
    pub fn step(self, from: Coord) -> Option<Coord> {
        match self {
            Port::North => from.y.checked_sub(1).map(|y| Coord::new(from.x, y)),
            Port::South => from.y.checked_add(1).map(|y| Coord::new(from.x, y)),
            Port::East => from.x.checked_add(1).map(|x| Coord::new(x, from.y)),
            Port::West => from.x.checked_sub(1).map(|x| Coord::new(x, from.y)),
            Port::Local => Some(from),
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::North => "N",
            Port::South => "S",
            Port::East => "E",
            Port::West => "W",
            Port::Local => "L",
        };
        f.write_str(s)
    }
}

/// Configuration of a single router (shared by all routers of a mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Capacity, in flits, of each input queue (per plane, per port).
    pub input_queue_depth: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        // ESP uses shallow queues at tile/NoC interfaces; 4 flits is the
        // depth used by the ESP wormhole router input buffers.
        RouterConfig {
            input_queue_depth: 4,
        }
    }
}

/// Per-plane router state: input queues, wormhole locks, arbitration state.
#[derive(Debug)]
struct PlaneRouter {
    /// One input FIFO per port.
    inputs: [VecDeque<Flit>; Port::COUNT],
    /// For each output port: the input port currently holding the wormhole,
    /// if a packet is in flight through that output.
    locks: [Option<Port>; Port::COUNT],
    /// Round-robin arbitration pointer per output port.
    rr: [usize; Port::COUNT],
}

impl PlaneRouter {
    /// Allocates every input FIFO at its full `depth` up front, so pushes
    /// never reallocate mid-simulation.
    fn new(depth: usize) -> Self {
        PlaneRouter {
            inputs: std::array::from_fn(|_| VecDeque::with_capacity(depth)),
            locks: [None; Port::COUNT],
            rr: [0; Port::COUNT],
        }
    }
}

/// A single mesh router: five ports, one queue set per plane, XY routing.
///
/// Routers are stepped by the [`Mesh`](crate::Mesh) in two phases per cycle
/// (select then commit) so that a flit advances at most one hop per cycle.
#[derive(Debug)]
pub struct Router {
    coord: Coord,
    table: RoutingTable,
    config: RouterConfig,
    planes: [PlaneRouter; Plane::COUNT],
    /// Flits queued on each plane's input ports, kept in step with every
    /// push and pop so arbitration can skip empty planes outright.
    plane_flits: [usize; Plane::COUNT],
    /// Flits this router forwarded onto mesh links (all planes).
    forwarded_flits: u64,
    /// Flits moved through each `(plane, output port)` — link occupancy
    /// counters for the NoC heatmap (the Local column counts ejections).
    link_flits: [[u64; Port::COUNT]; Plane::COUNT],
    /// Per-plane cycles a selected wormhole stalled on downstream
    /// back-pressure (zero credits).
    credit_stalls: [u64; Plane::COUNT],
}

/// A transfer selected during the arbitration phase of a cycle.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    /// The router that selected the transfer.
    pub(crate) at: Coord,
    pub(crate) plane: Plane,
    pub(crate) in_port: Port,
    pub(crate) out_port: Port,
    pub(crate) flit: Flit,
}

impl Router {
    /// Creates a router for the tile at `coord` in a `cols x rows` mesh.
    pub fn new(coord: Coord, cols: usize, rows: usize, config: RouterConfig) -> Self {
        Router {
            coord,
            table: RoutingTable::xy(coord, cols, rows),
            config,
            planes: std::array::from_fn(|_| PlaneRouter::new(config.input_queue_depth)),
            plane_flits: [0; Plane::COUNT],
            forwarded_flits: 0,
            link_flits: [[0; Port::COUNT]; Plane::COUNT],
            credit_stalls: [0; Plane::COUNT],
        }
    }

    /// The tile coordinate of this router.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Flits this router has forwarded onto mesh links (all planes) — a
    /// per-router congestion indicator.
    pub fn forwarded_flits(&self) -> u64 {
        self.forwarded_flits
    }

    /// Flits moved through output `port` of `plane` (the Local port
    /// counts ejections into the tile).
    pub fn link_flits(&self, plane: Plane, port: Port) -> u64 {
        self.link_flits[plane.index()][port.index()]
    }

    /// Cycles a selected wormhole on `plane` stalled because the
    /// downstream queue had no free credit.
    pub fn credit_stalls(&self, plane: Plane) -> u64 {
        self.credit_stalls[plane.index()]
    }

    /// The routing table in use (XY by default).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Replaces the routing table (for custom-route experiments).
    pub fn set_table(&mut self, table: RoutingTable) {
        self.table = table;
    }

    /// Free slots in the input queue `(plane, port)`.
    pub fn free_slots(&self, plane: Plane, port: Port) -> usize {
        let q = &self.planes[plane.index()].inputs[port.index()];
        self.config.input_queue_depth.saturating_sub(q.len())
    }

    /// Current occupancy of the input queue `(plane, port)`.
    pub fn occupancy(&self, plane: Plane, port: Port) -> usize {
        self.planes[plane.index()].inputs[port.index()].len()
    }

    /// Flits queued on `plane`'s input ports.
    pub(crate) fn plane_flits(&self, plane: Plane) -> usize {
        self.plane_flits[plane.index()]
    }

    /// Whether no input queue of any plane holds a flit.
    pub(crate) fn is_empty(&self) -> bool {
        self.plane_flits.iter().all(|&n| n == 0)
    }

    /// [`Router::plane_flits`] recounted from the queues themselves: the
    /// oracle the counter is checked against in debug builds and tests.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn plane_flits_by_scan(&self, plane: Plane) -> usize {
        self.planes[plane.index()]
            .inputs
            .iter()
            .map(VecDeque::len)
            .sum()
    }

    /// Pushes a flit into an input queue. Used by the mesh for link
    /// traversal and local injection.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — the mesh must check
    /// [`Router::free_slots`] first (this models lossless flow control).
    pub(crate) fn push_input(&mut self, plane: Plane, port: Port, flit: Flit) {
        let q = &mut self.planes[plane.index()].inputs[port.index()];
        assert!(
            q.len() < self.config.input_queue_depth,
            "flow-control violation at {} plane {plane} port {port}",
            self.coord
        );
        q.push_back(flit);
        self.plane_flits[plane.index()] += 1;
    }

    /// Arbitration phase: for every `(plane, output port)` pick at most one
    /// input whose head flit routes to that output, respecting wormhole
    /// locks. `downstream_free` reports, for `(plane, out_port)`, how many
    /// flits the downstream queue can still accept this cycle.
    ///
    /// Selected flits are popped from their input queues and appended to
    /// `transfers`; the mesh commits them to downstream queues at the end
    /// of the cycle. A plane with no queued flit is skipped: nothing on it
    /// could be chosen, so no lock, pointer or stall counter could move.
    pub(crate) fn select(
        &mut self,
        transfers: &mut Vec<Transfer>,
        mut downstream_free: impl FnMut(Plane, Port) -> usize,
    ) {
        for plane in Plane::ALL {
            if self.plane_flits[plane.index()] == 0 {
                continue;
            }
            let pr = &mut self.planes[plane.index()];
            for out in Port::ALL {
                let oi = out.index();
                // Candidate inputs: either the lock holder, or (if no lock)
                // any input whose head flit routes to `out`.
                let holder = pr.locks[oi];
                let mut chosen: Option<Port> = None;
                if let Some(h) = holder {
                    let q = &pr.inputs[h.index()];
                    if let Some(f) = q.front() {
                        if Self::route_port(&self.table, f.dest) == out {
                            chosen = Some(h);
                        }
                    }
                } else {
                    // Round-robin over input ports.
                    let start = pr.rr[oi];
                    for k in 0..Port::COUNT {
                        let cand = Port::ALL[(start + k) % Port::COUNT];
                        if cand == out && out != Port::Local {
                            continue; // no u-turns on mesh ports
                        }
                        let q = &pr.inputs[cand.index()];
                        if let Some(f) = q.front() {
                            if f.kind.is_head() && Self::route_port(&self.table, f.dest) == out {
                                chosen = Some(cand);
                                break;
                            }
                        }
                    }
                }
                let Some(inp) = chosen else { continue };
                if downstream_free(plane, out) == 0 {
                    self.credit_stalls[plane.index()] += 1;
                    continue; // back-pressure: stall this wormhole
                }
                let flit = pr.inputs[inp.index()]
                    .pop_front()
                    .expect("candidate queue non-empty");
                self.plane_flits[plane.index()] -= 1;
                // Maintain the wormhole lock.
                if flit.kind.is_tail() {
                    pr.locks[oi] = None;
                    pr.rr[oi] = (inp.index() + 1) % Port::COUNT;
                } else {
                    pr.locks[oi] = Some(inp);
                }
                if out != Port::Local {
                    self.forwarded_flits += 1;
                }
                self.link_flits[plane.index()][oi] += 1;
                transfers.push(Transfer {
                    at: self.coord,
                    plane,
                    in_port: inp,
                    out_port: out,
                    flit,
                });
            }
        }
    }

    fn route_port(table: &RoutingTable, dest: Coord) -> Port {
        match table.route(dest) {
            Route::Forward(p) => p,
            Route::Local => Port::Local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;
    use crate::MsgKind;

    fn flit(dest: Coord, kind: FlitKind) -> Flit {
        Flit {
            kind,
            src: Coord::new(0, 0),
            dest,
            plane: Plane::DmaReq,
            msg: MsgKind::DmaData,
            payload: 0,
            inject_cycle: 0,
            frame: None,
        }
    }

    /// Runs one arbitration round and returns what it selected.
    fn select(r: &mut Router, free: usize) -> Vec<Transfer> {
        let mut transfers = Vec::new();
        r.select(&mut transfers, |_, _| free);
        transfers
    }

    #[test]
    fn port_opposites() {
        assert_eq!(Port::North.opposite(), Port::South);
        assert_eq!(Port::East.opposite(), Port::West);
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_opposite_panics() {
        let _ = Port::Local.opposite();
    }

    #[test]
    fn port_step() {
        let c = Coord::new(1, 1);
        assert_eq!(Port::North.step(c), Some(Coord::new(1, 0)));
        assert_eq!(Port::South.step(c), Some(Coord::new(1, 2)));
        assert_eq!(Port::East.step(c), Some(Coord::new(2, 1)));
        assert_eq!(Port::West.step(c), Some(Coord::new(0, 1)));
        assert_eq!(Port::North.step(Coord::new(0, 0)), None);
        assert_eq!(Port::West.step(Coord::new(0, 0)), None);
    }

    #[test]
    fn select_routes_flit_east() {
        let mut r = Router::new(Coord::new(0, 0), 3, 3, RouterConfig::default());
        r.push_input(
            Plane::DmaReq,
            Port::Local,
            flit(Coord::new(2, 0), FlitKind::HeadTail),
        );
        let t = select(&mut r, 4);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].out_port, Port::East);
    }

    #[test]
    fn select_respects_backpressure() {
        let mut r = Router::new(Coord::new(0, 0), 3, 3, RouterConfig::default());
        r.push_input(
            Plane::DmaReq,
            Port::Local,
            flit(Coord::new(2, 0), FlitKind::HeadTail),
        );
        let t = select(&mut r, 0);
        assert!(t.is_empty());
        assert_eq!(r.occupancy(Plane::DmaReq, Port::Local), 1);
    }

    #[test]
    fn wormhole_lock_prevents_interleaving() {
        let mut r = Router::new(Coord::new(0, 0), 3, 3, RouterConfig::default());
        // Packet A (2 flits) from Local, packet B (1 flit) from North; both go East.
        r.push_input(
            Plane::DmaReq,
            Port::Local,
            flit(Coord::new(2, 0), FlitKind::Head),
        );
        r.push_input(
            Plane::DmaReq,
            Port::Local,
            flit(Coord::new(2, 0), FlitKind::Tail),
        );
        r.push_input(
            Plane::DmaReq,
            Port::North,
            flit(Coord::new(1, 0), FlitKind::HeadTail),
        );
        // Cycle 1: some head wins the East output.
        let t1 = select(&mut r, 4);
        let winner_src_kind = t1
            .iter()
            .find(|t| t.out_port == Port::East)
            .expect("east transfer")
            .flit
            .kind;
        if winner_src_kind == FlitKind::Head {
            // Cycle 2: the locked wormhole must deliver A's tail, not B.
            let t2 = select(&mut r, 4);
            let east: Vec<_> = t2.iter().filter(|t| t.out_port == Port::East).collect();
            assert_eq!(east.len(), 1);
            assert_eq!(east[0].flit.kind, FlitKind::Tail);
        }
    }

    #[test]
    fn link_counters_track_forwards_and_ejections() {
        let mut r = Router::new(Coord::new(0, 0), 3, 3, RouterConfig::default());
        r.push_input(
            Plane::DmaReq,
            Port::Local,
            flit(Coord::new(2, 0), FlitKind::HeadTail),
        );
        r.push_input(
            Plane::DmaReq,
            Port::West,
            flit(Coord::new(0, 0), FlitKind::HeadTail),
        );
        let t = select(&mut r, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(r.link_flits(Plane::DmaReq, Port::East), 1);
        assert_eq!(r.link_flits(Plane::DmaReq, Port::Local), 1);
        assert_eq!(r.link_flits(Plane::DmaReq, Port::North), 0);
        assert_eq!(r.link_flits(Plane::CohReq, Port::East), 0);
        // Ejections count on the Local column but not as forwards.
        assert_eq!(r.forwarded_flits(), 1);
        assert_eq!(r.credit_stalls(Plane::DmaReq), 0);
    }

    #[test]
    fn credit_stalls_count_backpressured_cycles() {
        let mut r = Router::new(Coord::new(0, 0), 3, 3, RouterConfig::default());
        r.push_input(
            Plane::DmaReq,
            Port::Local,
            flit(Coord::new(2, 0), FlitKind::HeadTail),
        );
        for _ in 0..3 {
            assert!(select(&mut r, 0).is_empty());
        }
        assert_eq!(r.credit_stalls(Plane::DmaReq), 3);
        assert_eq!(r.link_flits(Plane::DmaReq, Port::East), 0);
        let t = select(&mut r, 4);
        assert_eq!(t.len(), 1);
        assert_eq!(r.credit_stalls(Plane::DmaReq), 3);
        assert_eq!(r.link_flits(Plane::DmaReq, Port::East), 1);
    }

    #[test]
    fn full_queue_panics_on_push() {
        let mut r = Router::new(
            Coord::new(0, 0),
            2,
            2,
            RouterConfig {
                input_queue_depth: 1,
            },
        );
        r.push_input(
            Plane::DmaReq,
            Port::Local,
            flit(Coord::new(1, 0), FlitKind::HeadTail),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.push_input(
                Plane::DmaReq,
                Port::Local,
                flit(Coord::new(1, 0), FlitKind::HeadTail),
            );
        }));
        assert!(result.is_err());
    }
}
