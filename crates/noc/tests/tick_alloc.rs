//! The mesh hot path does not touch the heap.
//!
//! A counting global allocator (this test binary only) records the heap
//! allocations made on the current thread while a probe runs. Once the
//! mesh is warmed up, a tick that only moves flits between routers — no
//! flit reaches a Local (ejection) port, where packet reassembly
//! legitimately allocates — must make zero allocations, and the idle and
//! progress queries the engine calls every step must never allocate.

use esp4ml_noc::{Coord, Mesh, MeshConfig, MsgKind, Packet, Plane, Port};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract, and `ptr`
        // came from `System` because every allocation here does.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract, and `ptr`
        // came from `System` because every allocation here does.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.with(Cell::get))
}

const COLS: u8 = 4;
const ROWS: u8 = 4;

/// Flits ejected into Local ports so far, over every router and plane.
fn local_flits(m: &Mesh) -> u64 {
    let mut n = 0;
    for y in 0..ROWS {
        for x in 0..COLS {
            let r = m.router(Coord::new(x, y));
            n += Plane::ALL
                .iter()
                .map(|&p| r.link_flits(p, Port::Local))
                .sum::<u64>();
        }
    }
    n
}

/// Every tile sends one packet of `words` payload words on each DMA plane
/// to `dest(tile)`.
fn inject_all(m: &mut Mesh, words: u64, dest: impl Fn(Coord) -> Coord) {
    for y in 0..ROWS {
        for x in 0..COLS {
            let src = Coord::new(x, y);
            for (plane, kind) in [
                (Plane::DmaReq, MsgKind::DmaLoadReq),
                (Plane::DmaRsp, MsgKind::DmaData),
            ] {
                let pkt = Packet::new(src, dest(src), plane, kind, (0..words).collect());
                m.inject(pkt).expect("injection queue has room");
            }
        }
    }
}

/// The tile mirrored through the mesh centre: several hops away.
fn mirror(c: Coord) -> Coord {
    Coord::new(COLS - 1 - c.x, ROWS - 1 - c.y)
}

fn drain(m: &mut Mesh) {
    for y in 0..ROWS {
        for x in 0..COLS {
            for plane in Plane::ALL {
                while m.eject(Coord::new(x, y), plane).is_some() {}
            }
        }
    }
}

#[test]
fn router_to_router_ticks_do_not_allocate() {
    let mut config = MeshConfig::new(COLS as usize, ROWS as usize);
    config.eject_queue_depth = 1;
    let mut mesh = Mesh::new(config).expect("valid mesh");

    // Warm-up: one full round of long multi-hop packets, delivered and
    // drained.
    inject_all(&mut mesh, 40, mirror);
    while !mesh.is_idle() {
        mesh.tick();
        drain(&mut mesh);
    }
    drain(&mut mesh);

    let ((), idle_allocs) = allocations(|| {
        assert!(mesh.is_idle());
        assert_eq!(mesh.undelivered_total(), 0);
        let _ = mesh.progress();
    });
    assert_eq!(idle_allocs, 0, "idle queries allocated");

    // Fill every one-packet ejection queue on both DMA planes with a
    // self-addressed packet that nobody drains: from now on no flit can
    // enter a Local port.
    inject_all(&mut mesh, 0, |c| c);
    while mesh.undelivered_total() < usize::from(COLS * ROWS) * 2 {
        mesh.tick();
    }

    // Measured round: long multi-hop packets cross the mesh until the
    // ejection back-pressure jams them; every tick moves flits only
    // between routers (or stalls on credits).
    inject_all(&mut mesh, 40, mirror);
    let local = local_flits(&mesh);
    let mut hop_ticks = 0;
    for _ in 0..200 {
        let hops = mesh.stats().total_flit_hops();
        let ((), allocs) = allocations(|| {
            mesh.tick();
            let _ = mesh.is_idle();
            let _ = mesh.progress();
            let _ = mesh.undelivered_total();
        });
        assert_eq!(allocs, 0, "a router-to-router tick allocated");
        if mesh.stats().total_flit_hops() > hops {
            hop_ticks += 1;
        }
    }
    assert_eq!(local_flits(&mesh), local, "a flit reached a Local port");
    assert!(!mesh.is_idle(), "the network should be jammed");
    assert!(
        hop_ticks >= 5,
        "only {hop_ticks} ticks moved flits between routers"
    );
}
