//! Benchmark-side wrappers around the storage layer's public traits.
//!
//! The traced pass needs the time and work of the disk and of the store
//! view (buffer pool + page decode) without changing the program, so both
//! boundaries are wrapped here: [`TracedDisk`] is a [`DiskManager`] around
//! the real disk, [`TracedView`] a [`StoreView`] around the real store.
//! A facility query makes thousands of view calls and, on a cold buffer,
//! as many page reads, so these boundaries accumulate call counts and
//! nanoseconds instead of emitting one span per call; the coarse spans of
//! the trace (query, core call, prep, mcpp, alpha, index) come from
//! `trace.rs`.
//!
//! [`NoStore`] is the store the route workloads hand the engine: path
//! queries never read the paged store, and it panics if one does.

use mcn_graph::{EdgeId, FacilityId, NodeId};
use mcn_storage::{
    AdjacencyList, BufferConfig, DiskManager, EdgeEndpoints, FacilityInfo, FacilityRun, IoStats,
    MCNStore, Page, PageId, StoreView,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and nanoseconds accumulated at one boundary.
#[derive(Default)]
pub struct Meter {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// A snapshot of a [`Meter`].
#[derive(Clone, Copy, Default)]
pub struct MeterReading {
    pub calls: u64,
    pub ns: u64,
}

impl MeterReading {
    pub fn since(self, before: MeterReading) -> MeterReading {
        MeterReading {
            calls: self.calls - before.calls,
            ns: self.ns - before.ns,
        }
    }
}

impl Meter {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        r
    }

    pub fn read(&self) -> MeterReading {
        MeterReading {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// A [`DiskManager`] that times `read_page` while timing is switched on
/// and forwards everything else untouched.
pub struct TracedDisk {
    inner: Arc<dyn DiskManager>,
    timing: AtomicBool,
    reads: Meter,
}

impl TracedDisk {
    pub fn new(inner: Arc<dyn DiskManager>) -> Self {
        Self {
            inner,
            timing: AtomicBool::new(false),
            reads: Meter::default(),
        }
    }

    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::SeqCst);
    }

    /// Timed page reads so far.
    pub fn reads(&self) -> MeterReading {
        self.reads.read()
    }
}

impl DiskManager for TracedDisk {
    fn read_page(&self, id: PageId, out: &mut Page) {
        if self.timing.load(Ordering::Relaxed) {
            self.reads.time(|| self.inner.read_page(id, out));
        } else {
            self.inner.read_page(id, out);
        }
    }

    fn write_page(&self, id: PageId, page: &Page) {
        self.inner.write_page(id, page);
    }

    fn allocate_page(&self) -> PageId {
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn physical_reads(&self) -> u64 {
        self.inner.physical_reads()
    }

    fn physical_writes(&self) -> u64 {
        self.inner.physical_writes()
    }
}

/// A [`StoreView`] that times every record read of the wrapped store: the
/// buffer-pool lookup, the disk read on a miss and the record decode.
pub struct TracedView {
    inner: Arc<MCNStore>,
    calls: Meter,
}

impl TracedView {
    pub fn new(inner: Arc<MCNStore>) -> Self {
        Self {
            inner,
            calls: Meter::default(),
        }
    }

    pub fn calls(&self) -> MeterReading {
        self.calls.read()
    }
}

impl StoreView for TracedView {
    fn num_cost_types(&self) -> usize {
        self.inner.num_cost_types()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn num_facilities(&self) -> usize {
        self.inner.num_facilities()
    }

    fn data_pages(&self) -> usize {
        self.inner.data_pages()
    }

    fn adjacency(&self, node: NodeId) -> AdjacencyList {
        self.calls.time(|| self.inner.adjacency(node))
    }

    fn facilities_in_run(&self, run: &FacilityRun) -> Vec<(FacilityId, f64)> {
        self.calls.time(|| self.inner.facilities_in_run(run))
    }

    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
        self.calls.time(|| self.inner.facility_info(facility))
    }

    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
        self.calls.time(|| self.inner.edge_endpoints(edge))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn clear_buffers(&self) {
        StoreView::clear_buffers(self.inner.as_ref());
    }

    fn set_buffer(&self, buffer: BufferConfig) {
        self.inner.set_buffer(buffer);
    }
}

/// The engine's store on the route workloads, which serve every request
/// from the path context. Any record read is a bug in the workload set-up.
pub struct NoStore {
    cost_types: usize,
}

impl NoStore {
    pub fn new(cost_types: usize) -> Self {
        Self { cost_types }
    }
}

const NO_STORE: &str = "route workloads must never read the paged store";

impl StoreView for NoStore {
    fn num_cost_types(&self) -> usize {
        self.cost_types
    }

    fn num_nodes(&self) -> usize {
        0
    }

    fn num_edges(&self) -> usize {
        0
    }

    fn num_facilities(&self) -> usize {
        0
    }

    fn data_pages(&self) -> usize {
        0
    }

    fn adjacency(&self, _node: NodeId) -> AdjacencyList {
        panic!("{NO_STORE}")
    }

    fn facilities_in_run(&self, _run: &FacilityRun) -> Vec<(FacilityId, f64)> {
        panic!("{NO_STORE}")
    }

    fn facility_info(&self, _facility: FacilityId) -> Option<FacilityInfo> {
        panic!("{NO_STORE}")
    }

    fn edge_endpoints(&self, _edge: EdgeId) -> Option<EdgeEndpoints> {
        panic!("{NO_STORE}")
    }

    fn io_stats(&self) -> IoStats {
        IoStats::default()
    }

    fn clear_buffers(&self) {}

    fn set_buffer(&self, _buffer: BufferConfig) {}
}
