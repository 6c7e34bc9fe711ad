//! The four workloads: the generated network, the served stack built over
//! it, and the pool of requests the closed loop sends.

use crate::layers::{NoStore, TracedDisk};
use mcn_alpha::Preference;
use mcn_engine::{PathContext, QueryEngine, QueryRequest};
use mcn_gen::{
    generate_preferences, generate_workload, CostDistribution, PreferenceSpec, WorkloadSpec,
};
use mcn_graph::{MultiCostGraph, NetworkLocation, NodeId};
use mcn_index::{IndexConfig, RouteIndex};
use mcn_storage::{BufferConfig, DiskManager, FileDisk, InMemoryDisk, MCNStore};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the request content: both networks (this is
/// `WorkloadSpec::paper_scaled`'s own seed), the facility query locations
/// and weights, and the route (source, target) pairs and users. `--seed`
/// draws the order in which the clients send the requests (see
/// `Schedule` in `main.rs`).
///
/// Runs are compared across seeds, and per-query work is heavy-tailed in
/// the content. Over five seeds, drawing the networks per seed moved `qps`
/// by up to 3×; drawing 65 facility locations per seed by 37 %; drawing
/// 1,024 route pairs by 30 %; and drawing only the top-k weights moved the
/// facility `p50_ms` by 17 % (quartile spread).
const NETWORK_SEED: u64 = 2010;
/// Results requested per top-k and incremental top-k query.
const TOPK_K: usize = 4;
/// Query locations of the facility workloads: `paper_scaled(5)`'s 20,
/// extended along the same generator stream. With 20, the latency
/// distribution had gaps around its median and `p50_ms` jumped across
/// them from run to run. 67 is coprime with the 3 request kinds and odd,
/// so every location gets every kind, and LSA and CEA both.
const FACILITY_LOCATIONS: usize = 67;
/// Facility requests in the pool: every location with every kind once.
const FACILITY_POOL: usize = FACILITY_LOCATIONS * 3;
/// Route requests in the pool.
const ROUTE_POOL: usize = 512;
/// Nodes of the route workloads' graph.
const ROUTE_NODES: usize = 250;
/// Cost types of the route workloads' graph.
const ROUTE_COST_TYPES: usize = 3;
/// Distinct targets the route requests draw from.
const ROUTE_TARGETS: usize = 48;
/// Generated users (preference vectors) of the α-path requests.
const ROUTE_USERS: usize = 64;
/// Prep tables the path context keeps.
const PREP_CACHE_CAPACITY: usize = 16;
/// Buffer pool of `facility-disk`, as a share of the data pages.
const DISK_POOL_FRACTION: f64 = 0.01;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FacilityDisk,
    FacilityMem,
    RoutesPrep,
    RoutesIndex,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::FacilityDisk,
        Kind::FacilityMem,
        Kind::RoutesPrep,
        Kind::RoutesIndex,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FacilityDisk => "facility-disk",
            Kind::FacilityMem => "facility-mem",
            Kind::RoutesPrep => "routes-prep",
            Kind::RoutesIndex => "routes-index",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Graph and request-pool generation.
    pub generate_s: f64,
    /// Paged-store build (facility workloads).
    pub store_s: f64,
    /// Route-index build (`routes-index`).
    pub index_s: f64,
    /// The whole set-up, engine and path context included.
    pub total_s: f64,
}

/// A facility workload's served stack.
pub struct FacilityStack {
    pub graph: Arc<MultiCostGraph>,
    pub store: Arc<MCNStore>,
    /// The timing wrapper under the store; present only in a traced run.
    pub disk: Option<Arc<TracedDisk>>,
    pub engine: QueryEngine<MCNStore>,
}

/// A route workload's served stack.
pub struct RouteStack {
    pub graph: Arc<MultiCostGraph>,
    pub paths: Arc<PathContext>,
    pub engine: QueryEngine<NoStore>,
}

pub enum Stack {
    Facility(FacilityStack),
    Routes(RouteStack),
}

/// One set-up: the served stack and the request pool.
pub struct Setup {
    pub stack: Stack,
    pub pool: Vec<QueryRequest>,
    pub times: SetupTimes,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Generates the network and the request pool, and builds the served
/// stack. `scratch` holds the store file of `facility-disk`; `traced` puts a
/// [`TracedDisk`] under the store.
pub fn set_up(kind: Kind, workers: usize, scratch: &Path, traced: bool) -> Setup {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let (stack, pool) = match kind {
        Kind::FacilityDisk | Kind::FacilityMem => {
            let t = Instant::now();
            let workload = generate_workload(&WorkloadSpec {
                queries: FACILITY_LOCATIONS,
                seed: NETWORK_SEED,
                ..WorkloadSpec::paper_scaled(5)
            });
            let pool = facility_pool(&workload.queries, workload.spec.cost_types);
            times.generate_s = secs(t);

            let t = Instant::now();
            let (raw, buffer): (Arc<dyn DiskManager>, _) = if kind == Kind::FacilityDisk {
                let file =
                    FileDisk::create(scratch.join("store.db")).expect("create the store file");
                (Arc::new(file), BufferConfig::Fraction(DISK_POOL_FRACTION))
            } else {
                (Arc::new(InMemoryDisk::new()), BufferConfig::Fraction(1.0))
            };
            let disk = traced.then(|| Arc::new(TracedDisk::new(raw.clone())));
            let under: Arc<dyn DiskManager> = match &disk {
                Some(d) => d.clone(),
                None => raw,
            };
            let store = Arc::new(
                MCNStore::build_on(&workload.graph, under, buffer).expect("build the paged store"),
            );
            times.store_s = secs(t);

            let engine = QueryEngine::new(store.clone(), workers);
            let stack = FacilityStack {
                graph: Arc::new(workload.graph),
                store,
                disk,
                engine,
            };
            (Stack::Facility(stack), pool)
        }
        Kind::RoutesPrep | Kind::RoutesIndex => {
            let t = Instant::now();
            let workload = generate_workload(&WorkloadSpec {
                nodes: ROUTE_NODES,
                facilities: ROUTE_NODES / 5,
                cost_types: ROUTE_COST_TYPES,
                distribution: CostDistribution::AntiCorrelated,
                clusters: 4,
                queries: 4,
                seed: NETWORK_SEED,
            });
            let graph = Arc::new(workload.graph);
            let pool = route_pool(&graph);
            times.generate_s = secs(t);

            let mut paths = PathContext::new(graph.clone(), PREP_CACHE_CAPACITY);
            if kind == Kind::RoutesIndex {
                let t = Instant::now();
                let index = RouteIndex::build(&graph, &IndexConfig::default());
                times.index_s = secs(t);
                assert!(
                    index.serves(&graph),
                    "the route index must serve its graph exactly"
                );
                paths = paths.with_route_index(Arc::new(index));
                assert!(
                    paths.serving_index().is_some(),
                    "routes-index must be served by the index"
                );
            }
            let paths = Arc::new(paths);
            let engine = QueryEngine::new(Arc::new(NoStore::new(ROUTE_COST_TYPES)), workers)
                .with_path_context(paths.clone());
            let stack = RouteStack {
                graph,
                paths,
                engine,
            };
            (Stack::Routes(stack), pool)
        }
    };
    times.total_s = secs(started);
    Setup { stack, pool, times }
}

/// A round-robin of skyline, top-k and incremental top-k over the
/// network's query locations, LSA and CEA alternating, as the engine's
/// throughput experiment builds it.
fn facility_pool(queries: &[NetworkLocation], d: usize) -> Vec<QueryRequest> {
    mcn_bench::requests::mixed_request_batch(
        queries,
        d,
        FACILITY_POOL,
        NETWORK_SEED ^ 0x5E7E_BE7C,
        |i, location, weights, algorithm| match i % 3 {
            0 => QueryRequest::Skyline {
                location,
                algorithm,
            },
            1 => QueryRequest::TopK {
                location,
                weights,
                k: TOPK_K,
                algorithm,
            },
            _ => QueryRequest::TopKIncremental {
                location,
                weights,
                take: TOPK_K,
                algorithm,
            },
        },
    )
}

/// Three α-path requests to one path-skyline request, towards
/// [`ROUTE_TARGETS`] distinct targets from uniform sources; each α-path
/// request has one of [`ROUTE_USERS`] generated users.
fn route_pool(graph: &MultiCostGraph) -> Vec<QueryRequest> {
    let n = graph.num_nodes();
    let mut shapes = ChaCha8Rng::seed_from_u64(NETWORK_SEED ^ 0x7A06_E5ED);
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    for i in 0..ROUTE_TARGETS {
        let j = shapes.gen_range(i..n);
        nodes.swap(i, j);
    }
    let targets = &nodes[..ROUTE_TARGETS];
    let users: Vec<Preference> = generate_preferences(&PreferenceSpec::uniform(
        ROUTE_USERS,
        graph.num_cost_types(),
        NETWORK_SEED,
    ))
    .iter()
    .map(|w| Preference::new(w).expect("generated weights are valid"))
    .collect();
    (0..ROUTE_POOL)
        .map(|i| {
            let target = NodeId::new(targets[shapes.gen_range(0..ROUTE_TARGETS)]);
            let mut source = NodeId::from(shapes.gen_range(0..n));
            if source == target {
                source = NodeId::from((source.index() + 1) % n);
            }
            if i % 4 == 3 {
                QueryRequest::PathSkyline { source, target }
            } else {
                let alpha = users[shapes.gen_range(0..ROUTE_USERS)].clone();
                QueryRequest::AlphaPath {
                    source,
                    target,
                    alpha,
                }
            }
        })
        .collect()
}
