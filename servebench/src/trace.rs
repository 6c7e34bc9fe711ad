//! The traced pass: per-layer time and work of the same requests.
//!
//! The request pool runs three times after a warm-up pass:
//!
//! 1. through the engine on every worker, for its busy fraction and the
//!    cost of fingerprinting an answer;
//! 2. replayed on one thread by calling each layer's public functions
//!    directly (`skyline_query`, `topk_query`, `TopKIter`,
//!    `PrepCache::get_or_build`, `pareto_paths_prepped`,
//!    `scalarized_path_astar`, `RouteIndex::{alpha_path, skyline_paths}`),
//!    untraced;
//! 3. the same replay with spans recorded by an `mcn_obs::Tracer` around
//!    every call and the storage boundaries timed by the wrappers of
//!    `layers.rs`.
//!
//! Both replays start from the same cache state, so their deterministic
//! work counters must agree exactly; their wall times give the tracing
//! overhead. Every answer is checked against the oracle.

use crate::layers::{MeterReading, TracedView};
use crate::oracle::Oracle;
use crate::report::{median, ratio, workers, Metric};
use crate::workload::{Kind, Setup, SetupTimes, Stack};
use crate::{checked_batch, Args, Round, Schedule, Tally};
use mcn_alpha::scalarized_path_astar;
use mcn_core::{
    skyline_query, topk_query, Algorithm, QueryStats, TopKEntry, TopKIter, WeightedSum,
};
use mcn_engine::{PathContext, QueryOutput, QueryRequest};
use mcn_mcpp::pareto_paths_prepped;
use mcn_obs::{chrome_trace_json, Clock, MonotonicClock, Tracer};
use mcn_storage::{IoStats, StoreView};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Route requests replayed untraced before each replay, from the end of
/// the replay order, so the prep cache starts each replay in the same
/// warm state.
const ROUTE_WARM_QUERIES: usize = 48;

/// Deterministic work of one replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Work {
    io: IoStats,
    nodes_settled: u64,
    heap_pops: u64,
    candidates: u64,
    dominance_checks: u64,
    results: u64,
    prep_lookups: u64,
    prep_hits: u64,
    prep_builds: u64,
    prep_evictions: u64,
    prep_settled: u64,
    mcpp_calls: u64,
    mcpp_labels_created: u64,
    mcpp_labels_inserted: u64,
    mcpp_settled: u64,
    mcpp_paths: u64,
    alpha_calls: u64,
    alpha_settled: u64,
    alpha_pushed: u64,
    alpha_relaxed: u64,
    alpha_pruned: u64,
    index_alpha_calls: u64,
    index_alpha_settled: u64,
    index_sky_calls: u64,
    index_sky_settled: u64,
    index_sky_pushed: u64,
}

/// Spans of the traced replay; inert when `tracer` is `None`.
struct Spans<'a> {
    tracer: Option<&'a Tracer>,
    clock: &'a MonotonicClock,
}

impl Spans<'_> {
    fn now(&self) -> u64 {
        self.tracer.map_or(0, |_| self.clock.now_ns())
    }

    fn record(&self, name: &str, tier: &str, query: u64, start_ns: u64) {
        if let Some(t) = self.tracer {
            t.record(name, tier, query, start_ns, self.clock.now_ns());
        }
    }

    fn time<R>(&self, name: &str, tier: &str, query: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        self.record(name, tier, query, start);
        r
    }
}

fn core_span(request: &QueryRequest) -> &'static str {
    use Algorithm::{Cea, Lsa};
    match request {
        QueryRequest::Skyline { algorithm: Lsa, .. } => "core.skyline.lsa",
        QueryRequest::Skyline { algorithm: Cea, .. } => "core.skyline.cea",
        QueryRequest::TopK { algorithm: Lsa, .. } => "core.topk.lsa",
        QueryRequest::TopK { algorithm: Cea, .. } => "core.topk.cea",
        QueryRequest::TopKIncremental { algorithm: Lsa, .. } => "core.topk_inc.lsa",
        QueryRequest::TopKIncremental { algorithm: Cea, .. } => "core.topk_inc.cea",
        other => panic!("not a facility request: {other:?}"),
    }
}

/// Each core span with the metric of its mean duration.
const CORE_SPANS: [(&str, &str); 6] = [
    ("core.skyline.lsa", "core.skyline.lsa.us"),
    ("core.skyline.cea", "core.skyline.cea.us"),
    ("core.topk.lsa", "core.topk.lsa.us"),
    ("core.topk.cea", "core.topk.cea.us"),
    ("core.topk_inc.lsa", "core.topk_inc.lsa.us"),
    ("core.topk_inc.cea", "core.topk_inc.cea.us"),
];

/// One facility request through `mcn-core`'s public entry points.
fn facility_call<S: StoreView + ?Sized>(
    store: &Arc<S>,
    request: &QueryRequest,
) -> (QueryOutput, QueryStats) {
    match request {
        QueryRequest::Skyline {
            location,
            algorithm,
        } => {
            let r = skyline_query(store, *location, *algorithm);
            (QueryOutput::Skyline(r.facilities), r.stats)
        }
        QueryRequest::TopK {
            location,
            weights,
            k,
            algorithm,
        } => {
            let r = topk_query(
                store,
                *location,
                WeightedSum::new(weights.clone()),
                *k,
                *algorithm,
            );
            (QueryOutput::TopK(r.entries), r.stats)
        }
        QueryRequest::TopKIncremental {
            location,
            weights,
            take,
            algorithm,
        } => {
            let aggregate = WeightedSum::new(weights.clone());
            let (entries, stats): (Vec<TopKEntry>, QueryStats) = match algorithm {
                Algorithm::Lsa => {
                    let mut it = TopKIter::lsa(store.clone(), *location, aggregate);
                    (it.by_ref().take(*take).collect(), it.stats())
                }
                Algorithm::Cea => {
                    let mut it = TopKIter::cea(store.clone(), *location, aggregate);
                    (it.by_ref().take(*take).collect(), it.stats())
                }
            };
            (QueryOutput::TopK(entries), stats)
        }
        other => panic!("not a facility request: {other:?}"),
    }
}

/// One route request, dispatched as the engine dispatches it: to the
/// route index when the context serves one, else to the prep tier.
fn route_call(
    paths: &PathContext,
    request: &QueryRequest,
    spans: &Spans<'_>,
    query: u64,
    work: &mut Work,
) -> QueryOutput {
    let tier = request.kind();
    let graph = paths.graph();
    let (source, target) = match request {
        QueryRequest::PathSkyline { source, target }
        | QueryRequest::AlphaPath { source, target, .. } => (*source, *target),
        other => panic!("not a route request: {other:?}"),
    };
    if let Some(index) = paths.serving_index() {
        return match request {
            QueryRequest::AlphaPath { alpha, .. } => {
                let r = spans.time("index.alpha", tier, query, || {
                    index.alpha_path(graph, source, target, alpha)
                });
                work.index_alpha_calls += 1;
                work.index_alpha_settled += r.stats.settled;
                QueryOutput::AlphaPath(r.path)
            }
            _ => {
                let r = spans.time("index.skyline", tier, query, || {
                    index.skyline_paths(graph, source, target)
                });
                work.index_sky_calls += 1;
                work.index_sky_settled += r.stats.settled;
                work.index_sky_pushed += r.stats.pushed;
                QueryOutput::Paths(r.paths)
            }
        };
    }
    let before = paths.cache().stats();
    let start = spans.now();
    let table = paths.cache().get_or_build(graph, target);
    let delta = paths.cache().stats().since(&before);
    let built = delta.misses > 0;
    spans.record(
        if built { "prep.build" } else { "prep.lookup" },
        tier,
        query,
        start,
    );
    work.prep_lookups += 1;
    work.prep_hits += delta.hits;
    work.prep_evictions += delta.evictions;
    if built {
        work.prep_builds += 1;
        work.prep_settled += table.settled();
    }
    match request {
        QueryRequest::AlphaPath { alpha, .. } => {
            let r = spans.time("alpha", tier, query, || {
                scalarized_path_astar(graph, source, target, alpha, &table)
            });
            work.alpha_calls += 1;
            work.alpha_settled += r.stats.settled;
            work.alpha_pushed += r.stats.pushed;
            work.alpha_relaxed += r.stats.relaxed;
            work.alpha_pruned += r.stats.pruned;
            QueryOutput::AlphaPath(r.path)
        }
        _ => {
            let r = spans.time("mcpp", tier, query, || {
                pareto_paths_prepped(graph, source, target, &table)
            });
            work.mcpp_calls += 1;
            work.mcpp_labels_created += r.stats.labels_created;
            work.mcpp_labels_inserted += r.stats.labels_inserted;
            work.mcpp_settled += r.stats.nodes_settled;
            work.mcpp_paths += r.paths.len() as u64;
            QueryOutput::Paths(r.paths)
        }
    }
}

/// Brings the caches to the state every replay starts from.
fn prelude(kind: Kind, setup: &Setup, order: &[usize]) {
    match &setup.stack {
        Stack::Facility(f) => {
            // facility-mem keeps the buffer the warm-up filled; the small
            // facility-disk buffer restarts empty.
            if kind == Kind::FacilityDisk {
                StoreView::clear_buffers(f.store.as_ref());
            }
        }
        Stack::Routes(r) => {
            r.paths.clear_cache();
            let mut scratch = Work::default();
            let quiet = MonotonicClock::new();
            let spans = Spans {
                tracer: None,
                clock: &quiet,
            };
            for (q, &i) in order[order.len() - ROUTE_WARM_QUERIES..].iter().enumerate() {
                route_call(&r.paths, &setup.pool[i], &spans, q as u64, &mut scratch);
            }
        }
    }
}

/// What one replay measured.
struct Replay {
    work: Work,
    wall_s: f64,
    view: MeterReading,
    disk: MeterReading,
}

/// Replays the pool in `order` on this thread; traced when `tracer` is
/// given.
fn replay(
    kind: Kind,
    setup: &Setup,
    oracle: &Oracle,
    order: &[usize],
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Replay {
    prelude(kind, setup, order);
    let clock = MonotonicClock::new();
    let spans = Spans {
        tracer,
        clock: &clock,
    };
    let mut work = Work::default();
    let mut view = MeterReading::default();
    let mut disk = MeterReading::default();
    let started = Instant::now();
    match &setup.stack {
        Stack::Facility(f) => {
            let traced_view = Arc::new(TracedView::new(f.store.clone()));
            let traced_disk = f
                .disk
                .as_ref()
                .expect("a traced run builds on a TracedDisk");
            traced_disk.set_timing(tracer.is_some());
            let io_before = f.store.io_stats();
            let disk_before = traced_disk.reads();
            for (q, &i) in order.iter().enumerate() {
                let request = &setup.pool[i];
                let tier = request.kind();
                let query = q as u64;
                let start = spans.now();
                let (output, stats) = if tracer.is_some() {
                    spans.time(core_span(request), tier, query, || {
                        facility_call(&traced_view, request)
                    })
                } else {
                    facility_call(&f.store, request)
                };
                spans.record("query", tier, query, start);
                work.nodes_settled += stats.nodes_settled as u64;
                work.heap_pops += stats.heap_pops as u64;
                work.candidates += stats.candidates as u64;
                work.dominance_checks += stats.dominance_checks as u64;
                work.results += stats.result_size as u64;
                tally.attempted += 1;
                if !oracle.matches(i, &output) {
                    tally.failed += 1;
                    tally.fail(format!("replayed pool request {i} answered wrongly"));
                }
            }
            traced_disk.set_timing(false);
            work.io = f.store.io_stats() - io_before;
            view = traced_view.calls();
            disk = traced_disk.reads().since(disk_before);
        }
        Stack::Routes(r) => {
            for (q, &i) in order.iter().enumerate() {
                let request = &setup.pool[i];
                let tier = request.kind();
                let start = spans.now();
                let output = route_call(&r.paths, request, &spans, q as u64, &mut work);
                spans.record("query", tier, q as u64, start);
                tally.attempted += 1;
                if !oracle.matches(i, &output) {
                    tally.failed += 1;
                    tally.fail(format!("replayed pool request {i} answered wrongly"));
                }
            }
        }
    }
    Replay {
        work,
        wall_s: started.elapsed().as_secs_f64(),
        view,
        disk,
    }
}

/// Writes the spans as a Chrome trace under `out/` and returns the count
/// and summed nanoseconds of the spans of each name.
fn span_totals(tracer: &Tracer, kind: Kind, seed: u64) -> BTreeMap<String, (u64, u64)> {
    let events = tracer.drain();
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("trace-{}-seed{seed}.json", kind.name()));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, chrome_trace_json(&events)))
    {
        eprintln!("servebench: could not write {}: {e}", file.display());
    }
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in &events {
        let t = totals.entry(e.name.clone()).or_default();
        t.0 += 1;
        t.1 += e.dur_ns;
    }
    totals
}

/// Runs the traced pass and returns every per-layer metric.
pub fn run(
    args: &Args,
    setup: &Setup,
    setup_times: &[SetupTimes],
    oracle: &Oracle,
    schedule: &mut Schedule,
    tally: &mut Tally,
) -> Vec<Metric> {
    let kind = args.kind;
    let n = setup.pool.len();

    // 1. The engine on every worker.
    checked_batch(setup, kind, oracle, &schedule.pass(n), None, tally);
    let mut round = Round::default();
    let batch = checked_batch(
        setup,
        kind,
        oracle,
        &schedule.pass(n),
        Some(&mut round),
        tally,
    );
    let busy_s = round.walls_ms.iter().sum::<f64>() / 1e3;
    let busy_frac = ratio(busy_s, workers() as f64 * round.batch_s);
    let fingerprint_us = batch.map_or(0.0, |b| {
        let started = Instant::now();
        for o in &b.outcomes {
            std::hint::black_box(o.output.fingerprint());
        }
        started.elapsed().as_secs_f64() * 1e6 / b.outcomes.len().max(1) as f64
    });

    // 2. and 3. The plain and the traced replay.
    let order = schedule.pass(n);
    let plain = replay(kind, setup, oracle, &order, None, tally);
    let tracer = Tracer::with_capacity(1, 1 << 16);
    tracer.set_enabled(true);
    let traced = replay(kind, setup, oracle, &order, Some(&tracer), tally);
    tracer.set_enabled(false);
    let dropped = tracer.dropped();
    let spans = span_totals(&tracer, kind, args.seed);

    let w = &traced.work;
    if plain.work != *w {
        tally.fail(format!(
            "work counters differ between two replays of the same requests:\n  \
             plain  {:?}\n  traced {w:?}",
            plain.work
        ));
    }
    if w.io.logical_reads != w.io.buffer_hits + w.io.buffer_misses {
        tally.fail(format!("logical reads != hits + misses: {:?}", w.io));
    }
    if dropped != 0 {
        tally.fail(format!("{dropped} spans dropped"));
    }
    let bypassed = match kind {
        Kind::RoutesIndex => (w.prep_lookups + w.mcpp_calls + w.alpha_calls != 0)
            .then_some("routes-index used the prep tier"),
        Kind::FacilityMem => {
            (w.io.physical_reads != 0).then_some("facility-mem read the disk after warm-up")
        }
        Kind::RoutesPrep => (w.index_alpha_calls + w.index_sky_calls != 0)
            .then_some("routes-prep used the route index"),
        Kind::FacilityDisk => None,
    };
    if let Some(what) = bypassed {
        tally.fail(what.to_string());
    }

    let span = |name: &str| spans.get(name).copied().unwrap_or((0, 0));
    let mean_us = |name: &str| {
        let (count, ns) = span(name);
        ratio(ns as f64, count as f64) / 1e3
    };
    let core_ns: u64 = CORE_SPANS.iter().map(|(s, _)| span(s).1).sum();
    let med = |f: fn(&SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    let arc_entries = match &setup.stack {
        Stack::Routes(r) => r.paths.route_index().map_or(0, |i| i.arc_entries()),
        Stack::Facility(_) => 0,
    };
    let per_q = |v: u64| v as f64 / n as f64;
    let io = &w.io;

    let mut metrics = vec![
        ("gen.generate_s", "s", med(|t| t.generate_s)),
        ("storage.build_s", "s", med(|t| t.store_s)),
        (
            "storage.disk.reads_per_query",
            "count",
            per_q(io.physical_reads),
        ),
        (
            "storage.disk.us_per_query",
            "us",
            per_q(traced.disk.ns) / 1e3,
        ),
        (
            "storage.disk.ns_per_read",
            "ns",
            ratio(traced.disk.ns as f64, traced.disk.calls as f64),
        ),
        (
            "storage.view.calls_per_query",
            "count",
            per_q(traced.view.calls),
        ),
        (
            "storage.view.self_us_per_query",
            "us",
            per_q(traced.view.ns.saturating_sub(traced.disk.ns)) / 1e3,
        ),
        (
            "storage.pool.logical_per_query",
            "count",
            per_q(io.logical_reads),
        ),
        (
            "storage.pool.misses_per_query",
            "count",
            per_q(io.buffer_misses),
        ),
        ("storage.pool.hit_ratio", "fraction", io.hit_ratio()),
    ];
    for (span, metric) in CORE_SPANS {
        metrics.push((metric, "us", mean_us(span)));
    }
    metrics.extend([
        (
            "core.self_us_per_query",
            "us",
            per_q(core_ns.saturating_sub(traced.view.ns)) / 1e3,
        ),
        (
            "expansion.nodes_settled_per_query",
            "count",
            per_q(w.nodes_settled),
        ),
        ("expansion.heap_pops_per_query", "count", per_q(w.heap_pops)),
        ("core.candidates_per_query", "count", per_q(w.candidates)),
        (
            "core.dominance_checks_per_query",
            "count",
            per_q(w.dominance_checks),
        ),
        (
            "core.results_per_candidate",
            "fraction",
            ratio(w.results as f64, w.candidates as f64),
        ),
        ("prep.lookups_per_query", "count", per_q(w.prep_lookups)),
        (
            "prep.cache.hit_ratio",
            "fraction",
            ratio(w.prep_hits as f64, w.prep_lookups as f64),
        ),
        ("prep.builds_per_query", "count", per_q(w.prep_builds)),
        ("prep.build_us", "us", mean_us("prep.build")),
        (
            "prep.settled_per_build",
            "count",
            ratio(w.prep_settled as f64, w.prep_builds as f64),
        ),
        ("prep.evictions_per_query", "count", per_q(w.prep_evictions)),
        ("mcpp.us", "us", mean_us("mcpp")),
    ]);
    let per_call = |v: u64, calls: u64| ratio(v as f64, calls as f64);
    metrics.extend([
        (
            "mcpp.labels_created",
            "count",
            per_call(w.mcpp_labels_created, w.mcpp_calls),
        ),
        (
            "mcpp.labels_inserted",
            "count",
            per_call(w.mcpp_labels_inserted, w.mcpp_calls),
        ),
        (
            "mcpp.nodes_settled",
            "count",
            per_call(w.mcpp_settled, w.mcpp_calls),
        ),
        (
            "mcpp.paths_per_label",
            "fraction",
            ratio(w.mcpp_paths as f64, w.mcpp_labels_created as f64),
        ),
        ("alpha.us", "us", mean_us("alpha")),
        (
            "alpha.settled",
            "count",
            per_call(w.alpha_settled, w.alpha_calls),
        ),
        (
            "alpha.pushed",
            "count",
            per_call(w.alpha_pushed, w.alpha_calls),
        ),
        (
            "alpha.pruned_frac",
            "fraction",
            ratio(
                w.alpha_pruned as f64,
                (w.alpha_relaxed + w.alpha_pushed) as f64,
            ),
        ),
        ("index.build_s", "s", med(|t| t.index_s)),
        ("index.arc_entries", "count", arc_entries as f64),
        ("index.alpha.us", "us", mean_us("index.alpha")),
        (
            "index.alpha.settled",
            "count",
            per_call(w.index_alpha_settled, w.index_alpha_calls),
        ),
        ("index.skyline.us", "us", mean_us("index.skyline")),
        (
            "index.skyline.settled",
            "count",
            per_call(w.index_sky_settled, w.index_sky_calls),
        ),
        (
            "index.skyline.pushed",
            "count",
            per_call(w.index_sky_pushed, w.index_sky_calls),
        ),
        ("engine.busy_frac", "fraction", busy_frac),
        ("engine.fingerprint_us", "us", fingerprint_us),
        (
            "bench.trace_overhead_frac",
            "fraction",
            ratio(traced.wall_s, plain.wall_s) - 1.0,
        ),
        ("bench.spans_dropped", "count", dropped as f64),
    ]);
    eprintln!(
        "servebench: {} seed {}: traced {n} queries on one thread ({:.3} s plain, {:.3} s traced)",
        kind.name(),
        args.seed,
        plain.wall_s,
        traced.wall_s
    );
    metrics
        .into_iter()
        .map(|(name, unit, value)| Metric(name, unit, value))
        .collect()
}
