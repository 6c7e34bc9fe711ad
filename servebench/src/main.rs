//! Serving benchmark of the MCN query stack.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <facility-disk|facility-mem|routes-prep|routes-index> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives `QueryEngine::run_batch` in a closed loop (one
//! client per worker, one worker per CPU) for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` replays the same requests through the
//! layers' public functions on one thread and reports per-layer metrics. Every answer is checked against an
//! independent oracle. The last line of standard output is the result
//! object; `README.md` documents every workload and metric.

mod layers;
mod oracle;
mod report;
mod trace;
mod workload;

use mcn_engine::{BatchResult, QueryOutcome, QueryRequest};
use oracle::Oracle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use report::{median, percentile, ratio, result_json, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use workload::{set_up, Kind, Setup, Stack};

/// Set-ups per run: at least [`MIN_SETUPS`], more while they have taken
/// less than [`SETUP_BUDGET_S`] in all, at most [`MAX_SETUPS`]. `setup_s`
/// is their median, so a set-up of well under a millisecond still reads
/// steadily.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 1.0;
/// Minimum queries per measured round, so at least ten samples lie beyond
/// its 95th percentile.
const MIN_QUERIES: usize = 200;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A per-run directory for the store file, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Self {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Queries attempted and failed so far.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Assertions on the served stack that failed.
    pub violations: Vec<String>,
}

/// The samples of one measured round: whole passes over the pool.
#[derive(Default)]
pub struct Round {
    /// Per-query wall time in ms.
    pub walls_ms: Vec<f64>,
    /// Summed batch wall time.
    pub batch_s: f64,
}

impl Round {
    pub fn qps(&self) -> f64 {
        ratio(self.walls_ms.len() as f64, self.batch_s)
    }
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        if self.violations.len() < 20 {
            eprintln!("servebench: {what}");
        }
        self.violations.push(what);
    }
}

impl Stack {
    fn run_batch(&self, requests: &[QueryRequest]) -> BatchResult {
        match self {
            Stack::Facility(f) => f.engine.run_batch(requests),
            Stack::Routes(r) => r.engine.run_batch(requests),
        }
    }
}

/// Checks one engine outcome of pool request `i`.
fn outcome_ok(kind: Kind, oracle: &Oracle, i: usize, outcome: &QueryOutcome) -> bool {
    let served_by_index = matches!(
        outcome.stats.algorithm.as_str(),
        "MCPP-index" | "alpha-index"
    );
    oracle.matches(i, &outcome.output) && (kind != Kind::RoutesIndex || served_by_index)
}

/// The order in which the clients send the pool's requests, drawn from
/// `--seed`. Every pass over the pool is a fresh permutation, so which
/// requests overlap on the workers, and which one ends a batch, averages
/// out within a run.
pub struct Schedule(ChaCha8Rng);

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule(ChaCha8Rng::seed_from_u64(seed ^ 0x0005_4FF1))
    }

    /// The next permutation of `0..pool`.
    pub fn pass(&mut self, pool: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            order.swap(i, self.0.gen_range(0..=i));
        }
        order
    }
}

/// Runs the pool requests `order` names as one engine batch and checks
/// every answer. A measured batch adds its samples to `round`.
fn checked_batch(
    setup: &Setup,
    kind: Kind,
    oracle: &Oracle,
    order: &[usize],
    round: Option<&mut Round>,
    tally: &mut Tally,
) -> Option<BatchResult> {
    let pool = &setup.pool;
    let requests: Vec<QueryRequest> = order.iter().map(|&i| pool[i].clone()).collect();
    let n = requests.len() as u64;
    tally.attempted += n;
    let Ok(batch) = catch_unwind(AssertUnwindSafe(|| setup.stack.run_batch(&requests))) else {
        tally.failed += n;
        tally.fail(format!("a batch of {n} queries panicked"));
        return None;
    };
    for (outcome, &i) in batch.outcomes.iter().zip(order) {
        if !outcome_ok(kind, oracle, i, outcome) {
            tally.failed += 1;
            tally.fail(format!(
                "pool request {i} ({}, {}) answered wrongly",
                pool[i].kind(),
                outcome.stats.algorithm
            ));
        }
    }
    if kind == Kind::RoutesIndex {
        let prep = batch.stats.prep_cache;
        if prep.hits + prep.misses + prep.evictions != 0 {
            tally.fail(format!("routes-index touched the prep cache: {prep:?}"));
        }
    }
    if let Some(round) = round {
        round
            .walls_ms
            .extend(batch.outcomes.iter().map(|o| o.wall.as_secs_f64() * 1e3));
        round.batch_s += batch.stats.wall.as_secs_f64();
    }
    Some(batch)
}

/// Sets the workload up repeatedly and keeps the last set-up.
fn set_up_repeatedly(args: &Args, scratch: &Scratch) -> (Setup, Vec<workload::SetupTimes>) {
    let mut times: Vec<workload::SetupTimes> = Vec::new();
    let mut kept: Option<Setup> = None;
    let spent = |times: &[workload::SetupTimes]| times.iter().map(|t| t.total_s).sum::<f64>();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && spent(&times) < SETUP_BUDGET_S) {
        // Drop the previous stack first: a new facility-disk set-up
        // recreates the same store file.
        drop(kept.take());
        let setup = set_up(args.kind, report::workers(), &scratch.0, args.trace);
        times.push(setup.times);
        kept = Some(setup);
    }
    (kept.expect("at least one set-up"), times)
}

fn build_oracle(kind: Kind, setup: &Setup) -> Oracle {
    let threads = report::workers();
    match &setup.stack {
        Stack::Facility(f) => oracle::facility_oracle(&f.graph, &setup.pool, threads),
        Stack::Routes(r) => {
            oracle::route_oracle(&r.graph, &setup.pool, kind == Kind::RoutesIndex, threads)
        }
    }
}

/// The closed loop: one untimed pass over the pool warms the caches (on
/// `facility-mem` it loads every page the pool touches), then rounds
/// until `seconds` have passed. A round is the fewest whole passes, one
/// engine batch each, that hold at least [`MIN_QUERIES`] queries, so every
/// round measures the same mix of requests.
fn closed_loop(
    args: &Args,
    setup: &Setup,
    oracle: &Oracle,
    schedule: &mut Schedule,
    tally: &mut Tally,
) -> Vec<Round> {
    let n = setup.pool.len();
    checked_batch(setup, args.kind, oracle, &schedule.pass(n), None, tally);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let mut round = Round::default();
        for _ in 0..MIN_QUERIES.div_ceil(n) {
            let order = schedule.pass(n);
            checked_batch(setup, args.kind, oracle, &order, Some(&mut round), tally);
        }
        rounds.push(round);
    }
    rounds
}

fn pool_sizes(setup: &Setup) -> (usize, usize) {
    match &setup.stack {
        Stack::Facility(f) => (f.store.buffer().capacity(), f.store.data_pages()),
        Stack::Routes(_) => (0, 0),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = Scratch::create();
    let (setup, setup_times) = set_up_repeatedly(&args, &scratch);
    let setup_s = median(&setup_times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let oracle = build_oracle(args.kind, &setup);

    let mut schedule = Schedule::new(args.seed);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        trace::run(
            &args,
            &setup,
            &setup_times,
            &oracle,
            &mut schedule,
            &mut tally,
        )
    } else {
        // Each timing metric is the median over rounds, so a burst of
        // load from outside the benchmark moves at most a few rounds.
        let rounds = closed_loop(&args, &setup, &oracle, &mut schedule, &mut tally);
        let over_rounds =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let qps = over_rounds(&Round::qps);
        let p50 = over_rounds(&|r| percentile(&r.walls_ms, 0.50));
        let p95 = over_rounds(&|r| percentile(&r.walls_ms, 0.95));
        let per_round = rounds[0].walls_ms.len();
        let error_rate = ratio(tally.failed as f64, tally.attempted as f64);
        eprintln!(
            "servebench: {} seed {}: medians over {} rounds of {per_round} queries: \
             qps {qps:.2}, p50 {p50:.3} ms (n={per_round}), \
             p95 {p95:.3} ms (n={per_round}, {} beyond); \
             setup {setup_s:.4} s (median of {}); error rate {error_rate}",
            args.kind.name(),
            args.seed,
            rounds.len(),
            per_round - (0.95 * per_round as f64).ceil() as usize,
            setup_times.len(),
        );
        vec![
            Metric("qps", "1/s", qps),
            Metric("p50_ms", "ms", p50),
            Metric("p95_ms", "ms", p95),
            Metric("setup_s", "s", setup_s),
            Metric("peak_rss_mb", "MiB", report::peak_rss_mib()),
            Metric("success_rate", "fraction", 1.0 - error_rate),
        ]
    };

    let (pool_pages, data_pages) = pool_sizes(&setup);
    drop(setup);
    drop(scratch);
    println!("{}", report::machine_context_json(pool_pages, data_pages));
    let correct = tally.failed == 0 && tally.violations.is_empty();
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
}
