//! End-to-end benchmark of the HC2L serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eta-point|dispatch-matrix|rush-hour --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds an HC2L index the way users do (sequential `Method::Hc2l`
//! build, saved to a container and opened with mmap, or kept owned for the
//! updatable server), serves it with the epoll server on loopback, and
//! drives it from one client thread. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See README.md for the workloads and what each metric
//! should move.

mod layers;
mod procfs;
mod reference;
mod rng;
mod stats;
mod trace;
mod wire;

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc2l_graph::Graph;
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder, SharedOracle, WeightUpdate};
use hc2l_roadnet::{random_weight_updates, RoadNetwork, RoadNetworkConfig, WeightMode};
use hc2l_serve::{serve_with_model, Request, Response, ServeModel, ServeState, ServerHandle};

use layers::Metric;
use reference::{check_answers, Answer, RefGraph};
use rng::{SplitMix, Zipf};
use stats::{median, percentile, Better, Windows};
use trace::{Tracer, ROOT};
use wire::{Conn, Tally};

/// Result-cache entries of every served state (the daemon's default).
const CACHE_ENTRIES: usize = 1 << 16;
/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(250);
/// Unmeasured warm-up before the windows start.
const WARMUP: Duration = Duration::from_secs(1);
/// Side of the square city behind `eta-point` and `dispatch-matrix`.
const BIG_CITY: usize = 96;
/// Side of `rush-hour`'s city: small enough that a batch is absorbed in
/// well under the update period.
const SMALL_CITY: usize = 48;
/// The cities and `rush-hour`'s update schedule are generated from this
/// fixed seed; `--seed` drives every query stream and sample. Index size
/// varies by ~10% between random cities of one size, and whether the
/// relabel walk absorbs a batch or bounces to a rebuild (a 2-3x cost
/// difference) depends on the edges drawn, so seeded cities would make
/// set-up, size, scan cost and update cost depend on the seed rather than
/// on the code.
const CITY_SEED: u64 = 1;
/// Frames in flight on `eta-point`'s connection.
const ETA_WINDOW: usize = 64;
/// Frames in flight on `dispatch-matrix`'s connection.
const DISPATCH_WINDOW: usize = 16;
/// Targets per `dispatch-matrix` frame: one car against the customers of
/// one dispatch matrix.
const DISPATCH_TARGETS: usize = 500;
/// Cars (frames) per dispatch matrix; each matrix draws fresh customers.
const DISPATCH_CARS: u64 = 32;
/// Answers checked against Dijkstra per run: sampled point answers and
/// whole one-to-many rows, each row costing one search.
const CHECKED_POINTS: usize = 1000;
const CHECKED_ROWS: usize = 256;
/// `rush-hour`'s offered query rate, per second.
const RUSH_RATE: f64 = 10_000.0;
/// `rush-hour`'s pair pool and Zipf exponent.
const RUSH_POOL: usize = 1 << 18;
const RUSH_ZIPF_S: f64 = 1.2;
/// `rush-hour`'s update batches alternate these sizes, one per period.
const RUSH_BATCH_SIZES: [usize; 2] = [1, 100];
const RUSH_PERIOD: Duration = Duration::from_secs(1);
/// Batches of `rush-hour`'s schedule that the traced closed-loop workloads
/// absorb in-process: enough that both the relabel walk and the rebuild it
/// bounces to are timed over many batches.
const DYNAMIC_BATCHES: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EtaPoint,
    DispatchMatrix,
    RushHour,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "eta-point" => Some(Workload::EtaPoint),
            "dispatch-matrix" => Some(Workload::DispatchMatrix),
            "rush-hour" => Some(Workload::RushHour),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EtaPoint => "eta-point",
            Workload::DispatchMatrix => "dispatch-matrix",
            Workload::RushHour => "rush-hour",
        }
    }

    /// Set-up repetitions; the median is reported.
    fn setup_reps(self) -> usize {
        match self {
            Workload::RushHour => 9,
            _ => 5,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val:?}"))?),
            "--seconds" => {
                seconds = Some(val.parse().map_err(|_| format!("bad --seconds {val:?}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (0|1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Where the run keeps its index file and span log: beside the binary, in
/// the build's target directory.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| Path::new("."))
        .join("perfbench-work");
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

/// Everything a run reports.
struct Report {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Report {
    fn note(&mut self, s: impl Into<String>) {
        eprintln!("{}", s.into());
    }

    fn not_measured(&mut self, name: &'static str, unit: &'static str, why: &str) {
        self.note(format!("not measured: {name}: {why} (reported as 0)"));
        self.layer.push((name, 0.0, unit));
    }
}

/// Set-up timings over the repetitions.
#[derive(Default)]
struct Setup {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    save_s: Vec<f64>,
    open_s: Vec<f64>,
    phases: Vec<(&'static str, Vec<f64>)>,
    label_bytes: usize,
}

impl Setup {
    /// One sequential HC2L build, its phases drained from `hc2l_obs`.
    fn build(&mut self, g: &Graph, tracer: &mut Tracer, parent: trace::SpanId) -> Oracle {
        hc2l_obs::phase::drain();
        let span = tracer.begin("hc2l.build", parent, 0);
        let t = Instant::now();
        let oracle = OracleBuilder::new(Method::Hc2l).build(g);
        self.build_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        for (name, ns) in hc2l_obs::phase::drain() {
            let secs = ns as f64 / 1e9;
            match self.phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(secs),
                None => self.phases.push((name, vec![secs])),
            }
        }
        self.label_bytes = oracle.label_bytes();
        oracle
    }

    fn save_open(
        &mut self,
        oracle: &Oracle,
        path: &Path,
        tracer: &mut Tracer,
        parent: trace::SpanId,
    ) -> SharedOracle {
        let span = tracer.begin("container.save", parent, 0);
        let t = Instant::now();
        oracle.save(path).expect("save the index container");
        self.save_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        let span = tracer.begin("container.open", parent, 0);
        let t = Instant::now();
        let shared = OracleBuilder::open(path).expect("open the index container");
        self.open_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        shared
    }

    fn phase_metrics(&self) -> Vec<Metric> {
        let mut out = vec![("hc2l.build_s", median(&self.build_s), "s")];
        for (key, name) in [
            ("contract", "hc2l.phase.contract_s"),
            ("cut_partition", "hc2l.phase.cut_partition_s"),
            ("labelling", "hc2l.phase.labelling_s"),
            ("bounds", "hc2l.phase.bounds_s"),
            ("freeze", "hc2l.phase.freeze_s"),
        ] {
            let v = self
                .phases
                .iter()
                .find(|(n, _)| *n == key)
                .map(|(_, v)| median(v))
                .unwrap_or(0.0);
            out.push((name, v, "s"));
        }
        out.push(("hc2l.label_bytes", self.label_bytes as f64, "bytes"));
        if !self.save_s.is_empty() {
            out.push(("container.save_s", median(&self.save_s), "s"));
            out.push(("container.open_s", median(&self.open_s), "s"));
        }
        out
    }
}

fn city(side: usize, seed: u64) -> RoadNetwork {
    RoadNetworkConfig::city(side, side, seed).generate()
}

fn start_server(state: ServeState) -> (ServerHandle, SocketAddr) {
    let handle = serve_with_model(Arc::new(state), "127.0.0.1:0", ServeModel::Epoll)
        .expect("bind the loopback server");
    let addr = handle.addr();
    (handle, addr)
}

fn is_reactor(t: &procfs::TaskSample) -> bool {
    // Reactor 0 runs on the accept thread; comm is cut to 15 bytes.
    t.name.starts_with("hc2l-serve-acce") || t.name.starts_with("hc2l-serve-reac")
}

/// Per-thread accounting over the measured window.
struct ThreadWindow {
    before: Vec<procfs::TaskSample>,
    process_before: Option<u64>,
}

impl ThreadWindow {
    fn start() -> Self {
        ThreadWindow {
            before: procfs::tasks(),
            process_before: procfs::process_cpu_ns(),
        }
    }

    /// CPU time the server has spent since [`ThreadWindow::start`]: the
    /// process's, exited threads included, less the client thread's. Time
    /// on a CPU excludes what the hypervisor stole.
    fn server_cpu_ns(&self, client_tid: Option<u32>) -> Option<u64> {
        let process = procfs::process_cpu_ns()?.checked_sub(self.process_before?)?;
        let client = procfs::delta(&self.before, &procfs::tasks(), |t| {
            Some(t.tid) == client_tid
        })
        .cpu_ns?;
        Some(process.saturating_sub(client))
    }

    /// Reactor and client figures per request served in the window, and
    /// CPU of threads that exited during it (the update workers).
    fn finish(self, requests: u64, client_tid: Option<u32>, report: &mut Report, batches: usize) {
        let after = procfs::tasks();
        let process_after = procfs::process_cpu_ns();
        let per = |x: Option<u64>, scale: f64| x.map(|v| v as f64 / scale / requests.max(1) as f64);
        let r = procfs::delta(&self.before, &after, is_reactor);
        let c = procfs::delta(&self.before, &after, |t| Some(t.tid) == client_tid);
        let mut put = |name: &'static str, v: Option<f64>, unit: &'static str, why: &str| match v {
            Some(v) => report.layer.push((name, v, unit)),
            None => report.not_measured(name, unit, why),
        };
        let missing = "the /proc/self/task file is not available here";
        put("reactor.cpu_us_per_req", per(r.cpu_ns, 1e3), "us", missing);
        put(
            "reactor.ctx_switches_per_req",
            per(r.ctx_switches, 1.0),
            "count",
            missing,
        );
        put(
            "reactor.runq_wait_us_per_req",
            per(r.runq_wait_ns, 1e3),
            "us",
            missing,
        );
        put("client.cpu_us_per_req", per(c.cpu_ns, 1e3), "us", missing);
        put(
            "client.runq_wait_us_per_req",
            per(c.runq_wait_ns, 1e3),
            "us",
            missing,
        );
        // Threads alive at both ends are in `all`; what the process spent
        // beyond them went to threads that exited in between.
        let all = procfs::delta(&self.before, &after, |_| true);
        let exited = match (self.process_before, process_after, all.cpu_ns) {
            (Some(b), Some(a), Some(live)) if batches > 0 => {
                Some((a.saturating_sub(b)).saturating_sub(live) as f64 / 1e6 / batches as f64)
            }
            _ => None,
        };
        match exited {
            Some(v) => report.layer.push(("update.cpu_ms_per_batch", v, "ms")),
            None => report.not_measured(
                "update.cpu_ms_per_batch",
                "ms",
                "no update batch ran on this workload",
            ),
        }
        for t in after
            .iter()
            .filter(|t| is_reactor(t) || Some(t.tid) == client_tid)
        {
            let b = self.before.iter().find(|b| b.tid == t.tid);
            let wait = match (t.runq_wait_ns, b.and_then(|b| b.runq_wait_ns)) {
                (Some(a), Some(b)) => format!("{:.1} ms", (a - b) as f64 / 1e6),
                _ => "not measured".into(),
            };
            report.note(format!(
                "run-queue wait over the window: {} (tid {}): {wait}",
                t.name, t.tid
            ));
        }
        report.note(
            "not measured: reactor.syscalls_per_req: the only per-thread syscall counters \
             (syscr/syscw in /proc/self/task/<tid>/io) miss the recv/send calls sockets use; \
             reactor.ctx_switches_per_req stands in for it",
        );
        report.note(
            "not measured: update worker syscalls and run-queue wait: each worker thread exits \
             with its batch and the kernel keeps no per-thread record after exit",
        );
    }
}

/// Cheap seeded hash for deciding which frames to check.
fn pick(seed: u64, i: u64, one_in: u64) -> bool {
    SplitMix::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .next_u64()
        .is_multiple_of(one_in)
}

/// Property checks every answer must pass, sent after the timed windows:
/// d(v, v) = 0, symmetry, and `OneToMany` rows equal to point answers.
fn property_checks(conn: &mut Conn, n: usize, seed: u64, tally: &mut Tally, report: &mut Report) {
    let mut rng = SplitMix::new(seed ^ 0x7072_6f70);
    let mut v = || rng.below(n as u64) as u32;
    let mut call = |req: Request, tally: &mut Tally| -> Option<Response> {
        tally.attempted += 1;
        match conn.call(&req) {
            Ok(r @ (Response::Distance(_) | Response::Distances(_))) => Some(r),
            _ => {
                tally.failed += 1;
                None
            }
        }
    };
    let mut broken = 0;
    for _ in 0..32 {
        let x = v();
        if let Some(Response::Distance(d)) = call(Request::Distance(x, x), tally) {
            broken += u64::from(d != 0);
        }
    }
    for _ in 0..64 {
        let (s, t) = (v(), v());
        let a = call(Request::Distance(s, t), tally);
        let b = call(Request::Distance(t, s), tally);
        if let (Some(Response::Distance(a)), Some(Response::Distance(b))) = (a, b) {
            broken += u64::from(a != b);
        }
    }
    for _ in 0..8 {
        let s = v();
        let targets: Vec<u32> = (0..32).map(|_| v()).collect();
        if let Some(Response::Distances(row)) = call(
            Request::OneToMany {
                source: s,
                targets: targets.clone(),
            },
            tally,
        ) {
            broken += u64::from(row.len() != targets.len());
            for (&t, &d) in targets.iter().zip(&row) {
                if let Some(Response::Distance(p)) = call(Request::Distance(s, t), tally) {
                    broken += u64::from(p != d);
                }
            }
        }
    }
    if broken > 0 {
        report.note(format!(
            "WRONG: {broken} property checks failed (zero, symmetry or row = point)"
        ));
    }
    report.wrong += broken;
    tally.failed += broken;
}

fn wrong_answers(report: &mut Report, tally: &mut Tally, what: &str, wrong: &[(Answer, u64)]) {
    for (a, want) in wrong.iter().take(5) {
        report.note(format!(
            "WRONG: {what}: d({}, {}) = {} but Dijkstra says {want}",
            a.source, a.target, a.got
        ));
    }
    report.wrong += wrong.len() as u64;
    tally.failed += wrong.len() as u64;
}

/// The end-to-end figures: set-up, size, and the distances the server
/// answered over the timed window per second of its CPU time (a point
/// query is one distance). A timed loop that ended in an error has no rate.
fn wire_metrics(
    report: &mut Report,
    setup: &Setup,
    index_bytes: usize,
    distances: u64,
    server_cpu_ns: Option<u64>,
    loop_ok: bool,
) {
    report.e2e.extend([
        ("setup_s", median(&setup.setup_s), "s"),
        ("index_mb", index_bytes as f64 / 1e6, "MB"),
    ]);
    match server_cpu_ns {
        Some(ns) if ns > 0 && loop_ok => report.e2e.push((
            "distances_per_cpu_s",
            distances as f64 / (ns as f64 / 1e9),
            "1/s",
        )),
        _ if !loop_ok => report.note("distances_per_cpu_s: not reported, the timed loop failed"),
        _ => report.note("distances_per_cpu_s: the server's CPU time could not be read"),
    }
}

/// The wall-clock rate and latency figures of the timed windows (per-layer:
/// on a shared 2-vCPU host they move with the hypervisor's steal as much as
/// with the code), and the windows themselves.
fn window_metrics(w: &Windows, report: &mut Report) {
    let rate = |f: fn(&stats::WindowStats) -> f64| w.quiet(false, Better::Higher, f);
    let latency = |f: fn(&stats::WindowStats) -> f64| w.quiet(false, Better::Lower, f);
    report.layer.extend([
        ("client.queries_per_s", rate(|s| s.ops_per_s), "1/s"),
        ("client.distances_per_s", rate(|s| s.units_per_s), "1/s"),
        ("client.lat_p50_us", latency(|s| s.p50_us), "us"),
        ("client.lat_p90_us", latency(|s| s.p90_us), "us"),
        ("client.lat_p99_us", latency(|s| s.p99_us), "us"),
    ]);
    report.note(format!(
        "{} windows of {:?}; fewest samples in a window: {}; rates are the 90th percentile \
         window, latencies the 10th",
        w.windows().len(),
        w.len(),
        w.min_samples(),
    ));
    let per_window: Vec<String> = w
        .windows()
        .iter()
        .map(|s| {
            format!(
                "{:.0}/{:.0}/{:.0}/{:.0}/{:.0}%",
                s.units_per_s,
                s.p50_us,
                s.p90_us,
                s.p99_us,
                s.steal * 100.0
            )
        })
        .collect();
    report.note(format!(
        "windows (distances/s / p50 / p90 / p99 us / steal): {}",
        per_window.join(" ")
    ));
}

fn protocol_bytes(tally: &Tally, report: &mut Report) {
    report.layer.push((
        "protocol.request_bytes",
        tally.request_bytes as f64 / tally.request_frames.max(1) as f64,
        "bytes",
    ));
    report.layer.push((
        "protocol.response_bytes",
        tally.response_bytes as f64 / tally.response_frames.max(1) as f64,
        "bytes",
    ));
}

fn cache_metrics(
    state: &ServeState,
    before: hc2l_serve::ServerStats,
    report: &mut Report,
    hist_p50_ns: u64,
) {
    let after = state.stats();
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    report.layer.push((
        "cache.hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));
    report
        .layer
        .push(("cache.lookups", lookups as f64, "count"));
    report
        .layer
        .push(("server.hist_p50_us", hist_p50_ns as f64 / 1e3, "us"));
}

/// `dynamic.*` on a workload whose server has no update path: the first
/// [`DYNAMIC_BATCHES`] batches of `rush-hour`'s schedule, on its city,
/// through `ServeState::try_apply_updates` on an updatable state in this
/// process (so `visible_ms` has no wire round trip in it).
fn dynamic_in_process(report: &mut Report, tracer: &mut Tracer) {
    let g = city(SMALL_CITY, CITY_SEED).graph(WeightMode::TravelTime);
    let plan = update_plan(&g, DYNAMIC_BATCHES);
    let oracle = OracleBuilder::new(Method::Hc2l).build(&g);
    let state = ServeState::with_updates(g.clone(), oracle, 1, CACHE_ENTRIES);
    let mut batches = Vec::new();
    for (k, batch) in plan.iter().enumerate() {
        let span = tracer.begin("update.batch", ROOT, k as u64);
        let t = Instant::now();
        match state.try_apply_updates(batch) {
            Ok(o) => {
                let visible = t.elapsed();
                if tracer.enabled() {
                    let end = tracer.now_ns();
                    let a = Duration::from_micros(o.micros).min(visible).as_nanos() as u64;
                    tracer.record("dynamic.absorb", span, k as u64, end.saturating_sub(a), end);
                }
                batches.push(wire::BatchResult {
                    size: batch.len(),
                    visible_ms: visible.as_secs_f64() * 1e3,
                    absorb_ms: o.micros as f64 / 1e3,
                    strategy_tag: o.strategy_tag,
                });
            }
            Err(e) => report.note(format!("in-process update batch {k} refused: {e:?}")),
        }
        tracer.end(span);
    }
    report.note(format!(
        "dynamic.*: measured in-process on the {SMALL_CITY}x{SMALL_CITY} city, \
         {DYNAMIC_BATCHES} batches alternating {RUSH_BATCH_SIZES:?} edges"
    ));
    dynamic_metrics(&batches, &g, &plan, report, tracer);
}

/// Runs the closed-loop workloads (`eta-point`, `dispatch-matrix`).
fn run_closed(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Tally {
    let w = args.workload;
    let net = city(BIG_CITY, CITY_SEED);
    let g = net.graph(WeightMode::TravelTime);
    let n = g.num_vertices();
    report.note(format!(
        "{}: city {BIG_CITY}x{BIG_CITY} seed {CITY_SEED}: |V| = {n}, |E| = {}; query seed {}",
        w.name(),
        g.num_edges(),
        args.seed
    ));
    let path = work_dir().join(format!("{}.hc2l", w.name()));
    let mut setup = Setup::default();
    let mut shared = None;
    for rep in 0..w.setup_reps() {
        let span = tracer.begin("setup", ROOT, rep as u64);
        let t = Instant::now();
        let oracle = setup.build(&g, tracer, span);
        let s = setup.save_open(&oracle, &path, tracer, span);
        setup.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        shared = Some(s);
    }
    let shared = shared.expect("at least one set-up");
    let index_bytes = shared.index_bytes();
    report.note(format!(
        "index: {index_bytes} bytes ({:.1} MB) against a 4 MiB L2 per core",
        index_bytes as f64 / 1e6
    ));
    let (handle, addr) = start_server(ServeState::new(shared.clone(), 1, CACHE_ENTRIES));
    let mut conn = Conn::new(wire::connect(addr).expect("connect to the server"));
    let mut tally = Tally::default();
    let reference = RefGraph::from_network(&net, WeightMode::TravelTime);

    let (window, targets) = match w {
        Workload::EtaPoint => (ETA_WINDOW, 0),
        _ => (DISPATCH_WINDOW, DISPATCH_TARGETS),
    };
    let mut qrng = SplitMix::new(args.seed ^ 0x7175_6572);
    let mut customers: Vec<u32> = Vec::new();
    let mut next = move |i: u64| -> Request {
        if targets == 0 {
            return Request::Distance(qrng.below(n as u64) as u32, qrng.below(n as u64) as u32);
        }
        // One dispatch matrix is DISPATCH_CARS rows against one customer set.
        if i.is_multiple_of(DISPATCH_CARS) || customers.is_empty() {
            customers = (0..targets).map(|_| qrng.below(n as u64) as u32).collect();
        }
        Request::OneToMany {
            source: qrng.below(n as u64) as u32,
            targets: customers.clone(),
        }
    };
    let units = |r: &Request| match r {
        Request::OneToMany { targets, .. } => targets.len() as u64,
        _ => 1,
    };
    let mut point_samples: Vec<Answer> = Vec::new();
    let mut row_samples: Vec<Answer> = Vec::new();
    let mut frame_no = 0u64;
    let seed = args.seed;
    let mut check = |req: &Request, resp: &Response| -> bool {
        frame_no += 1;
        match (req, resp) {
            (Request::Distance(s, t), Response::Distance(d)) => {
                if point_samples.len() < CHECKED_POINTS && pick(seed, frame_no, 2048) {
                    point_samples.push(Answer {
                        source: *s,
                        target: *t,
                        got: *d,
                    });
                }
                true
            }
            (Request::OneToMany { source, targets }, Response::Distances(ds)) => {
                if ds.len() != targets.len() {
                    return false;
                }
                if row_samples.len() < CHECKED_ROWS * targets.len() && pick(seed, frame_no, 512) {
                    row_samples.extend(targets.iter().zip(ds).map(|(&t, &d)| Answer {
                        source: *source,
                        target: t,
                        got: d,
                    }));
                }
                true
            }
            _ => false,
        }
    };

    let warm_until = Instant::now() + WARMUP;
    let r = wire::closed_loop(
        &mut conn,
        window,
        warm_until,
        None,
        &mut tally,
        &mut Tracer::new(false),
        &mut next,
        &mut check,
        units,
    );
    if let Err(e) = r {
        report.note(format!("warm-up failed: {e}"));
        tally.failed += 1;
    }
    let client_tid = procfs::current_tid();
    let stats_before = handle.state().stats();
    let frames_before = tally.response_frames;
    let threads = ThreadWindow::start();
    let mut windows = Windows::new(WINDOW);
    tracer.start_alternating();
    let r = wire::closed_loop(
        &mut conn,
        window,
        Instant::now() + Duration::from_secs(args.seconds),
        Some(&mut windows),
        &mut tally,
        tracer,
        &mut next,
        &mut check,
        units,
    );
    tracer.stop_alternating();
    let loop_ok = r.is_ok();
    if let Err(e) = r {
        report.note(format!("timed loop failed: {e}"));
        tally.failed += 1;
    }
    let served = tally.response_frames - frames_before;
    let server_cpu_ns = threads.server_cpu_ns(client_tid);
    window_metrics(&windows, report);
    if args.trace {
        threads.finish(served, client_tid, report, 0);
        let hist = handle.state().stats();
        let hist_p50 = if targets == 0 {
            hist.distance_p50_ns
        } else {
            hist.one_to_many_p50_ns
        };
        cache_metrics(handle.state(), stats_before, report, hist_p50);
        let plain = windows.quiet(false, Better::Higher, |s| s.ops_per_s);
        let with = windows.quiet(true, Better::Higher, |s| s.ops_per_s);
        report
            .layer
            .push(("trace.overhead_pct", (plain - with) / plain * 100.0, "%"));
        report.note(format!(
            "tracing overhead: {plain:.0} frames/s in untraced windows, {with:.0} in traced ones"
        ));
    } else {
        let distances = served * targets.max(1) as u64;
        wire_metrics(
            report,
            &setup,
            index_bytes,
            distances,
            server_cpu_ns,
            loop_ok,
        );
    }
    property_checks(&mut conn, n, args.seed, &mut tally, report);
    drop(conn);
    handle.shutdown().expect("server shut down");

    let wrong = check_answers(&reference, &point_samples);
    wrong_answers(report, &mut tally, "point answer", &wrong);
    let wrong = check_answers(&reference, &row_samples);
    wrong_answers(report, &mut tally, "one-to-many row", &wrong);
    report.note(format!(
        "checked against Dijkstra: {} point answers, {} row entries",
        point_samples.len(),
        row_samples.len()
    ));

    if args.trace {
        report.layer.extend(setup.phase_metrics());
        protocol_bytes(&tally, report);
        report.layer.extend(layers::kernels(
            &shared,
            DISPATCH_TARGETS,
            args.seed,
            tracer,
        ));
        report
            .layer
            .extend(layers::server(&shared, CACHE_ENTRIES, args.seed, tracer));
        report
            .layer
            .extend(layers::protocol(n, DISPATCH_TARGETS, args.seed, tracer));
        report
            .layer
            .push(("client.late_ms", late_p99(&tally), "ms"));
        dynamic_in_process(report, tracer);
    }
    tally
}

/// The fixed update schedule of `rush-hour`, and the graph after each
/// batch (as `random_weight_updates` draws each batch from the current
/// weights).
fn update_plan(g: &Graph, batches: usize) -> Vec<Vec<WeightUpdate>> {
    let mut g = g.clone();
    (0..batches)
        .map(|k| {
            let size = RUSH_BATCH_SIZES[k % RUSH_BATCH_SIZES.len()];
            let batch = random_weight_updates(&g, size, CITY_SEED * 1000 + k as u64);
            for up in &batch {
                g.set_edge_weight(up.u, up.v, up.new_weight);
            }
            batch
        })
        .collect()
}

fn run_rush_hour(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Tally {
    let net = city(SMALL_CITY, CITY_SEED);
    let g = net.graph(WeightMode::TravelTime);
    let n = g.num_vertices();
    report.note(format!(
        "rush-hour: city {SMALL_CITY}x{SMALL_CITY} seed {CITY_SEED}: |V| = {n}, |E| = {}; query seed {}",
        g.num_edges(),
        args.seed
    ));
    let mut setup = Setup::default();
    let mut built = None;
    for rep in 0..Workload::RushHour.setup_reps() {
        let span = tracer.begin("setup", ROOT, rep as u64);
        let t = Instant::now();
        let oracle = setup.build(&g, tracer, span);
        setup.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        built = Some(oracle);
    }
    let oracle = built.expect("at least one set-up");
    let index_bytes = oracle.index_bytes();
    let (handle, addr) = start_server(ServeState::with_updates(
        g.clone(),
        oracle.clone(),
        1,
        CACHE_ENTRIES,
    ));
    let mut tally = Tally::default();

    // Zipf-skewed pairs from a seeded pool.
    let pool = layers::pairs(n, RUSH_POOL, args.seed ^ 0x706f_6f6c);
    let zipf = Zipf::new(RUSH_POOL, RUSH_ZIPF_S);
    let mut qrng = SplitMix::new(args.seed ^ 0x7a69_7066);
    let mut next = move |_i: u64| pool[zipf.sample(&mut qrng)];

    // Warm the cache with the same stream, closed loop, no updates.
    let mut conn = Conn::new(wire::connect(addr).expect("connect to the server"));
    let warm_until = Instant::now() + WARMUP;
    let r = wire::closed_loop(
        &mut conn,
        1,
        warm_until,
        None,
        &mut tally,
        &mut Tracer::new(false),
        |i| {
            let (s, t) = next(i);
            Request::Distance(s, t)
        },
        |_, resp| wire::distance_of(resp).is_some(),
        |_| 1,
    );
    if let Err(e) = r {
        report.note(format!("warm-up failed: {e}"));
        tally.failed += 1;
    }
    let updates = Conn::new(wire::connect(addr).expect("connect to the server"));
    let plan = update_plan(
        &g,
        (args.seconds as f64 / RUSH_PERIOD.as_secs_f64()) as usize + 2,
    );

    wire::tighten_timer_slack();
    let client_tid = procfs::current_tid();
    let stats_before = handle.state().stats();
    let frames_before = tally.response_frames;
    let threads = ThreadWindow::start();
    let mut windows = Windows::new(WINDOW);
    let mut out = wire::OpenLoopOut::default();
    let start = Instant::now();
    tracer.start_alternating();
    let res = wire::open_loop(
        conn,
        updates,
        RUSH_RATE,
        start,
        start + Duration::from_secs(args.seconds),
        &plan,
        RUSH_PERIOD,
        Some(&mut windows),
        &mut tally,
        tracer,
        &mut next,
        &mut out,
    );
    tracer.stop_alternating();
    let (mut conn, updates) = match res {
        Ok(c) => c,
        Err(e) => {
            report.note(format!("open loop failed: {e}"));
            tally.failed += 1;
            handle.shutdown().expect("server shut down");
            return tally;
        }
    };
    drop(updates);
    let served = tally.response_frames - frames_before;
    let server_cpu_ns = threads.server_cpu_ns(client_tid);
    let absorbed = out.batches.len();
    window_metrics(&windows, report);
    if args.trace {
        threads.finish(served, client_tid, report, absorbed);
        let stats = handle.state().stats();
        cache_metrics(handle.state(), stats_before, report, stats.distance_p50_ns);
        let plain = windows.quiet(false, Better::Lower, |s| s.p50_us);
        let with = windows.quiet(true, Better::Lower, |s| s.p50_us);
        report
            .layer
            .push(("trace.overhead_pct", (with - plain) / plain * 100.0, "%"));
        report.note(format!(
            "tracing overhead: p50 {plain:.2} us in untraced windows, {with:.2} us in traced ones"
        ));
    } else {
        // The update acknowledgements are served frames, not distances.
        let distances = served - absorbed as u64;
        wire_metrics(report, &setup, index_bytes, distances, server_cpu_ns, true);
    }
    property_checks(&mut conn, n, args.seed, &mut tally, report);
    drop(conn);
    handle.shutdown().expect("server shut down");

    // Every checked answer against Dijkstra on the benchmark's own copy,
    // re-weighted batch by batch.
    let mut reference = RefGraph::from_network(&net, WeightMode::TravelTime);
    out.checked.sort_by_key(|c| c.0);
    let mut applied = 0;
    let mut i = 0;
    while i < out.checked.len() {
        let epoch = out.checked[i].0;
        while applied < epoch {
            for up in &plan[applied] {
                reference.set_weight(up.u, up.v, u64::from(up.new_weight));
            }
            applied += 1;
        }
        let group: Vec<Answer> = out.checked[i..]
            .iter()
            .take_while(|c| c.0 == epoch)
            .map(|&(_, s, t, d)| Answer {
                source: s,
                target: t,
                got: d,
            })
            .collect();
        i += group.len();
        let wrong = check_answers(&reference, &group);
        wrong_answers(
            report,
            &mut tally,
            &format!("answer after batch {epoch}"),
            &wrong,
        );
    }
    report.note(format!(
        "checked against Dijkstra: {} answers over {} epochs; {} batches absorbed",
        out.checked.len(),
        out.checked.last().map(|c| c.0 + 1).unwrap_or(0),
        absorbed
    ));

    if args.trace {
        // The updatable server keeps its index owned; the container layer
        // is timed on one save and open of it.
        let path = work_dir().join("rush-hour.hc2l");
        let shared = setup.save_open(&oracle, &path, tracer, ROOT);
        report.layer.extend(setup.phase_metrics());
        protocol_bytes(&tally, report);
        report.layer.extend(layers::kernels(
            &shared,
            DISPATCH_TARGETS,
            args.seed,
            tracer,
        ));
        report
            .layer
            .extend(layers::server(&shared, CACHE_ENTRIES, args.seed, tracer));
        report
            .layer
            .extend(layers::protocol(n, DISPATCH_TARGETS, args.seed, tracer));
        dynamic_metrics(&out.batches, &g, &plan[..absorbed], report, tracer);
        report
            .layer
            .push(("client.late_ms", late_p99(&tally), "ms"));
    }
    tally
}

/// p99 of how late the timed frames were sent, ms.
fn late_p99(tally: &Tally) -> f64 {
    let mut v = tally.late_ms.clone();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        percentile(&v, 99.0)
    }
}

/// `dynamic.*` from acknowledged batches, plus a from-scratch build on the
/// graph they produced.
fn dynamic_metrics(
    batches: &[wire::BatchResult],
    g0: &Graph,
    absorbed: &[Vec<WeightUpdate>],
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let by_size = |size: usize| {
        med(batches
            .iter()
            .filter(|b| b.size == size)
            .map(|b| b.absorb_ms)
            .collect())
    };
    report
        .layer
        .push(("dynamic.absorb_ms.batch1", by_size(1), "ms"));
    report
        .layer
        .push(("dynamic.absorb_ms.batch100", by_size(100), "ms"));
    let by_tag = |tag: u32| {
        med(batches
            .iter()
            .filter(|b| b.strategy_tag == tag)
            .map(|b| b.absorb_ms)
            .collect())
    };
    report
        .layer
        .push(("dynamic.absorb_ms.incremental", by_tag(2), "ms"));
    report
        .layer
        .push(("dynamic.absorb_ms.rebuilt", by_tag(3), "ms"));
    report.layer.push((
        "dynamic.visible_ms",
        med(batches.iter().map(|b| b.visible_ms).collect()),
        "ms",
    ));
    report.layer.push((
        "dynamic.swap_ms",
        med(batches.iter().map(|b| b.visible_ms - b.absorb_ms).collect()),
        "ms",
    ));
    let count = |tag: u32| batches.iter().filter(|b| b.strategy_tag == tag).count() as f64;
    report
        .layer
        .push(("dynamic.incremental_batches", count(2), "count"));
    report
        .layer
        .push(("dynamic.rebuild_batches", count(3), "count"));
    let mut g = g0.clone();
    for batch in absorbed {
        for up in batch {
            g.set_edge_weight(up.u, up.v, up.new_weight);
        }
    }
    let span = tracer.begin("dynamic.rebuild", ROOT, 0);
    let t = Instant::now();
    let rebuilt = OracleBuilder::new(Method::Hc2l).build(&g);
    report
        .layer
        .push(("dynamic.rebuild_ms", t.elapsed().as_secs_f64() * 1e3, "ms"));
    tracer.end(span);
    drop(rebuilt);
}

fn trace_metrics(tracer: &Tracer, report: &mut Report, workload: Workload) {
    let st = tracer.self_times();
    report.note("self time per span (count, total ms, self ms):".to_string());
    for (name, (count, total, own)) in &st {
        report.note(format!(
            "  {name:<22} {count:>9} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    let mean_self = |name: &str, scale: f64| {
        st.get(name)
            .map(|&(c, _, own)| own as f64 / scale / c.max(1) as f64)
            .unwrap_or(0.0)
    };
    report.layer.push((
        "trace.request_self_us",
        mean_self("client.request", 1e3),
        "us",
    ));
    report
        .layer
        .push(("trace.setup_self_ms", mean_self("setup", 1e6), "ms"));
    report
        .layer
        .push(("trace.update_self_ms", mean_self("update.batch", 1e6), "ms"));
    report.note(format!("{} spans recorded", tracer.spans().len()));
    let path = work_dir().join(format!("trace-{}.tsv", workload.name()));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        tracer.write_tsv(&mut w)?;
        w.flush()
    });
    match written {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn print_json(report: &Report, trace: bool) {
    let metrics = if trace { &report.layer } else { &report.e2e };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload eta-point|dispatch-matrix|rush-hour --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut report = Report {
        e2e: Vec::new(),
        layer: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
    };
    report.note(format!(
        "perfbench {} seed {} seconds {} trace {}; available parallelism {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    ));
    let mut tracer = Tracer::new(args.trace);
    let tally = match args.workload {
        Workload::RushHour => run_rush_hour(&args, &mut report, &mut tracer),
        _ => run_closed(&args, &mut report, &mut tracer),
    };
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    if args.trace {
        trace_metrics(&tracer, &mut report, args.workload);
    } else {
        match procfs::peak_rss_mb() {
            Some(mb) => report.e2e.push(("peak_rss_mb", mb, "MB")),
            None => report.note("peak_rss_mb: /proc/self/status is not available"),
        }
    }
    for (name, value, unit) in report.e2e.iter().chain(&report.layer) {
        eprintln!("{name} = {value} {unit}");
    }
    eprintln!("attempted {} failed {}", report.attempted, report.failed);
    print_json(&report, args.trace);
    if report.failed > 0 {
        std::process::exit(1);
    }
}
