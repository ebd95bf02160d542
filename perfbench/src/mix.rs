//! The `service-mix` workload: a closed loop of [`CLIENTS`] client
//! threads, one connection each, against an in-process daemon with
//! [`WORKERS`] workers and its artifact store on. Each client submits
//! small case-study instances as DSL text; every [`RESUBMIT_EVERY`]th
//! submission is an exact resubmit of a job that already finished, which
//! the store answers.
//!
//! The seed picks the order of the fresh instances, their renamings and
//! which jobs are resubmitted, but not how many of each kind a run
//! submits: fresh jobs deal the pool round by round, each round in a
//! seeded order. Latency medians over a mix of fast and slow instances
//! would otherwise move with the draw, not with the service.

use crate::naming::{digest, input_text, tag, Instance, Renaming};
use crate::spans::{self, Recorder};
use crate::stat::{median, peak_rss_mb, percentile, ratio, reset_peak_rss, SplitMix};
use crate::{Metric, Outcome};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stsyn_obs::{Json, Tracer};
use stsyn_serve::{
    Client, ClientError, JobSource, Server, ServerConfig, ServerHandle, ShutdownMode, SubmitSpec,
};

/// Client threads (closed loop, one connection each). One client and
/// one worker keep about one thread busy at a time: on the 2-core
/// machine this was sized on the second core comes and goes, and with 2
/// clients and 2 workers throughput swung by a third from run to run.
pub const CLIENTS: usize = 1;
/// Daemon worker threads.
pub const WORKERS: usize = 1;
/// Every this many submissions, one exactly resubmits a finished job.
/// Resubmits stay well below one half so the median latency sits inside
/// the cold-job distribution, not in the gap between store hits and cold
/// runs.
pub const RESUBMIT_EVERY: u64 = 4;
/// Completed job directories the daemon keeps (`--retain-jobs`), so its
/// memory reaches a steady state instead of growing with every job a
/// run completes.
pub const RETAIN_JOBS: usize = 64;
/// Resubmits draw from this many most recent cold jobs.
const RESUBMIT_WINDOW: usize = 256;
/// Between every this many jobs the client starts (and stops) a
/// throwaway daemon on a fresh state directory, so the `setup_s` samples
/// spread over the whole run: store open fsyncs, and the disk's speed
/// drifts over seconds. The time these take is left out of the
/// throughput window; with one client the serving daemon is idle meanwhile.
const SETUP_EVERY: u64 = 8;

/// A submission the clients may resubmit: the exact spec plus what its
/// result is checked against.
#[derive(Clone)]
struct Submission {
    spec: SubmitSpec,
    key: String,
    renaming: Renaming,
}

/// One finished job as the client saw it.
struct JobRecord {
    key: String,
    fingerprint: u64,
    latency_ms: f64,
    submit_ms: f64,
    queue_ms: f64,
    run_ms: f64,
    hit: bool,
    traced: bool,
    /// Digest of the result minus its per-job fields (`id`, `store`).
    payload: String,
    stats: Option<Json>,
}

#[derive(Default)]
struct Shared {
    setup: Vec<f64>,
    /// Seconds the client spent on set-up samples, start to stop.
    setup_wall_s: f64,
    finished: VecDeque<Submission>,
    records: Vec<JobRecord>,
    failures: Vec<String>,
    attempted: u64,
    busy_rejects: u64,
    retries: u64,
}

/// Run the mix of `pool` instances for `seconds` with a fresh state
/// directory under `state_root` (removed afterwards).
pub fn run(
    pool: &[Instance],
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
    refs: &HashMap<String, String>,
    state_root: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    for inst in pool {
        if !refs.contains_key(&inst.key()) {
            out.fail(format!("no reference digest for `{}`", inst.key()));
        }
    }
    let run_dir = state_root.join(format!("mix-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = measure(pool, seed, seconds, trace, refs, &run_dir, &mut out);
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = outcome {
        out.fail(e);
    }
    out
}

fn measure(
    pool: &[Instance],
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
    refs: &HashMap<String, String>,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up: daemon start (state dir, store open, recovery, threads).
    // One unmeasured start warms up; the serving daemon's start is the
    // first sample.
    stop_daemon(start_daemon(&run_dir.join("warmup"))?.0);
    let (server, secs) = start_daemon(&run_dir.join("state"))?;
    let addr = server.addr();

    let recorder = trace.map(|_| Recorder::default());
    let shared = Mutex::new(Shared { setup: vec![secs], ..Shared::default() });
    reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    drive(pool, seed, addr, deadline, &shared, recorder.as_ref(), refs, run_dir);
    let loop_s = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let store = Client::connect(addr).and_then(|mut c| c.store_stats());
    stop_daemon(server);

    let sh = shared.into_inner().map_err(|_| "a client thread panicked".to_string())?;
    let wall_s = loop_s - sh.setup_wall_s;
    out.attempted += sh.attempted;
    for f in &sh.failures {
        out.fail(f.clone());
    }
    // A store hit must be byte-identical to the cold run it came from.
    let mut cold_payloads: HashMap<u64, Vec<&str>> = HashMap::new();
    for r in sh.records.iter().filter(|r| !r.hit) {
        cold_payloads.entry(r.fingerprint).or_default().push(&r.payload);
    }
    for r in sh.records.iter().filter(|r| r.hit) {
        if !cold_payloads.get(&r.fingerprint).is_some_and(|v| v.contains(&r.payload.as_str())) {
            out.fail(format!("store hit for spec {:x} differs from its cold run", r.fingerprint));
        }
    }
    let store = store.map_err(|e| format!("store-stats: {e}"))?;
    let store_hits = store.get("hits").and_then(Json::as_u64).unwrap_or(0) as f64;

    let recs = &sh.records;
    let lat: Vec<f64> = recs.iter().map(|r| r.latency_ms).collect();
    let cold: Vec<&JobRecord> = recs.iter().filter(|r| !r.hit).collect();
    let stats: Vec<&Json> = cold.iter().filter_map(|r| r.stats.as_ref()).collect();
    let stat_med = |field: &str| {
        median(&stats.iter().filter_map(|s| s.get(field)?.as_f64()).collect::<Vec<_>>())
    };
    out.samples = recs.len();
    out.end_to_end = vec![
        Metric::new("synth_s", stat_med("total_secs"), "s"),
        Metric::new("setup_s", median(&sh.setup), "s"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::new("jobs_per_s", ratio(recs.len() as f64, wall_s), "1/s"),
        Metric::new("job_p50_ms", median(&lat), "ms"),
        Metric::new("job_p95_ms", percentile(&lat, 95.0), "ms"),
    ];

    let (Some(rec), Some(path)) = (&recorder, trace) else { return Ok(()) };
    // The daemon-side split only exists for jobs that ran: a store hit
    // never queues.
    let cold_med =
        |f: &dyn Fn(&JobRecord) -> f64| median(&cold.iter().map(|r| f(r)).collect::<Vec<_>>());
    let lat_med = |hit: bool| {
        median(&recs.iter().filter(|r| r.hit == hit).map(|r| r.latency_ms).collect::<Vec<_>>())
    };
    let accept: Vec<f64> = stats
        .iter()
        .filter_map(|s| {
            Some(ratio(s.get("groups_added")?.as_f64()?, s.get("candidates")?.as_f64()?))
        })
        .collect();
    let submit: Vec<f64> = recs.iter().map(|r| r.submit_ms).collect();
    let run_total: f64 = recs.iter().map(|r| r.run_ms).sum();
    out.per_layer = vec![
        Metric::new("bdd.ticks", stat_med("bdd_ticks"), "count"),
        Metric::new("bdd.peak_live_nodes", stat_med("peak_live_nodes"), "count"),
        Metric::new("symbolic.max_rank", stat_med("max_rank"), "count"),
        Metric::new("stsyn.ranking_s", stat_med("ranking_secs"), "s"),
        Metric::new("stsyn.scc_s", stat_med("scc_secs"), "s"),
        Metric::new("stsyn.candidates", stat_med("candidates"), "count"),
        Metric::new("stsyn.groups_added", stat_med("groups_added"), "count"),
        Metric::new("stsyn.group_accept_ratio", median(&accept), "ratio"),
        Metric::new("stsyn.program_nodes", stat_med("program_nodes"), "count"),
        Metric::new("serve.submit_ms", median(&submit), "ms"),
        Metric::new("serve.queue_ms", cold_med(&|r| r.queue_ms), "ms"),
        Metric::new("serve.run_ms", cold_med(&|r| r.run_ms), "ms"),
        Metric::new(
            "serve.unattributed_ms",
            cold_med(&|r| r.latency_ms - r.submit_ms - r.queue_ms - r.run_ms),
            "ms",
        ),
        Metric::new(
            "serve.worker_busy_ratio",
            ratio(run_total, wall_s * 1e3 * WORKERS as f64),
            "ratio",
        ),
        Metric::new("serve.retries", sh.retries as f64, "count"),
        Metric::new("serve.busy_rejects", sh.busy_rejects as f64, "count"),
        Metric::new("store.hit_ratio", ratio(store_hits, recs.len() as f64), "ratio"),
        Metric::new("store.hit_p50_ms", lat_med(true), "ms"),
        Metric::new("store.cold_p50_ms", lat_med(false), "ms"),
        Metric::new("obs.trace_overhead", trace_overhead_ms(recs), "ms"),
    ];
    out.breakdown =
        Some(rec.write_and_reload(path).and_then(|records| spans::breakdown(&records))?);
    Ok(())
}

/// Traced minus untraced median latency, compared within jobs of the same
/// instance and store outcome (their latencies differ tenfold) and
/// weighted by how many jobs each such class has.
fn trace_overhead_ms(recs: &[JobRecord]) -> f64 {
    let mut classes: HashMap<(&str, bool), [Vec<f64>; 2]> = HashMap::new();
    for r in recs {
        classes.entry((&r.key, r.hit)).or_default()[usize::from(r.traced)].push(r.latency_ms);
    }
    let (mut sum, mut n) = (0.0, 0.0);
    for [untraced, traced] in classes.values() {
        if !untraced.is_empty() && !traced.is_empty() {
            let w = (untraced.len() + traced.len()) as f64;
            sum += (median(traced) - median(untraced)) * w;
            n += w;
        }
    }
    ratio(sum, n)
}

/// Run the client threads until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    pool: &[Instance],
    seed: u64,
    addr: SocketAddr,
    deadline: Instant,
    shared: &Mutex<Shared>,
    recorder: Option<&Recorder>,
    refs: &HashMap<String, String>,
    run_dir: &Path,
) {
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            s.spawn(move || {
                let cx = LoopCtx { pool, seed, client, addr, deadline, shared, refs, run_dir };
                client_loop(&cx, recorder.map(|r| r.tracer().clone()));
            });
        }
    });
}

/// Start a daemon with the store on and check that it answers a ping;
/// also return the seconds `Server::start` took. The ping is not timed:
/// the acceptor polls every 5 ms, so start→pong is bimodal, 1 or 6 ms,
/// depending on which thread the scheduler runs first.
fn start_daemon(dir: &Path) -> Result<(ServerHandle, f64), String> {
    let mut cfg = ServerConfig::new(dir).with_store(0);
    cfg.workers = WORKERS;
    cfg.retain_jobs = Some(RETAIN_JOBS);
    let t = Instant::now();
    let handle = Server::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    match Client::connect(handle.addr()).and_then(|mut c| c.ping()) {
        Ok(_) => Ok((handle, secs)),
        Err(e) => {
            stop_daemon(handle);
            Err(format!("first ping: {e}"))
        }
    }
}

fn stop_daemon(handle: ServerHandle) {
    handle.shutdown(ShutdownMode::Drain);
    handle.join();
}

/// What a client thread works with.
struct LoopCtx<'a> {
    pool: &'a [Instance],
    seed: u64,
    client: usize,
    addr: SocketAddr,
    deadline: Instant,
    shared: &'a Mutex<Shared>,
    refs: &'a HashMap<String, String>,
    run_dir: &'a Path,
}

/// One closed-loop client: submit, wait for the result, check it, repeat
/// until the deadline. When tracing, every second fresh job and every
/// second resubmit is traced.
fn client_loop(cx: &LoopCtx, tracer: Option<Tracer>) {
    // Every update below is a single push or counter bump, so the data
    // stays valid even if another client panicked holding the lock.
    let lock = || cx.shared.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = SplitMix::new(cx.seed, 1 + cx.client as u64);
    let mut conn = match Client::connect(cx.addr) {
        Ok(c) => c,
        Err(e) => {
            lock().failures.push(format!("client {}: connect: {e}", cx.client));
            return;
        }
    };
    let mut deck: Vec<usize> = Vec::new();
    let mut kind_count = [0u64; 2];
    let mut n = 0u64;
    while Instant::now() < cx.deadline {
        n += 1;
        if n.is_multiple_of(SETUP_EVERY) {
            let t = Instant::now();
            let dir = cx.run_dir.join(format!("setup-{}-{n}", cx.client));
            let sample = start_daemon(&dir).map(|(daemon, secs)| {
                stop_daemon(daemon);
                secs
            });
            let mut sh = lock();
            sh.setup_wall_s += t.elapsed().as_secs_f64();
            match sample {
                Ok(secs) => sh.setup.push(secs),
                Err(e) => sh.failures.push(format!("client {}: {e}", cx.client)),
            }
        }
        let pick = rng.next_u64();
        let again = {
            let finished = &lock().finished;
            (n.is_multiple_of(RESUBMIT_EVERY) && !finished.is_empty())
                .then(|| finished[(pick % finished.len() as u64) as usize].clone())
        };
        let resubmit = again.is_some();
        let sub = again.unwrap_or_else(|| {
            if deck.is_empty() {
                deck = shuffled(cx.pool.len(), &mut rng);
            }
            let inst = &cx.pool[deck.pop().unwrap_or_default()];
            fresh_submission(inst, &format!("{}c{}n{n}", tag(rng.next_u64()), cx.client))
        });
        kind_count[usize::from(resubmit)] += 1;
        let t = match &tracer {
            Some(t) if kind_count[usize::from(resubmit)].is_multiple_of(2) => t.clone(),
            _ => Tracer::disabled(),
        };
        let job = ((cx.client as u64) << 32) | n;
        let result = run_job(&mut conn, &sub, &t, job, cx.refs);
        let mut sh = lock();
        sh.attempted += 1;
        match result {
            Ok(mut rec) => {
                rec.traced = t.enabled();
                if !rec.hit {
                    if sh.finished.len() == RESUBMIT_WINDOW {
                        sh.finished.pop_front();
                    }
                    sh.finished.push_back(sub);
                }
                sh.records.push(rec);
            }
            Err(e) => {
                if matches!(&e, JobFailure::Rejected(c) if c == "busy" || c == "queue-full") {
                    sh.busy_rejects += 1;
                }
                sh.failures.push(format!("client {} job {n} ({}): {e}", cx.client, sub.key));
            }
        }
    }
    lock().retries += conn.retries();
}

/// `0..len` in a seeded order (Fisher–Yates).
fn shuffled(len: usize, rng: &mut SplitMix) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

fn fresh_submission(inst: &Instance, t: &str) -> Submission {
    let (text, renaming) = input_text(inst, Some(t));
    let mut spec = SubmitSpec::new(JobSource::Dsl(text));
    spec.weak = inst.weak;
    Submission { spec, key: inst.key(), renaming }
}

enum JobFailure {
    Rejected(String),
    Other(String),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Rejected(code) => write!(f, "rejected: {code}"),
            JobFailure::Other(m) => f.write_str(m),
        }
    }
}

impl From<ClientError> for JobFailure {
    fn from(e: ClientError) -> JobFailure {
        match e.code() {
            Some(code) => JobFailure::Rejected(code.to_string()),
            None => JobFailure::Other(e.to_string()),
        }
    }
}

/// Submit, wait, read the status, and check the result.
fn run_job(
    conn: &mut Client,
    sub: &Submission,
    tracer: &Tracer,
    job: u64,
    refs: &HashMap<String, String>,
) -> Result<JobRecord, JobFailure> {
    let root = tracer.span_with(spans::ROOT, &[("job", Json::from(job))]);
    let t0 = Instant::now();
    let (id, submit_s) = spans::timed(tracer, "serve.submit", job, || conn.submit(&sub.spec));
    let id = id?;
    let wait = || conn.wait(id, Duration::from_secs(60));
    let result = spans::timed(tracer, "serve.wait", job, wait).0?;
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let status = spans::timed(tracer, "serve.status", job, || conn.status(id)).0?;
    let checked = spans::timed(tracer, "check.result", job, || check_result(sub, &result, refs)).0;
    root.close();
    checked?;
    let field = |k: &str| status.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(JobRecord {
        key: sub.key.clone(),
        fingerprint: sub.spec.fingerprint(),
        latency_ms,
        submit_ms: submit_s * 1e3,
        queue_ms: field("queue_ms"),
        run_ms: field("run_ms"),
        hit: result.get("store").and_then(Json::as_str) == Some("hit"),
        traced: false,
        payload: digest(&payload(&result)),
        stats: result.get("stats").cloned(),
    })
}

/// The result must be a verified `done` whose protocol, renaming undone,
/// has the one-shot reference digest.
fn check_result(
    sub: &Submission,
    result: &Json,
    refs: &HashMap<String, String>,
) -> Result<(), JobFailure> {
    let bad = |m: String| Err(JobFailure::Other(m));
    if result.get("state").and_then(Json::as_str) != Some("done") {
        return bad(format!("job ended `{result}`"));
    }
    if result.get("verified").and_then(Json::as_bool) != Some(true) {
        return bad("the job's model check rejected the result".into());
    }
    let Some(protocol) = result.get("protocol").and_then(Json::as_str) else {
        return bad("result carries no protocol".into());
    };
    let got = digest(&sub.renaming.undo(protocol));
    match refs.get(&sub.key) {
        Some(want) if *want == got => Ok(()),
        Some(want) => bad(format!("digest {got}, one-shot reference {want}")),
        None => bad("no reference digest".into()),
    }
}

/// The result with its per-job fields removed, serialized.
fn payload(result: &Json) -> String {
    match result {
        Json::Obj(pairs) => {
            Json::Obj(pairs.iter().filter(|(k, _)| k != "id" && k != "store").cloned().collect())
                .to_string()
        }
        other => other.to_string(),
    }
}
