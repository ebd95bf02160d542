//! The stsyn repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload coloring-scan --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root; it drives the system only through
//! public entry points (`JobSpec::from_dsl` → `validate` → `problem` →
//! `run` one-shot, and `Client::submit`/`wait`/`status` against an
//! in-process `Server`). Three workloads stress different layers:
//!
//! * `coloring-scan` — strong synthesis of three-coloring on a 10-ring.
//!   Candidate scan plus group inclusion are ~75% of synthesis and no
//!   SCC is ever found, so BDD-predicate and cache/memory changes show
//!   here and SCC changes should not move it.
//! * `matching-scc` — strong synthesis of maximal matching on a 6-ring.
//!   SCC decomposition is ~70% of synthesis (486 SCCs), so SCC narrowing
//!   shows here and BDD-predicate changes should barely move it.
//! * `service-mix` — a closed loop of one client against an in-process
//!   daemon (one worker, store on, fresh state per run). Jobs are weak
//!   synthesis of small case studies, 7 to ~60 ms each, a quarter of
//!   them exact resubmits the store answers, so the serve, queue and
//!   store layers and durable writes are a large share of each job. Weak
//!   synthesis is ranking only, so scan and SCC changes should not move
//!   it; durable-I/O and admission changes should move only it.
//!
//! The seed picks the inputs: for the one-shot workloads a renaming of
//! every identifier (same work, different text), for `service-mix` the
//! order of instances, their renamings and which jobs are resubmitted
//! (the share of each instance and of resubmits is fixed). On a 2-core machine whose
//! second core and disk speed come and go, one busy thread at a time
//! keeps run-to-run spread near that of the one-shot workloads; [`mix`]
//! lists the other choices made for steadiness.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-runs the
//! workload with the benchmark's own spans around its calls into each
//! layer and prints the per-layer metrics plus a self-time breakdown
//! whose layers add up to the traced total. Every run checks every
//! result against `reference.txt`, and the deterministic BDD/SCC
//! counters must repeat exactly; a failed check is counted, never
//! averaged away.

pub mod mix;
pub mod naming;
pub mod spans;
pub mod stat;
pub mod synth;

use naming::Instance;
use spans::Breakdown;
use std::collections::HashMap;
use std::path::Path;
use stsyn_obs::Json;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// End-to-end metrics, printed on every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("synth_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
];

/// Per-layer metrics, printed on every `--trace 1` run (0 where the
/// workload does not exercise or expose the layer).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("bdd.ticks", "count"),
    ("bdd.cache_lookups", "count"),
    ("bdd.cache_hits", "count"),
    ("bdd.cache_hit_ratio", "ratio"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.allocated_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("protocol.parse_s", "s"),
    ("protocol.emit_s", "s"),
    ("symbolic.encode_s", "s"),
    ("symbolic.verify_s", "s"),
    ("symbolic.max_rank", "count"),
    ("stsyn.ranking_s", "s"),
    ("stsyn.scan_s", "s"),
    ("stsyn.include_s", "s"),
    ("stsyn.deadlock_s", "s"),
    ("stsyn.scc_s", "s"),
    ("stsyn.scc_ms_per_scc", "ms"),
    ("stsyn.unattributed_s", "s"),
    ("stsyn.candidates", "count"),
    ("stsyn.groups_added", "count"),
    ("stsyn.group_accept_ratio", "ratio"),
    ("stsyn.scc_calls", "count"),
    ("stsyn.sccs_found", "count"),
    ("stsyn.avg_scc_nodes", "count"),
    ("stsyn.program_nodes", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.worker_busy_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.busy_rejects", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.hit_p50_ms", "ms"),
    ("store.cold_p50_ms", "ms"),
    ("obs.trace_overhead", "ms"),
    ("trace.total_ms", "ms"),
    ("trace.protocol_ms", "ms"),
    ("trace.stsyn_ms", "ms"),
    ("trace.symbolic_ms", "ms"),
    ("trace.serve_ms", "ms"),
    ("trace.check_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.jobs", "count"),
];

/// What one run measured and how its checks went.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (synthesis repetitions or service jobs).
    pub attempted: u64,
    /// Failed checks and operations.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Timed samples behind the medians.
    pub samples: usize,
    /// End-to-end metrics except `ok_frac` (derived from the counts).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Self time per layer (traced runs only).
    pub breakdown: Option<Breakdown>,
}

impl Outcome {
    /// Record a failure.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Share of attempted operations that completed and passed.
    pub fn ok_frac(&self) -> f64 {
        stat::ratio(self.attempted.saturating_sub(self.failed) as f64, self.attempted as f64)
    }

    /// The metrics the result line carries: every end-to-end metric, or
    /// with `traced` every per-layer one, in `BENCHMARK.json` order.
    pub fn metrics(&self, traced: bool) -> Vec<Metric> {
        let mut have: HashMap<&str, f64> = HashMap::new();
        if traced {
            for m in &self.per_layer {
                have.insert(&m.name, m.value);
            }
            if let Some(b) = &self.breakdown {
                have.insert("trace.total_ms", b.total_per_job_ms());
                have.insert("trace.jobs", b.jobs as f64);
                for (layer, name) in spans::LAYERS.iter().zip(BREAKDOWN_NAMES) {
                    have.insert(name, b.per_job_ms(layer));
                }
            }
        } else {
            for m in &self.end_to_end {
                have.insert(&m.name, m.value);
            }
            have.insert("ok_frac", self.ok_frac());
        }
        let table: &[(&str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: have.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// The last line of a run's output.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = self
            .metrics(traced)
            .into_iter()
            .map(|m| {
                (m.name, Json::obj(vec![("value", Json::Num(m.value)), ("unit", m.unit.into())]))
            })
            .collect();
        Json::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Per-layer metric name of each breakdown layer, aligned with
/// [`spans::LAYERS`].
const BREAKDOWN_NAMES: [&str; 6] = [
    "trace.protocol_ms",
    "trace.stsyn_ms",
    "trace.symbolic_ms",
    "trace.serve_ms",
    "trace.check_ms",
    "trace.unattributed_ms",
];

/// A workload and its sizing.
#[derive(Debug, Clone)]
pub enum Workload {
    /// One-shot synthesis of one instance, repeated.
    Synth(Instance),
    /// The service mix over a pool of instances.
    Mix(Vec<Instance>),
}

/// Where runs keep daemon state and traces, relative to the repository
/// root the benchmark runs from.
pub const STATE_ROOT: &str = ".bench_state";

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["coloring-scan", "matching-scc", "service-mix"];

/// Instances `service-mix` draws fresh submissions from: small case
/// studies, each 7 to ~60 ms of synthesis. They are weak-convergence
/// jobs, which the daemon does not journal: a strong job fsyncs its
/// checkpoint journal once per accepted recovery group, which on the
/// disks this was sized on made throughput follow the disk's erratic
/// fsync latency instead of the service.
pub fn mix_pool() -> Vec<Instance> {
    [
        ("matching", 7, 0),
        ("coloring", 12, 0),
        ("two_ring", 2, 3),
        ("two_ring", 3, 3),
        ("coloring", 16, 0),
    ]
    .into_iter()
    .map(|(case, n, d)| Instance { weak: true, ..Instance::new(case, n, d) })
    .collect()
}

/// The full-size workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "coloring-scan" => Some(Workload::Synth(Instance::new("coloring", 10, 0))),
        "matching-scc" => Some(Workload::Synth(Instance::new("matching", 6, 0))),
        "service-mix" => Some(Workload::Mix(mix_pool())),
        _ => None,
    }
}

/// Every instance whose emitted protocol `reference.txt` records.
pub fn reference_instances() -> Vec<Instance> {
    let mut all = vec![
        Instance::new("coloring", 10, 0),
        Instance::new("matching", 6, 0),
        Instance::new("coloring", 5, 0),
        Instance::new("matching", 5, 0),
    ];
    for inst in mix_pool() {
        if !all.contains(&inst) {
            all.push(inst);
        }
    }
    all
}

/// Run `w` for `seconds`; with `trace`, record spans and write them to
/// that NDJSON file.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
    refs: &HashMap<String, String>,
) -> Outcome {
    match w {
        Workload::Synth(inst) => synth::run(inst, seed, seconds, trace, refs),
        Workload::Mix(pool) => mix::run(pool, seed, seconds, trace, refs, Path::new(STATE_ROOT)),
    }
}
