//! One-shot synthesis workloads (`coloring-scan`, `matching-scc`): DSL
//! text → `JobSpec::from_dsl` → `validate` → `problem` → `run`, repeated
//! until the run's time is up, every result checked.

use crate::naming::{digest, input_text, Instance, Renaming};
use crate::spans::{self, Recorder};
use crate::stat::{median, peak_rss_mb, percentile, ratio, reset_peak_rss, SplitMix};
use crate::{Metric, Outcome};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use stsyn_bdd::ManagerStats;
use stsyn_core::job::JobSpec;
use stsyn_core::{AddConvergence, Options, SynthesisStats};
use stsyn_obs::{Json, Tracer};
use stsyn_protocol::{dsl, printer};
use stsyn_symbolic::check::try_self_stabilizing;
use stsyn_symbolic::SymbolicContext;

/// Set-up measurements taken before each timed repetition (their median
/// is `setup_s`).
const SETUP_PER_REP: usize = 4;

/// Timed repetitions made even when the run's seconds are up.
const MIN_REPS: u64 = 3;

/// The counters that must repeat exactly across repetitions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Deterministic([u64; 5]);

impl Deterministic {
    const NAMES: &'static str = "ticks, peak_live_nodes, cache_lookups, sccs_found, groups_added";

    fn of(s: &SynthesisStats, m: &ManagerStats) -> Deterministic {
        Deterministic([
            s.bdd_ticks,
            m.peak_live_nodes as u64,
            m.cache_lookups,
            s.sccs_found as u64,
            s.groups_added as u64,
        ])
    }
}

/// Everything one repetition measured.
struct Rep {
    job_s: f64,
    synth_s: f64,
    det: Deterministic,
    /// Layer timings and full statistics (traced runs only).
    detail: Option<Detail>,
}

struct Detail {
    traced: bool,
    parse_s: f64,
    encode_s: f64,
    verify_s: f64,
    emit_s: f64,
    stats: SynthesisStats,
    mgr: ManagerStats,
}

/// The input: canonical case-study text under the seed's renaming.
pub(crate) struct Input {
    key: String,
    text: String,
    renaming: Renaming,
}

impl Input {
    fn new(instance: &Instance, seed: u64) -> Input {
        let tag = crate::naming::tag(SplitMix::new(seed, 0).next_u64());
        let (text, renaming) = input_text(instance, Some(&tag));
        Input { key: instance.key(), text, renaming }
    }
}

/// Synthesize `instance` over and over for `seconds`.
///
/// A first, untimed repetition runs while the process is fresh and gives
/// `peak_rss_mb`: the peak of one synthesis, never one inherited from
/// earlier work or from allocator state earlier repetitions left behind,
/// and read before the benchmark's own re-verification adds its manager.
/// Timed repetitions follow, warm. Traced, they run through the calls
/// `JobSpec::run` is made of, alternating untraced and traced ones so the
/// tracing overhead is measured on the same machine state.
pub fn run(
    instance: &Instance,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
    refs: &HashMap<String, String>,
) -> Outcome {
    let input = Input::new(instance, seed);
    let mut out = Outcome::default();
    let expected = refs.get(&input.key).cloned();
    if expected.is_none() {
        out.fail(format!("no reference digest for `{}`", input.key));
    }

    out.attempted += 1;
    reset_peak_rss();
    // Untraced repetitions must repeat the first one's counters; traced
    // ones, which stop counting before verification, repeat each other's.
    let (mut expect_det, rss_mb) = match measure_run(&input, expected.as_deref()) {
        Ok((rep, rss_mb)) => (trace.is_none().then_some(rep.det), rss_mb),
        Err(e) => {
            out.fail(format!("repetition 0: {e}"));
            (None, 0.0)
        }
    };

    let recorder = trace.map(|_| Recorder::default());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup = Vec::new();
    let mut job = 0u64;
    while job < MIN_REPS || Instant::now() < deadline {
        job += 1;
        // Set-up takes a millisecond; sampling it between repetitions
        // spreads its samples over the whole run.
        for _ in 0..SETUP_PER_REP {
            let t = Instant::now();
            match set_up(&input.text) {
                Ok(()) => setup.push(t.elapsed().as_secs_f64()),
                Err(e) => out.fail(format!("set-up: {e}")),
            }
        }
        out.attempted += 1;
        let rep = match &recorder {
            None => measure_run(&input, expected.as_deref()).map(|(rep, _)| rep),
            Some(rec) => {
                let tracer =
                    if job.is_multiple_of(2) { rec.tracer().clone() } else { Tracer::disabled() };
                measure_decomposed(&input, expected.as_deref(), &tracer, job)
            }
        };
        match rep {
            Ok(rep) => {
                match &expect_det {
                    None => expect_det = Some(rep.det.clone()),
                    Some(want) if *want != rep.det => out.fail(format!(
                        "deterministic counters ({}) drifted on repetition {job}: {:?} vs {:?}",
                        Deterministic::NAMES,
                        rep.det.0,
                        want.0
                    )),
                    Some(_) => {}
                }
                reps.push(rep);
            }
            Err(e) => out.fail(format!("repetition {job}: {e}")),
        }
    }

    let job_s: Vec<f64> = reps.iter().map(|r| r.job_s).collect();
    let synth_s: Vec<f64> = reps.iter().map(|r| r.synth_s).collect();
    out.samples = reps.len();
    out.end_to_end = vec![
        Metric::new("synth_s", median(&synth_s), "s"),
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::new("jobs_per_s", ratio(job_s.len() as f64, job_s.iter().sum()), "1/s"),
        Metric::new("job_p50_ms", median(&job_s) * 1e3, "ms"),
        Metric::new("job_p95_ms", percentile(&job_s, 95.0) * 1e3, "ms"),
    ];

    if let (Some(rec), Some(path)) = (&recorder, trace) {
        out.per_layer = per_layer(&reps);
        match rec.write_and_reload(path).and_then(|records| spans::breakdown(&records)) {
            Ok(b) => out.breakdown = Some(b),
            Err(e) => out.fail(format!("trace: {e}")),
        }
    }
    out
}

/// Set-up before synthesis starts: parse, validate, build the problem,
/// and encode `p` and `I` symbolically.
fn set_up(text: &str) -> Result<(), String> {
    let spec = JobSpec::from_dsl(text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    let problem = spec.problem().map_err(|e| e.to_string())?;
    encode(&problem)
}

fn encode(problem: &AddConvergence) -> Result<(), String> {
    let mut ctx = SymbolicContext::new(problem.protocol().clone());
    ctx.try_compile(problem.invariant()).map_err(|e| e.to_string())?;
    ctx.try_protocol_relation().map_err(|e| e.to_string())?;
    Ok(())
}

/// One end-to-end repetition through `JobSpec::run`; also returns the
/// process's peak RSS in MiB as `run` left it, before the check below
/// builds a second manager.
fn measure_run(input: &Input, expected: Option<&str>) -> Result<(Rep, f64), String> {
    let t0 = Instant::now();
    let spec = JobSpec::from_dsl(&input.text).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut report = spec.run().map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let rss_mb = peak_rss_mb();
    if !report.verified {
        return Err("the job's model check rejected the result".into());
    }
    check_emitted(input, &report.emitted_dsl, expected)?;
    let mgr = report.outcome.ctx().mgr_ref().stats();
    let rep = Rep {
        job_s: (t2 - t0).as_secs_f64(),
        synth_s: (t2 - t1).as_secs_f64(),
        det: Deterministic::of(&report.outcome.stats, &mgr),
        detail: None,
    };
    Ok((rep, rss_mb))
}

/// One repetition through the public calls `JobSpec::run` is made of,
/// each in its own span, so the trace can attribute time to layers.
fn measure_decomposed(
    input: &Input,
    expected: Option<&str>,
    tracer: &Tracer,
    job: u64,
) -> Result<Rep, String> {
    let root = tracer.span_with(spans::ROOT, &[("job", Json::from(job))]);
    let t0 = Instant::now();
    let (spec, parse_s) = spans::timed(tracer, "protocol.parse", job, || {
        JobSpec::from_dsl(&input.text).map_err(|e| e.to_string())
    });
    let spec = spec?;
    spans::timed(tracer, "stsyn.validate", job, || spec.validate()).0.map_err(|e| e.to_string())?;
    let problem = spans::timed(tracer, "stsyn.problem", job, || spec.problem())
        .0
        .map_err(|e| e.to_string())?;
    let (encoded, encode_s) = spans::timed(tracer, "symbolic.encode", job, || encode(&problem));
    encoded?;
    let opts = Options { scc: spec.scc, engine: spec.engine, ..Options::default() };
    let (outcome, synth_s) = spans::timed(tracer, "stsyn.synthesize", job, || {
        problem.synthesize_with(&opts, spec.resolved_schedule(&problem))
    });
    let mut outcome = outcome.map_err(|e| e.to_string())?;
    let mgr = outcome.ctx().mgr_ref().stats();
    let (verified, verify_s) =
        spans::timed(tracer, "symbolic.verify", job, || outcome.try_verify_strong());
    if !verified.map_err(|e| e.to_string())? {
        return Err("the job's model check rejected the result".into());
    }
    let (emitted, emit_s) = spans::timed(tracer, "protocol.emit", job, || {
        printer::to_dsl(&format!("{}_SS", spec.name), &outcome.extract_protocol(), &spec.invariant)
    });
    let job_s = t0.elapsed().as_secs_f64();
    spans::timed(tracer, "check.result", job, || check_emitted(input, &emitted, expected)).0?;
    root.close();
    Ok(Rep {
        job_s,
        synth_s,
        det: Deterministic::of(&outcome.stats, &mgr),
        detail: Some(Detail {
            traced: tracer.enabled(),
            parse_s,
            encode_s,
            verify_s,
            emit_s,
            stats: outcome.stats.clone(),
            mgr,
        }),
    })
}

/// The emitted protocol must match the reference digest once the seed's
/// renaming is undone, and must re-parse and re-verify on a fresh
/// context (its own BDD manager, so the synthesizing manager's caches
/// cannot vouch for it).
pub(crate) fn check_emitted(
    input: &Input,
    emitted: &str,
    expected: Option<&str>,
) -> Result<(), String> {
    let canonical = input.renaming.undo(emitted);
    let got = digest(&canonical);
    match expected {
        Some(want) if want == got => {}
        Some(want) => {
            return Err(format!("digest of `{}` is {got}, reference {want}", input.key));
        }
        None => return Err(format!("no reference digest for `{}`", input.key)),
    }
    if !reverify(emitted, true)? {
        return Err("the emitted protocol does not re-verify on a fresh context".into());
    }
    Ok(())
}

/// Parse `text` and model-check (strong or weak) self-stabilization from
/// scratch.
pub fn reverify(text: &str, strong: bool) -> Result<bool, String> {
    let parsed = dsl::parse(text).map_err(|e| format!("emitted protocol does not parse: {e}"))?;
    let mut ctx = SymbolicContext::new(parsed.protocol);
    let i = ctx.try_compile(&parsed.invariant).map_err(|e| e.to_string())?;
    let rel = ctx.try_protocol_relation().map_err(|e| e.to_string())?;
    try_self_stabilizing(&mut ctx, rel, i, strong).map_err(|e| e.to_string())
}

/// The one-shot emitted protocol for `inst` under its canonical names:
/// what `reference.txt` records the digest of.
pub fn canonical_emitted(inst: &Instance) -> Result<String, String> {
    let (text, _) = input_text(inst, None);
    let mut spec = JobSpec::from_dsl(&text).map_err(|e| e.to_string())?;
    if inst.weak {
        spec.mode = stsyn_core::JobMode::Weak;
    }
    let report = spec.run().map_err(|e| e.to_string())?;
    if !report.verified || !reverify(&report.emitted_dsl, !inst.weak)? {
        return Err(format!("`{}` does not verify", inst.key()));
    }
    Ok(report.emitted_dsl)
}

fn per_layer(reps: &[Rep]) -> Vec<Metric> {
    let details: Vec<&Detail> = reps.iter().filter_map(|r| r.detail.as_ref()).collect();
    let med =
        |f: &dyn Fn(&Detail) -> f64| median(&details.iter().map(|d| f(d)).collect::<Vec<_>>());
    // The first repetition warms the allocator; it stays out of the
    // traced/untraced comparison.
    let jobs = |traced: bool| {
        reps.iter()
            .skip(1)
            .filter(|r| r.detail.as_ref().is_some_and(|d| d.traced == traced))
            .map(|r| r.job_s)
            .collect::<Vec<_>>()
    };
    let Some(last) = details.last() else { return Vec::new() };
    let s = &last.stats;
    let m = &last.mgr;
    let secs = |d: Duration| d.as_secs_f64();
    let parts = |d: &Detail| {
        let s = &d.stats;
        secs(s.ranking_time + s.scan_time + s.scc_time + s.include_time + s.deadlock_time)
    };
    vec![
        Metric::new("bdd.ticks", s.bdd_ticks as f64, "count"),
        Metric::new("bdd.cache_lookups", m.cache_lookups as f64, "count"),
        Metric::new("bdd.cache_hits", m.cache_hits as f64, "count"),
        Metric::new("bdd.cache_hit_ratio", m.cache_hit_rate(), "ratio"),
        Metric::new("bdd.peak_live_nodes", m.peak_live_nodes as f64, "count"),
        Metric::new("bdd.allocated_nodes", m.allocated_nodes as f64, "count"),
        Metric::new("bdd.gc_runs", m.gc_runs as f64, "count"),
        Metric::new("protocol.parse_s", med(&|d| d.parse_s), "s"),
        Metric::new("protocol.emit_s", med(&|d| d.emit_s), "s"),
        Metric::new("symbolic.encode_s", med(&|d| d.encode_s), "s"),
        Metric::new("symbolic.verify_s", med(&|d| d.verify_s), "s"),
        Metric::new("symbolic.max_rank", s.max_rank as f64, "count"),
        Metric::new("stsyn.ranking_s", med(&|d| secs(d.stats.ranking_time)), "s"),
        Metric::new("stsyn.scan_s", med(&|d| secs(d.stats.scan_time)), "s"),
        Metric::new("stsyn.include_s", med(&|d| secs(d.stats.include_time)), "s"),
        Metric::new("stsyn.deadlock_s", med(&|d| secs(d.stats.deadlock_time)), "s"),
        Metric::new("stsyn.scc_s", med(&|d| secs(d.stats.scc_time)), "s"),
        Metric::new(
            "stsyn.scc_ms_per_scc",
            med(&|d| ratio(secs(d.stats.scc_time) * 1e3, d.stats.sccs_found as f64)),
            "ms",
        ),
        Metric::new("stsyn.unattributed_s", med(&|d| secs(d.stats.total_time) - parts(d)), "s"),
        Metric::new("stsyn.candidates", s.candidates as f64, "count"),
        Metric::new("stsyn.groups_added", s.groups_added as f64, "count"),
        Metric::new(
            "stsyn.group_accept_ratio",
            ratio(s.groups_added as f64, s.candidates as f64),
            "ratio",
        ),
        Metric::new("stsyn.scc_calls", s.scc_calls as f64, "count"),
        Metric::new("stsyn.sccs_found", s.sccs_found as f64, "count"),
        Metric::new("stsyn.avg_scc_nodes", s.avg_scc_nodes(), "count"),
        Metric::new("stsyn.program_nodes", s.program_nodes as f64, "count"),
        Metric::new("obs.trace_overhead", (median(&jobs(true)) - median(&jobs(false))) * 1e3, "ms"),
    ]
}
