//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints each metric by name with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any check failed, 2 on bad
//! arguments. `perfbench --emit-references` prints `reference.txt`
//! afresh (one-shot runs under canonical names).

use std::path::PathBuf;
use std::process::ExitCode;
use stsyn_perfbench::{naming, synth, workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       perfbench --emit-references",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn emit_references() -> ExitCode {
    println!("# FNV-1a 64 digests of the one-shot emitted protocols under canonical");
    println!("# names. Regenerate with `perfbench --emit-references` only when the");
    println!("# synthesized output is meant to change.");
    for inst in stsyn_perfbench::reference_instances() {
        let t = std::time::Instant::now();
        match synth::canonical_emitted(&inst) {
            Ok(text) => {
                println!("{} {}", inst.key(), naming::digest(&text));
                eprintln!("{:<24} {:>9.1} ms", inst.key(), t.elapsed().as_secs_f64() * 1e3);
            }
            Err(e) => {
                eprintln!("{}: {e}", inst.key());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--emit-references") {
        return emit_references();
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(w) = workload(&args.workload) else {
        return usage(&format!("unknown workload `{}`", args.workload));
    };
    let trace_path = args.trace.then(|| {
        PathBuf::from(stsyn_perfbench::STATE_ROOT).join(format!("trace-{}.ndjson", args.workload))
    });
    let refs = naming::references();
    let out = stsyn_perfbench::run(&w, args.seed, args.seconds, trace_path.as_deref(), &refs);

    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("workload {} seed {} samples {}", args.workload, args.seed, out.samples);
    for m in out.metrics(args.trace) {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let (Some(b), Some(p)) = (&out.breakdown, &trace_path) {
        println!("self time per layer (trace: {})", p.display());
        print!("{}", b.render());
    }
    println!("{}", out.result_line(args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
