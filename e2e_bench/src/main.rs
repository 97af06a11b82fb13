//! `pulse-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a report, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero
//! when a correctness check fails or the run panics.

use pulse_e2e_bench::alloc::CountingAlloc;
use pulse_e2e_bench::run::{run, Outcome};
use pulse_e2e_bench::workloads::{Workload, NAMES};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name)
        .ok_or(format!("unknown workload `{name}` (one of {})", NAMES.join(", ")))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Where a traced run leaves its spans: the cargo target directory.
fn spans_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir)
        .join("e2e_bench")
        .join(format!("spans-{}-seed{}.json", args.workload.name, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pulse-e2e-bench: {e}");
            eprintln!(
                "usage: pulse-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome =
        std::panic::catch_unwind(|| run(&args.workload, args.seed, args.seconds, args.trace));
    let o = match outcome {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            eprintln!("pulse-e2e-bench: {e}");
            Outcome { attempted: 1, failed: 1, ..Default::default() }
        }
        Err(_) => Outcome { attempted: 1, failed: 1, ..Default::default() },
    };
    for line in &o.lines {
        println!("{line}");
    }
    if let Some(spans) = &o.spans {
        let path = spans_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("pulse-e2e-bench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", o.json());
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
