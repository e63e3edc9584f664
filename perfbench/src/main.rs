//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Prints a metric table on
//! stderr and, as the last line of stdout, one JSON result object.

use std::process::ExitCode;

use ceh_perfbench::report::{END_TO_END, PER_LAYER};
use ceh_perfbench::workloads::{self, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = val()?;
                workload = Some(workloads::by_name(name).ok_or_else(|| {
                    let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mut opts = Options::new(workload.ok_or("--workload is required")?);
    opts.seed = seed;
    opts.seconds = seconds;
    opts.trace = trace;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match workloads::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", opts.workload.name);
            return ExitCode::from(3);
        }
    };
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}): attempted {}, failed {}",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        out.attempted,
        out.failed
    );
    eprint!("{}", out.table(catalog));
    for n in &out.notes {
        eprintln!("perfbench: FAIL: {n}");
    }
    println!("{}", out.json(catalog));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
