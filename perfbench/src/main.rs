//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload once and prints every metric by name with its unit,
//! then one JSON result object as the last line. See `README.md`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{compare, workload, Options, RUN_SECONDS};

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
            [--scale <f>] [--trace-out <spans.json>] [--append <set.jsonl>]
  perfbench --compare <setA.jsonl> <setB.jsonl>
workloads: twitter_feed sensors_upsert sensors_amax_rest sensors_amax_live";

struct Cli {
    options: Options,
    append: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut scale = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut append = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<f64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("--seed {value}: not a u64"))?)
            }
            "--seconds" => seconds = Some(number()?),
            "--scale" => scale = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--append" => append = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload::find(&workload).is_none() {
        return Err(format!("unknown workload '{workload}'"));
    }
    // The work of a run is proportional to --seconds: RUN_SECONDS is scale 1.
    let scale = scale.or(seconds.map(|s| s / RUN_SECONDS)).unwrap_or(1.0);
    Ok(Cli {
        options: Options {
            workload,
            seed: seed.unwrap_or(1),
            scale,
            trace: trace.unwrap_or(false),
            trace_out,
        },
        append,
    })
}

fn run_compare(a: &str, b: &str) -> Result<usize, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, flagged) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    println!("{flagged} metric(s) out of bound or unresolved");
    Ok(flagged)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => match run_compare(a, b) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&cli.options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &cli.append {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.set_line()));
        if let Err(e) = appended {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.human());
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
