//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload once and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Progress and a
//! readable report go to standard error. Exits 1 when any answer or
//! structural check was wrong, 2 on a usage error.

use servebench::run::{self, Options};
use servebench::{inputs, END_TO_END, PER_LAYER, REPORTED};

const USAGE: &str =
    "usage: servebench --workload <cub_paper|tiny_wire|durable_churn> --seed <n> --seconds <s> --trace <0|1>";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut options = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage_error(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    inputs::workload(&value)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload `{value}`"))),
                );
            }
            "--seed" => {
                options.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad seed `{value}`")));
            }
            "--seconds" => {
                options.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage_error(&format!("bad seconds `{value}`")));
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error(&format!("bad trace `{value}`")),
                };
            }
            _ => usage_error(&format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    let report = run::run(&workload, &options, &run::state_dir());
    for (name, value) in &report.metrics {
        let unit = END_TO_END
            .iter()
            .chain(REPORTED)
            .chain(PER_LAYER)
            .find(|(n, _)| n == name)
            .map_or("", |(_, unit)| unit);
        eprintln!("servebench: {} {name} = {value} {unit}", workload.name);
    }
    println!("{}", report.to_json(options.trace));
    if !report.correct {
        std::process::exit(1);
    }
}
