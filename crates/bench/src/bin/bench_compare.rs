//! Bench-regression gate: `bench_compare <baseline.json> <fresh.json>`
//! exits nonzero when a gated field of the fresh artifact regressed more
//! than 25% (the gates are listed in `heterog_bench::compare`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, fresh] = args.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let passed = heterog_bench::compare::run(baseline, fresh).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        false
    });
    ExitCode::from(u8::from(!passed))
}
