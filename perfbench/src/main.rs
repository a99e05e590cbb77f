//! `perfbench`: run one benchmark workload (or all of them) and print its
//! metrics; see the library documentation for the command line.

use std::process::ExitCode;

use perfbench::{print_report, run_workload, Args, WORKLOADS};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for workload in workloads {
        match run_workload(workload, &args) {
            Ok(mut report) => print_report(workload, args.trace, &mut report),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
