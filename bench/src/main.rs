//! `perfbench`: see `hp_perfbench::cli::USAGE`.

use hp_perfbench::cli::{self, Command, RunOpts, USAGE};
use hp_perfbench::{compare, run, workloads};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::List) => {
            for w in &workloads::WORKLOADS {
                println!("{:<16} {}", w.name, w.why);
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(a, b)) => {
            let (a, b) = match (compare::load(&a), compare::load(&b)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let (table, violation) = compare::compare(&a, &b);
            print!("{table}");
            if violation {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Ok(Command::Run(opts)) => run_one(&opts),
    }
}

fn run_one(opts: &RunOpts) -> ExitCode {
    println!(
        "perfbench: {} seed {:#x}, {} timed rounds, host_cpus {}",
        opts.workload.name,
        opts.seed,
        opts.workload.rounds_for(opts.seconds),
        hp_par::available_parallelism()
    );
    let (report, spans) = run::run(opts);
    print!("{}", report.text());
    let name = opts.workload.name;
    let written = std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(opts.out.join(format!("{name}.json")), report.to_json()))
        .and_then(|()| {
            std::fs::write(
                opts.out.join(format!("{name}.spans.json")),
                spans.chrome_json(),
            )
        });
    if let Err(e) = written {
        eprintln!("error: writing to {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    for f in &report.failures {
        eprintln!("FAILED {f}");
    }
    println!("{}", report.result_line(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
