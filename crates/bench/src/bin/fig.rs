//! `fig` — regenerates any figure of the catalogue.
//!
//! ```text
//! cargo run --release -p bench --bin fig -- <name> [--quick | --paper] [--out PATH] ...
//! cargo run --release -p bench --bin fig -- all [--quick | --paper] [--out DIR]
//! cargo run --release -p bench --bin fig -- --list
//! ```
//!
//! `all` runs every job of every figure in sequence, teeing each one's
//! output into `DIR/<job>.txt` (default `results/`, so a repro run —
//! especially `--paper` — cannot clobber the committed default-mode
//! tables). The default scale takes a few minutes on a multicore
//! machine; `--paper` runs each point for the full 75,000 cycles of §4.3.

use bench::catalogue::FIGURES;
use bench::figure::{list, parse, usage, Args, Command, Figure, Run};
use std::path::Path;
use std::process::{exit, Command as Process};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&argv) {
        Ok(Command::List) => {
            print!("{}", list());
            Ok(())
        }
        Ok(Command::One(figure, args)) => run_one(figure, &args),
        Ok(Command::All(args)) => run_all(&args),
        Err(msg) => {
            eprint!("error: {msg}\n\n{}", usage());
            exit(2);
        }
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        exit(1);
    }
}

fn run_one(figure: &Figure, args: &Args) -> Result<(), String> {
    match figure.run {
        Run::Text(run) => run(args),
        Run::Table(run) => {
            let path = args.out.clone().unwrap_or_else(|| figure.default_out());
            let document = figure.document(args.scale, run(args));
            std::fs::write(&path, document).map_err(|e| format!("write {path}: {e}"))?;
            println!("\nwrote {path}");
        }
    }
    Ok(())
}

/// Runs each job as a child `fig` process, so a job's stdout is exactly
/// what `fig <name>` prints and a failed probe stops the run there.
fn run_all(args: &Args) -> Result<(), String> {
    let dir = Path::new(args.out.as_deref().unwrap_or("results"));
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate fig: {e}"))?;
    for figure in FIGURES {
        for job in figure.jobs {
            // "fig10" + ["--net", "4x4", ...] is job "fig10_4x4_uniform".
            let mut words = [&[figure.name], *job].concat();
            words.retain(|word| !word.starts_with("--"));
            let name = words.join("_");
            let mut child = Process::new(&exe);
            child.arg(figure.name).args(*job);
            child.args(args.scale.pick(Some("--quick"), None, Some("--paper")));
            if let Run::Table(_) = figure.run {
                child.arg("--out").arg(dir.join(figure.default_out()));
            }
            eprintln!("==> {name}");
            let output = child.output().map_err(|e| format!("spawn {name}: {e}"))?;
            if !output.status.success() {
                let stderr = String::from_utf8_lossy(&output.stderr);
                return Err(format!("{name} failed:\n{stderr}"));
            }
            let path = dir.join(format!("{name}.txt"));
            std::fs::write(&path, &output.stdout)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("    -> {}", path.display());
        }
    }
    eprintln!("\nAll figures regenerated under {}.", dir.display());
    Ok(())
}
