//! The `fig` command line refuses what it does not understand — exit
//! code 2, the reason and the usage (with the figure list) on stderr —
//! instead of panicking or silently running a default, and the job list
//! of `fig all` is checked against the catalogue it is part of.

use bench::catalogue::FIGURES;
use bench::figure::{list, parse, Command};
use std::process;

fn fig(args: &[&str]) -> process::Output {
    process::Command::new(env!("CARGO_BIN_EXE_fig"))
        .args(args)
        .output()
        .expect("run fig")
}

#[test]
fn bad_command_lines_exit_2_with_reason_and_usage() {
    for (args, reason) in [
        (&[][..], "no figure named"),
        (&["fig12"], "unknown figure fig12"),
        (&["fig08", "--fast"], "unknown flag --fast"),
        (&["fig08", "extra"], "unexpected argument extra"),
        (&["islip", "--out"], "--out needs a value"),
        (&["islip", "--out", "--quick"], "--out needs a value"),
        (&["bigtorus", "--threads", "2"], "unknown flag --threads"),
        (
            &["fig10", "--net", "16x16"],
            "--net 16x16: expected 4x4 or 8x8",
        ),
        (
            &["fig10", "--pattern", "foo"],
            "--pattern foo: expected uniform, bitrev or shuffle",
        ),
        (&["fig08", "--net", "4x4"], "fig08 does not take --net"),
        (&["fig09", "--out", "x.json"], "fig09 does not take --out"),
        (&["all", "--net", "4x4"], "all does not take --net"),
        (
            &["islip", "--quick", "--paper"],
            "--quick and --paper exclude each other",
        ),
    ] {
        let out = fig(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "fig {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "fig {args:?} printed to stdout");
        assert!(
            stderr.starts_with(&format!("error: {reason}\n")),
            "fig {args:?}: {stderr}"
        );
        assert!(
            stderr.contains("usage: fig <name>"),
            "fig {args:?}: {stderr}"
        );
        assert!(stderr.ends_with(&list()), "fig {args:?}: {stderr}");
    }
}

#[test]
fn list_and_every_job_of_fig_all_are_valid_command_lines() {
    let out = fig(&["--list"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), list());

    let mut jobs = Vec::new();
    for figure in FIGURES {
        assert_ne!(figure.name, "all", "`all` is the driver's own word");
        assert!(!figure.jobs.is_empty(), "{} would never run", figure.name);
        for job in figure.jobs {
            let argv: Vec<String> = [&[figure.name], *job]
                .concat()
                .iter()
                .map(|s| s.to_string())
                .collect();
            match parse(&argv) {
                Ok(Command::One(found, _)) => assert_eq!(found.name, figure.name),
                Ok(_) => panic!("{argv:?} is not a figure invocation"),
                Err(e) => panic!("{argv:?}: {e}"),
            }
            assert!(!jobs.contains(&argv), "{argv:?} listed twice");
            jobs.push(argv);
        }
    }
    assert_eq!(
        (FIGURES.len(), jobs.len()),
        (16, 19),
        "fig10 is four panels"
    );
}
