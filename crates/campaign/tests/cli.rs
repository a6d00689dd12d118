//! The `deterrent-campaign` binary's usage text, spawned as a process.

use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deterrent-campaign"))
        .args(args)
        .output()
        .expect("spawn deterrent-campaign")
}

/// Every flag the parser matches on: the `"--flag"` literals of its match
/// arms.
fn parsed_flags() -> Vec<&'static str> {
    let source = include_str!("../src/bin/deterrent_campaign.rs");
    let parser = &source[source.find("fn parse_args").expect("parser")..];
    let parser = &parser[..parser.find("\nfn ").expect("end of parser")];
    let mut flags: Vec<&str> = parser
        .lines()
        .filter(|line| line.contains("=>"))
        .flat_map(|line| line.split('"').skip(1).step_by(2))
        .filter(|token| token.starts_with('-'))
        .collect();
    flags.dedup();
    flags
}

#[test]
fn help_lists_every_parsed_flag_and_exits_zero() {
    let flags = parsed_flags();
    assert!(flags.len() >= 20, "found the parser's flags: {flags:?}");
    for arg in ["--help", "-h"] {
        let out = campaign(&[arg]);
        assert_eq!(out.status.code(), Some(0), "{arg}");
        let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(usage.starts_with("usage: deterrent-campaign"), "{usage}");
        for flag in &flags {
            assert!(usage.contains(flag), "{arg} does not list {flag}");
        }
    }
}

#[test]
fn unknown_flag_prints_the_usage_and_exits_two() {
    let help = campaign(&["--help"]).stdout;
    let help = String::from_utf8(help).expect("utf-8 usage");
    let out = campaign(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing on stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 error");
    assert!(stderr.starts_with("deterrent-campaign: unknown flag --bogus\n"));
    assert!(stderr.contains(&help), "{stderr}");
}
