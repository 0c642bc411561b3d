//! `ddc` — an interactive shell / batch runner for Dynamic Data Cubes.
//!
//! ```text
//! ddc                 # interactive REPL on stdin
//! ddc script.ddc …    # execute one or more scripts, then exit
//! ```

use std::io::{BufRead, Write};

use ddc_cli::{Output, Session};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `ddc model …` is the concurrency model checker; only binaries
    // built with `--features model` carry it.
    if args.first().map(String::as_str) == Some("model") {
        #[cfg(feature = "model")]
        match ddc_cli::model::run(&args[1..]) {
            Ok(report) => {
                println!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("ddc model: {e}");
                std::process::exit(1);
            }
        }
        #[cfg(not(feature = "model"))]
        {
            eprintln!(
                "ddc model: built without the `model` feature; rebuild with \
                 `cargo build -p ddc-cli --features model`"
            );
            std::process::exit(1);
        }
    }

    // `ddc check …` is the differential-fuzzing harness, `ddc lint`
    // the repo-invariant analyzer, `ddc wal …` the log-recovery
    // tooling, `ddc stats` the metrics dump, and `ddc serve` the
    // network front end — subcommands, not scripts.
    for (name, runner) in [
        (
            "check",
            ddc_cli::check::run as fn(&[String]) -> Result<String, String>,
        ),
        ("lint", ddc_cli::lint::run),
        ("wal", ddc_cli::wal::run),
        ("stats", ddc_cli::stats::run),
        ("serve", ddc_cli::serve::run),
    ] {
        if args.first().map(String::as_str) == Some(name) {
            match runner(&args[1..]) {
                Ok(report) => {
                    println!("{report}");
                    return;
                }
                Err(e) => {
                    eprintln!("ddc {name}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    let mut session = Session::new();

    if !args.is_empty() {
        for path in &args {
            let script = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ddc: cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            for (no, line) in script.lines().enumerate() {
                match session.execute_line(line) {
                    Ok(Output::Text(t)) => println!("{t}"),
                    Ok(Output::Quit) => return,
                    Ok(Output::Silent) => {}
                    Err(e) => {
                        eprintln!("ddc: {path}:{}: {e}", no + 1);
                        std::process::exit(1);
                    }
                }
            }
        }
        return;
    }

    println!("ddc — Dynamic Data Cube shell (type 'help')");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("ddc> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("ddc: {e}");
                break;
            }
        }
        match session.execute_line(&line) {
            Ok(Output::Text(t)) => println!("{t}"),
            Ok(Output::Quit) => break,
            Ok(Output::Silent) => {}
            Err(e) => println!("error: {e}"),
        }
    }
}
