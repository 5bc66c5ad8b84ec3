//! `bench` — the figure drivers of the BlobSeer reproduction.
//!
//! * `src/bin/fig3a.rs` … `src/bin/fig6b.rs` — one binary per figure of
//!   the paper's evaluation (§V); each prints the figure's series as an
//!   aligned table and as CSV. `src/bin/figures.rs` runs them all.
//! * `src/bin/ablations.rs` — the calibration sweeps: Fig. 3(b)'s HDFS
//!   point against placement stickiness, and Fig. 5's 250-appender point
//!   against the metadata-provider count and the version manager's
//!   service time, printed as figures in the same format.
//!
//! Timings of the live engine are `perf`'s job (`perf/`, see
//! `BENCHMARK.json`); these binaries print model outputs only.
#![forbid(unsafe_code)]

use experiments::Figure;

/// Prints a figure as table + CSV blocks, the common output format of the
/// `fig*` binaries.
pub fn print_figure(fig: &Figure) {
    println!("{}", fig.to_table());
    println!("--- CSV ---");
    println!("{}", fig.to_csv());
}

/// Reads the driver's command-line flags: entry `i` of the result says
/// whether `accepted[i]` was given. Any other argument prints a usage line
/// naming the accepted flags and exits with status 2, so a mistyped flag
/// never silently runs the default figure.
pub fn flags<const N: usize>(accepted: [&str; N]) -> [bool; N] {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    parse_flags(args, accepted).unwrap_or_else(|bad| {
        let usage: String = accepted.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("unknown argument {bad:?}");
        eprintln!("usage: {program}{usage}");
        std::process::exit(2)
    })
}

/// [`flags`] without the process: `Err` carries the first argument that is
/// not in `accepted`.
fn parse_flags<const N: usize>(
    args: impl IntoIterator<Item = String>,
    accepted: [&str; N],
) -> Result<[bool; N], String> {
    let mut given = [false; N];
    for arg in args {
        match accepted.iter().position(|&f| f == arg) {
            Some(i) => given[i] = true,
            None => return Err(arg),
        }
    }
    Ok(given)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse<const N: usize>(args: &[&str], accepted: [&str; N]) -> Result<[bool; N], String> {
        parse_flags(args.iter().map(|a| a.to_string()), accepted)
    }

    #[test]
    fn accepted_flags_are_reported_in_order() {
        assert_eq!(parse(&[], ["--quick", "--writes"]), Ok([false, false]));
        assert_eq!(
            parse(&["--writes", "--quick"], ["--quick", "--writes"]),
            Ok([true, true])
        );
        assert_eq!(
            parse(&["--writes"], ["--quick", "--writes"]),
            Ok([false, true])
        );
    }

    #[test]
    fn any_other_argument_is_an_error() {
        assert_eq!(
            parse(&["--quick", "--write"], ["--quick", "--writes"]),
            Err("--write".to_string())
        );
        assert_eq!(parse(&["--quick"], []), Err("--quick".to_string()));
    }
}
