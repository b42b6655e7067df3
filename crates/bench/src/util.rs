//! Small helpers shared by the figure and `bench_*` binaries: table
//! printing and the one-flag command line.

/// Prints a header row followed by a separator.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join("\t"));
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with three decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Prints one data row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// The mode of a `bench_*` run from its arguments: `None` (the default run)
/// without any, the matching entry of `flags` for exactly one of them.
///
/// # Errors
///
/// The usage line, when there is more than one argument or an unknown one.
pub fn parse_mode(
    bin: &str,
    args: &[String],
    flags: &[&'static str],
) -> Result<Option<&'static str>, String> {
    let mode = match args {
        [] => Some(None),
        [arg] => flags.iter().find(|flag| *flag == arg).copied().map(Some),
        _ => None,
    };
    mode.ok_or_else(|| format!("usage: {bin} [{}]", flags.join(" | ")))
}

/// [`parse_mode`] over the process arguments; prints the usage line and
/// exits 2 on anything the binary does not understand.
pub fn mode_flag(bin: &str, flags: &[&'static str]) -> Option<&'static str> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_mode(bin, &args, flags).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// Ends the run of a `bench_*` bin whose artifact holds counts only. Under
/// `--check` (`check`) the regenerated `json` must equal the checked-in
/// `path` byte for byte — exit 1 otherwise — and nothing is written; the
/// default mode writes it.
pub fn check_or_write(check: bool, path: &str, json: &str) {
    if check {
        let checked_in =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        if checked_in != json {
            eprintln!("ERROR: the regenerated document differs from {path}:\n{json}");
            std::process::exit(1);
        }
        println!("check: the regenerated document equals {path} byte for byte");
    } else {
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// FNV-1a over the words, so a figure's pin names one value for many bits.
#[cfg(test)]
pub(crate) fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        (hash ^ word).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(4.6789), "4.7");
        assert_eq!(f3(2.0), "2.000");
    }

    #[test]
    fn modes_are_the_default_or_one_known_flag() {
        let flags = ["--smoke", "--check"];
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_mode("bench_x", &args, &flags)
        };
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--check"]), Ok(Some("--check")));
        let usage = Err("usage: bench_x [--smoke | --check]".to_string());
        assert_eq!(parse(&["--smok"]), usage);
        assert_eq!(parse(&["2000"]), usage, "no positional shapes");
        assert_eq!(parse(&["--smoke", "--check"]), usage);
    }
}
