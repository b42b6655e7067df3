//! Small helpers shared by the figure binaries: table printing.

/// Prints a header row followed by a separator.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join("\t"));
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Prints one data row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
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
    }
}
