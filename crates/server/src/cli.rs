//! Minimal `--name value` command-line helpers, shared by `svard-server`,
//! `svard-load` and (re-exported by `svard-bench`) every experiment bin.
//!
//! A flag that is present but does not parse is a usage error: the numeric
//! readers exit with status 2 and name the flag rather than fall back to the
//! default.

use std::str::FromStr;

/// Raw string value of `--name`, if present.
pub fn arg_string(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &format!("--{name}"))
        .and_then(|i| args.get(i + 1).cloned())
}

/// `--name value` parsed as `usize`, with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    or_exit(parse_arg(name, arg_string(name).as_deref(), default))
}

/// `--name value` parsed as `u64`, with a default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    or_exit(parse_arg(name, arg_string(name).as_deref(), default))
}

/// Parse the raw value of `--name`: `default` when absent, an error naming
/// the flag when present but unparsable.
pub fn parse_arg<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    raw.map_or(Ok(default), |v| parse_value(name, v))
}

fn parse_value<T: FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name}: cannot parse {value:?}"))
}

/// The value of a command-line result, or print its error and exit with
/// status 2 (a usage error).
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// A comma-separated `--name a,b,c` list, with a default.
pub fn arg_list(name: &str, default: &[&str]) -> Vec<String> {
    match arg_string(name) {
        Some(v) => v
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
        None => default.iter().map(|s| s.to_string()).collect(),
    }
}

/// [`arg_list`] with every element parsed; the first unparsable element is
/// an error naming the flag.
pub fn arg_list_parsed<T: FromStr>(name: &str, default: &[&str]) -> Result<Vec<T>, String> {
    arg_list(name, default)
        .iter()
        .map(|v| parse_value(name, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_fall_back_to_defaults() {
        assert_eq!(arg_usize("not-passed", 7), 7);
        assert_eq!(arg_u64("not-passed", 9), 9);
        assert!(!arg_flag("not-passed"));
        assert_eq!(arg_list("not-passed", &["a", "b"]), vec!["a", "b"]);
        assert_eq!(
            arg_list_parsed("not-passed", &["4", "16"]),
            Ok(vec![4_u64, 16])
        );
        assert!(arg_list_parsed::<u64>("not-passed", &["4", "x"]).is_err());
    }

    #[test]
    fn parse_arg_takes_the_default_only_when_absent() {
        assert_eq!(parse_arg("rows", None, 1024_usize), Ok(1024));
        assert_eq!(parse_arg("rows", Some("512"), 1024_usize), Ok(512));
        let err = parse_arg("rows", Some("abc"), 1024_usize).unwrap_err();
        assert!(err.contains("--rows") && err.contains("abc"), "{err}");
        assert!(parse_arg("seed", Some("-1"), 42_u64).is_err());
        assert!(parse_arg("zipf", Some("1.5"), 0.0_f64).is_ok());
    }
}
