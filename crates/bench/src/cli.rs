//! Flag parsing shared by the harness binaries. A flag that takes a
//! value must have one, and a numeric value that does not parse, or
//! falls below the flag's minimum, is a usage error: never a silent
//! default. The same holds for the numeric `VANGUARD_*` environment
//! knobs (see [`check_env`]).

use std::fmt::Display;
use std::str::FromStr;
use vanguard_core::engine::{env_count, THREADS_ENV};

/// Checks the numeric environment knob every engine reads,
/// `VANGUARD_THREADS`: unset, or a positive integer. Harness binaries
/// call this first, so a malformed value exits 2 before anything runs
/// (the engine itself would panic on it).
///
/// # Errors
///
/// Names the variable and the rejected value.
pub fn check_env() -> Result<(), String> {
    env_count(THREADS_ENV).map(drop)
}

/// The value slot of flag `name`: `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Names the flag when it is the last argument (no value follows).
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => Ok(Some(v)),
        None => Err(format!("{name}: missing value")),
    }
}

/// Parses `value`, the value of `what`, as an integer no smaller than
/// `min`.
///
/// # Errors
///
/// Names `what` and the rejected value.
pub fn parse_at_least<T>(what: &str, value: &str, min: T) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display,
{
    match value.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("{what}: `{value}` is not an integer >= {min}")),
    }
}

/// The value of numeric flag `name`, if given, no smaller than `min`.
///
/// # Errors
///
/// A missing value, or one [`parse_at_least`] rejects.
pub fn numeric_flag<T>(args: &[String], name: &str, min: T) -> Result<Option<T>, String>
where
    T: FromStr + PartialOrd + Display,
{
    flag_value(args, name)?
        .map(|v| parse_at_least(name, v, min))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn numeric_flags_accept_only_integers_at_the_minimum() {
        let a = args(&["fig8", "--max-cycles", "1000"]);
        assert_eq!(numeric_flag(&a, "--max-cycles", 1u64), Ok(Some(1000)));
        assert_eq!(numeric_flag(&a, "--rounds", 1u64), Ok(None));
        for bad in [
            &["--max-cycles", "abc"][..],
            &["--max-cycles", "0"],
            &["--max-cycles", "-5"],
            &["--max-cycles", "1.5"],
            &["--max-cycles"],
            &["--max-cycles", "--quick"],
        ] {
            let err = numeric_flag(&args(bad), "--max-cycles", 1u64).unwrap_err();
            assert!(err.starts_with("--max-cycles:"), "{bad:?}: {err}");
        }
        assert_eq!(
            numeric_flag(&args(&["--seed", "0"]), "--seed", 0u64),
            Ok(Some(0))
        );
    }
}
