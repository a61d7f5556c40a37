//! Hardened environment-knob parsing.
//!
//! Every `SRAPS_*` environment variable used to be read through ad-hoc
//! `var(..).ok().and_then(|v| v.parse().ok())` chains, which silently
//! fall back to the default when the value is malformed — a typo like
//! `SRAPS_CLAIM_TTL_MS=30s` would quietly run with a 30 *second* TTL
//! instead of failing. These helpers make a set-but-malformed knob a
//! [`SrapsError::Config`] at startup: unset stays `None`, well-formed
//! parses, anything else is an error naming the variable and the value.

use crate::error::{Result, SrapsError};
use std::str::FromStr;

/// Read and parse the environment variable `var` as a `T`.
///
/// * unset ⇒ `Ok(None)`
/// * set and parseable ⇒ `Ok(Some(value))`
/// * set but malformed (or not unicode) ⇒ `Err(SrapsError::Config)`
pub fn parse_env<T: FromStr>(var: &str) -> Result<Option<T>> {
    parse_env_value(var, string_env(var)?.as_deref())
}

/// Read `var` as a plain string. Unset ⇒ `None`; set but not unicode is
/// a config error (the silent-skip `std::env::var(..).ok()` would hide).
pub fn string_env(var: &str) -> Result<Option<String>> {
    match std::env::var(var) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(SrapsError::Config(format!(
            "environment variable {var} is not valid unicode: {raw:?}"
        ))),
    }
}

/// The pure core of [`parse_env`]: parse an already-read value. Split
/// out so unit tests exercise every branch without mutating the process
/// environment (which races parallel tests).
pub fn parse_env_value<T: FromStr>(var: &str, value: Option<&str>) -> Result<Option<T>> {
    match value {
        None => Ok(None),
        Some(raw) => raw.trim().parse::<T>().map(Some).map_err(|_| {
            SrapsError::Config(format!(
                "environment variable {var} has malformed value {raw:?} \
                 (expected {})",
                std::any::type_name::<T>()
            ))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unset_is_none() {
        assert_eq!(parse_env_value::<u64>("X", None).unwrap(), None);
        assert_eq!(
            parse_env::<u64>("SRAPS_TEST_KNOB_THAT_IS_NEVER_SET").unwrap(),
            None
        );
    }

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(parse_env_value::<u64>("X", Some("250")).unwrap(), Some(250));
        assert_eq!(
            parse_env_value::<u64>("X", Some("  42 ")).unwrap(),
            Some(42),
            "surrounding whitespace is tolerated"
        );
        assert_eq!(parse_env_value::<f64>("X", Some("0.5")).unwrap(), Some(0.5));
    }

    #[test]
    fn malformed_values_are_config_errors_naming_the_variable() {
        for bad in ["30s", "", "0x10", "12.5", "-1"] {
            let err = parse_env_value::<u64>("SRAPS_CLAIM_TTL_MS", Some(bad)).unwrap_err();
            match err {
                SrapsError::Config(msg) => {
                    assert!(
                        msg.contains("SRAPS_CLAIM_TTL_MS") && msg.contains(bad.trim()),
                        "error must name variable and value: {msg}"
                    );
                }
                other => panic!("expected Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn ms_helper_wraps_in_duration() {
        let d = parse_env_value::<u64>("X", Some("75"))
            .unwrap()
            .map(Duration::from_millis);
        assert_eq!(d, Some(Duration::from_millis(75)));
    }
}
