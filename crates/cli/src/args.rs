//! Hand-rolled `--key value` argument parsing.

use std::collections::BTreeMap;

use crate::CliError;

/// Parsed `--key value` arguments plus bare flags (`--verify`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses a raw argv slice.
    ///
    /// A token starting with `--` that is followed by another `--` token (or
    /// nothing) is a bare flag; otherwise it consumes the next token as its
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for tokens that are not `--`-prefixed or
    /// for duplicate keys.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!("expected `--key`, got `{token}`")));
            };
            if key.is_empty() {
                return Err(CliError::Usage("empty flag `--`".into()));
            }
            let next_is_value = argv.get(i + 1).is_some_and(|n| !n.starts_with("--"));
            if next_is_value {
                if args
                    .values
                    .insert(key.to_string(), argv[i + 1].clone())
                    .is_some()
                {
                    return Err(CliError::Usage(format!("duplicate key `--{key}`")));
                }
                i += 2;
            } else {
                if args.flags.contains(&key.to_string()) {
                    return Err(CliError::Usage(format!("duplicate flag `--{key}`")));
                }
                args.flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(args)
    }

    /// A required string value.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if missing.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required `--{key}`")))
    }

    /// An optional string value.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required integer value.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if missing or unparsable.
    pub fn required_u64(&self, key: &str) -> Result<u64, CliError> {
        self.required(key)?
            .parse::<u64>()
            .map_err(|_| CliError::Usage(format!("`--{key}` must be a positive integer")))
    }

    /// An optional integer value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if present but unparsable.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.optional(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| CliError::Usage(format!("`--{key}` must be a positive integer"))),
        }
    }

    /// `--threads`, at least 1.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if unparsable or zero.
    pub fn threads(&self, default: u64) -> Result<usize, CliError> {
        match self.u64_or("threads", default)? {
            0 => Err(CliError::Usage("`--threads` must be at least 1".into())),
            threads => Ok(threads as usize),
        }
    }

    /// `--budget-log2`, the log2 of a MAC budget: at least `min` (2 admits
    /// the smallest array, 2×2) and at most 63, the largest `u64` power.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if unparsable or out of range.
    pub fn budget_log2(&self, default: u32, min: u32) -> Result<u32, CliError> {
        match self.u64_or("budget-log2", default.into())? {
            log2 if (u64::from(min)..=63).contains(&log2) => Ok(log2 as u32),
            log2 => Err(CliError::Usage(format!(
                "`--budget-log2` must be in {min}..=63 (got {log2})"
            ))),
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects keys/flags outside the allowed set (typo protection).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] naming the first unknown argument.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), CliError> {
        for key in self.values.keys().chain(self.flags.iter()) {
            if !allowed.contains(&key.as_str()) {
                return Err(CliError::Usage(format!("unknown argument `--{key}`")));
            }
        }
        Ok(())
    }
}

/// Parses a `M,N,K;M,N,K;...` workload list.
///
/// # Errors
///
/// Returns [`CliError::Usage`] on malformed input.
pub fn parse_workloads(spec: &str) -> Result<Vec<(u64, u64, u64)>, CliError> {
    spec.split(';')
        .map(|triple| {
            let parts: Vec<&str> = triple.split(',').collect();
            if parts.len() != 3 {
                return Err(CliError::Usage(format!(
                    "workload `{triple}` must be M,N,K"
                )));
            }
            let mut dims = [0u64; 3];
            for (d, p) in dims.iter_mut().zip(&parts) {
                *d = p
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("bad dimension `{p}`")))?;
            }
            Ok((dims[0], dims[1], dims[2]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn parses_keys_and_flags() {
        let a = Args::parse(&argv(&["--m", "64", "--verify", "--n", "32"])).unwrap();
        assert_eq!(a.required_u64("m").unwrap(), 64);
        assert_eq!(a.required_u64("n").unwrap(), 32);
        assert!(a.flag("verify"));
        assert!(!a.flag("other"));
    }

    #[test]
    fn rejects_bare_values_and_duplicates() {
        assert!(Args::parse(&argv(&["m", "64"])).is_err());
        assert!(Args::parse(&argv(&["--m", "1", "--m", "2"])).is_err());
        assert!(Args::parse(&argv(&["--verify", "--verify"])).is_err());
    }

    #[test]
    fn required_and_defaults() {
        let a = Args::parse(&argv(&["--m", "7"])).unwrap();
        assert!(a.required("missing").is_err());
        assert_eq!(a.u64_or("epochs", 15).unwrap(), 15);
        assert!(a.required_u64("m").is_ok());
        let a = Args::parse(&argv(&["--m", "abc"])).unwrap();
        assert!(a.required_u64("m").is_err());
    }

    #[test]
    fn threads_and_budgets_are_range_checked() {
        let a = Args::parse(&argv(&["--threads", "0", "--budget-log2", "64"])).unwrap();
        assert!(a.threads(1).is_err());
        assert!(a.budget_log2(15, 2).is_err());
        let a = Args::parse(&argv(&["--threads", "3", "--budget-log2", "4"])).unwrap();
        assert_eq!(a.threads(1).unwrap(), 3);
        assert_eq!(a.budget_log2(15, 2).unwrap(), 4);
        assert!(a.budget_log2(15, 5).is_err());
        let a = Args::parse(&argv(&[])).unwrap();
        assert_eq!(
            (a.threads(4).unwrap(), a.budget_log2(18, 2).unwrap()),
            (4, 18)
        );
    }

    #[test]
    fn expect_only_catches_typos() {
        let a = Args::parse(&argv(&["--m", "1", "--bogus", "2"])).unwrap();
        assert!(a.expect_only(&["m"]).is_err());
        assert!(a.expect_only(&["m", "bogus"]).is_ok());
    }

    #[test]
    fn workload_list_parsing() {
        let wls = parse_workloads("1,2,3;4,5,6").unwrap();
        assert_eq!(wls, vec![(1, 2, 3), (4, 5, 6)]);
        assert!(parse_workloads("1,2").is_err());
        assert!(parse_workloads("a,b,c").is_err());
    }
}
