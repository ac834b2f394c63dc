//! Strict command-line flags for the `serve`, `loadgen` and `memsync-top`
//! binaries. A binary declares its flags once, as its usage line:
//! `[--flag VALUE]` takes a value (`VALUE` names it or shows its default),
//! `[--switch]` does not. An unknown flag, a missing value or a value that
//! does not parse prints the usage line on stderr and exits 2, before the
//! binary binds or connects anything.

use std::fmt::Display;
use std::str::FromStr;

/// Longest poll interval, in milliseconds, that `memsync-top
/// --interval-ms` and `loadgen --stats-interval` accept. A poller is
/// quiet between polls, and the `serve` bin closes a connection that
/// stays quiet for 30 s; the margin covers a slow round trip.
const MAX_POLL_MS: u64 = 25_000;

/// One binary's parsed command line.
#[derive(Debug)]
pub struct Flags {
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses the process arguments against `usage`; exits 2 on anything
    /// it does not declare.
    pub fn parse(usage: &'static str) -> Flags {
        Flags::read(usage, std::env::args().skip(1)).unwrap_or_else(|e| exit_with(usage, &e))
    }

    fn read(usage: &'static str, args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            // Whether the usage line declares `flag`, and with a value.
            let declared = usage.split('[').skip(1).find_map(|item| {
                let mut words = item.split(']').next().unwrap_or("").split_whitespace();
                (words.next() == Some(flag.as_str())).then(|| words.next().is_some())
            });
            let value = match declared {
                None => return Err(format!("unknown argument {flag:?}")),
                Some(false) => None,
                Some(true) => match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("{flag} needs a value")),
                },
            };
            given.push((flag, value));
        }
        Ok(Flags { usage, given })
    }

    /// The value of `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The value of `flag` parsed as `T`, if it was given; exits 2 when
    /// it does not parse.
    pub fn parsed<T: FromStr<Err: Display>>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| match v.parse() {
            Ok(value) => value,
            Err(e) => self.fail(&format!("{flag} {v:?}: {e}")),
        })
    }

    /// The value of `flag` parsed as `T`, or `default` when absent.
    pub fn or<T: FromStr<Err: Display>>(&self, flag: &str, default: T) -> T {
        self.parsed(flag).unwrap_or(default)
    }

    /// The poll interval `flag` gives, in milliseconds, if it was given;
    /// exits 2 when it is 0, or 25,000 or more.
    pub fn poll_ms(&self, flag: &str) -> Option<u64> {
        let ms = self.parsed(flag)?;
        if !(1..MAX_POLL_MS).contains(&ms) {
            self.fail(&format!(
                "{flag} must be 1..{MAX_POLL_MS}: the server closes a connection quiet for 30 s"
            ));
        }
        Some(ms)
    }

    /// Prints `problem` and the usage line on stderr and exits 2.
    pub fn fail(&self, problem: &str) -> ! {
        exit_with(self.usage, problem)
    }
}

fn exit_with(usage: &str, problem: &str) -> ! {
    eprintln!("{problem}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Flags, String> {
        let usage = "usage: bin [--shards 4] [--verify]\n           \
                     [--org arbitrated|event-driven]\n       bin [--replay FILE [--slowest N]]";
        Flags::read(usage, args.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_the_usage_line_declares_parse() {
        let flags = parse("--verify --shards 8 --org event-driven").unwrap();
        assert!(flags.has("--verify"));
        assert_eq!(flags.or("--shards", 4usize), 8);
        assert_eq!(flags.value("--org"), Some("event-driven"));
        let flags = parse("--slowest 3 --replay f").unwrap();
        assert_eq!(
            (flags.value("--replay"), flags.or("--slowest", 5)),
            (Some("f"), 3)
        );
        assert!(parse("--shards 8 --verify").unwrap().has("--verify"));
        let flags = parse("").unwrap();
        assert!(!flags.has("--verify"));
        assert_eq!(flags.or("--shards", 4usize), 4);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_refused() {
        for (args, problem) in [
            ("--shard 8", "unknown argument \"--shard\""),
            ("8", "unknown argument \"8\""),
            ("N", "unknown argument \"N\""),
            ("usage:", "unknown argument \"usage:\""),
            ("bin", "unknown argument \"bin\""),
            ("4", "unknown argument \"4\""),
            ("--shards", "--shards needs a value"),
            ("--shards --verify", "--shards needs a value"),
        ] {
            assert_eq!(parse(args).unwrap_err(), problem, "{args}");
        }
    }
}
