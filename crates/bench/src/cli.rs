//! The one command-line parser behind every `pbm-bench` binary.
//!
//! A binary declares the flags it takes — `--name` switches and `--name=`
//! settings — and [`Flags::parse`] checks every argument against that list
//! once, before any work starts. An unknown or misspelt flag, a flag the
//! command does not take, a setting without its value, or (through the typed
//! getters) a malformed value is a [`CliError`]; [`or_exit`] prints it as
//! `error: …` and exits with status 2.

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A command-line mistake, printed as `error: <message>`.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The process arguments after the program name.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Unwraps `result`, or prints its error and exits with status 2.
pub fn or_exit<T>(result: Result<T, CliError>) -> T {
    result.unwrap_or_else(|e| die(&e.0))
}

/// Prints `error: <msg>` and exits with status 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Writes `contents` to `path`, or dies with `cannot write <path>: …`.
pub fn write_or_die(path: &Path, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
}

/// The flags one command was given, checked against the flags it takes.
///
/// Names are spelt as declared: `"--quick"` for a switch, `"--jobs="` for a
/// setting. A setting given twice keeps both values; [`Flags::value`]
/// reads the last, [`Flags::values`] all of them.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(String, String)>,
}

impl Flags {
    /// Checks every argument of `command` against `takes`.
    pub fn parse(command: &str, takes: &[&str], args: &[String]) -> Result<Flags, CliError> {
        let mut given = Vec::new();
        for arg in args {
            let (name, value) = match arg.split_once('=') {
                Some((flag, value)) => (format!("{flag}="), value),
                None => (arg.clone(), ""),
            };
            if takes.contains(&name.as_str()) {
                given.push((name, value.to_string()));
                continue;
            }
            let bare = name.trim_end_matches('=');
            let msg = if name == *arg && takes.contains(&format!("{arg}=").as_str()) {
                format!("{arg} needs a value ({arg}=…)")
            } else if name != *arg && takes.contains(&bare) {
                format!("{bare} takes no value")
            } else {
                format!(
                    "{command} does not take {arg:?} (it takes {})",
                    takes.join(" ")
                )
            };
            return Err(CliError(msg));
        }
        Ok(Flags { given })
    }

    /// True if the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The last value given for the setting `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for the setting `name`, in order.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The setting `name` parsed as a `T`; `what` describes a valid value.
    pub fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError(format!("{} takes {what}, got {v:?}", flag(name))))
            })
            .transpose()
    }

    /// The setting `name` as a positive `what` (a worker count, a cycle
    /// count, …).
    pub fn positive<T: FromStr + Default + PartialOrd>(
        &self,
        name: &str,
        what: &str,
    ) -> Result<Option<T>, CliError> {
        let what = format!("a positive {what}");
        match self.parsed::<T>(name, &what)? {
            Some(n) if n <= T::default() => Err(CliError(format!(
                "{} takes {what}, got {:?}",
                flag(name),
                self.value(name).unwrap_or_default()
            ))),
            n => Ok(n),
        }
    }

    /// The setting `name` as a file or directory path, which may not be
    /// empty.
    pub fn path(&self, name: &str) -> Result<Option<PathBuf>, CliError> {
        match self.value(name) {
            Some("") => Err(CliError(format!("{} requires a path", flag(name)))),
            v => Ok(v.map(PathBuf::from)),
        }
    }
}

/// A flag's name without the `=` of a setting, for messages.
fn flag(name: &str) -> &str {
    name.trim_end_matches('=')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_setting_keeps_every_value() {
        let args = ["--tag=a", "--tag=b"].map(String::from);
        let f = Flags::parse("cmd", &["--tag="], &args).expect("valid");
        assert_eq!(f.value("--tag="), Some("b"));
        assert_eq!(f.values("--tag=").collect::<Vec<_>>(), ["a", "b"]);
    }
}
