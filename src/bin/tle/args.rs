//! The argument table and its one parser. Every subcommand declares its
//! flags as rows of text — `--name VALUE...`, two spaces, the help — so
//! one parser reads every command line and the usage text *is* the table.
//! A flag that is unknown, repeated, missing its value or unparsable is a
//! usage error naming that flag (exit 2), never a silent default.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// One subcommand's row of the table.
pub struct Command {
    /// What follows `tle` on the command line.
    pub name: &'static str,
    /// Positional arguments in usage form; `...` in the last one
    /// lets it repeat zero or more times.
    pub positionals: &'static [&'static str],
    /// What the command does, for the usage text.
    pub about: &'static str,
    /// One row per flag: the flag and its value placeholders (none for a
    /// switch), two spaces, the help. Indented lines continue the help.
    pub flags: &'static str,
    /// The body. `Err` is a usage error.
    pub run: fn(&Args) -> Result<ExitCode, String>,
}

impl Command {
    /// `(flag, value placeholders)` for every row of the flag table.
    fn flag_rows(&self) -> impl Iterator<Item = (&'static str, Vec<&'static str>)> {
        self.flags
            .lines()
            .filter(|row| row.starts_with('-'))
            .map(|row| {
                let mut words = row.split("  ").next().unwrap_or(row).split_whitespace();
                (words.next().unwrap_or(row), words.collect())
            })
    }

    /// The usage text: a synopsis, the description and the flag table.
    pub fn usage(&self) -> String {
        let mut synopsis = vec![self.name];
        if !self.flags.is_empty() {
            synopsis.push("[OPTIONS]");
        }
        synopsis.extend(self.positionals);
        // The help column of the first row aligns the `--help` row.
        let first = self.flags.lines().find(|row| row.starts_with('-'));
        let col = first.map_or(12, |row| {
            let lhs = row.split("  ").next().unwrap_or(row);
            row.len() - row[lhs.len()..].trim_start().len()
        });
        let synopsis = synopsis.join(" ");
        let mut text = format!("usage: tle {synopsis}\n\n{}\n\noptions:\n", self.about);
        for row in self.flags.lines().filter(|row| !row.trim().is_empty()) {
            text.push_str(&format!("  {row}\n"));
        }
        text.push_str(&format!("  {:<col$}print this help\n", "-h, --help"));
        text
    }

    /// Parse `argv` against this command's table; `Ok(None)` means help
    /// was asked for.
    pub fn parse(&'static self, argv: &[String]) -> Result<Option<Args>, String> {
        if argv.iter().any(|a| a == "-h" || a == "--help") {
            return Ok(None);
        }
        let mut args = Args {
            cmd: self,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with('-') {
                args.positionals.push(a.clone());
                continue;
            }
            let (flag, placeholders) = self
                .flag_rows()
                .find(|(flag, _)| flag == a)
                .ok_or_else(|| format!("unknown flag `{a}`"))?;
            if args.flags.iter().any(|(seen, _)| *seen == flag) {
                return Err(format!("{flag} given more than once"));
            }
            let mut values = Vec::new();
            for _ in &placeholders {
                match it.next() {
                    Some(v) if !v.starts_with("--") => values.push(v.clone()),
                    _ => return Err(format!("{flag} expects {}", placeholders.join(" "))),
                }
            }
            args.flags.push((flag, values));
        }
        let variadic = self.positionals.last().is_some_and(|p| p.contains("..."));
        let fixed = self.positionals.len() - usize::from(variadic);
        let n = args.positionals.len();
        if n < fixed || (n > fixed && !variadic) {
            return Err(match self.positionals {
                [] => format!("unexpected argument `{}`", args.positionals[0]),
                expected => format!("expected {}, got {n} argument(s)", expected.join(" ")),
            });
        }
        Ok(Some(args))
    }
}

/// A command line that passed its command's table.
pub struct Args {
    cmd: &'static Command,
    flags: Vec<(&'static str, Vec<String>)>,
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// The values `flag` was given, if it was given.
    pub fn values(&self, flag: &str) -> Option<&[String]> {
        debug_assert!(
            self.cmd.flag_rows().any(|(f, _)| f == flag),
            "`{flag}` is not in the `{}` table",
            self.cmd.name
        );
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_slice())
    }

    /// Whether switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// `flag`'s value parsed as `T`, if it was given.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let Some(v) = self.values(flag).and_then(<[String]>::first) else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|e| format!("{flag}: `{v}` is not valid: {e}"))
    }

    /// `flag`'s value parsed as `T`, or `default`.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.opt(flag)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Command = Command {
        name: "demo",
        positionals: &["IN", "REST..."],
        about: "a demo command",
        flags: "\
--count N      how many (default 3)
--pair A B     two values
               on two lines
--loud         a switch",
        run: |_| Ok(ExitCode::SUCCESS),
    };

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        DEMO.parse(&argv)
    }

    #[test]
    fn rows_give_names_and_arities() {
        let rows: Vec<_> = DEMO.flag_rows().collect();
        assert_eq!(
            rows,
            [
                ("--count", vec!["N"]),
                ("--pair", vec!["A", "B"]),
                ("--loud", vec![])
            ]
        );
    }

    #[test]
    fn values_switches_and_positionals() {
        let args = parse(&["in", "--pair", "x", "y", "a", "--loud", "b"])
            .unwrap()
            .unwrap();
        assert_eq!(args.positionals, ["in", "a", "b"]);
        assert!(args.has("--loud"));
        assert_eq!(args.values("--pair").unwrap(), ["x", "y"]);
        assert_eq!(args.get("--count", 3u32), Ok(3));
    }

    #[test]
    fn every_bad_line_names_its_flag() {
        let err = |argv: &[&str]| parse(argv).err().expect("a usage error");
        assert_eq!(err(&["in", "--bogus"]), "unknown flag `--bogus`");
        assert_eq!(err(&["in", "--count"]), "--count expects N");
        assert_eq!(err(&["in", "--count", "--loud"]), "--count expects N");
        assert_eq!(err(&["in", "--pair", "x"]), "--pair expects A B");
        assert_eq!(
            err(&["in", "--loud", "--loud"]),
            "--loud given more than once"
        );
        assert_eq!(err(&[]), "expected IN REST..., got 0 argument(s)");
        let args = parse(&["in", "--count", "x"]).unwrap().unwrap();
        assert!(args
            .get("--count", 3u32)
            .unwrap_err()
            .starts_with("--count: `x`"));
    }

    #[test]
    fn help_wins_and_usage_is_the_table() {
        assert!(parse(&["--bogus", "-h"]).unwrap().is_none());
        let usage = DEMO.usage();
        assert!(usage.starts_with("usage: tle demo [OPTIONS] IN REST...\n\na demo command\n"));
        assert!(usage.contains("\n  --pair A B     two values\n                 on two lines\n"));
        assert!(usage.ends_with("\n  -h, --help     print this help\n"));
    }
}
