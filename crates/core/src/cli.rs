//! The one argv parser every NanoMap binary uses.
//!
//! A binary declares its flags once, as a const table of [`Flag`] rows
//! inside a [`Command`]. [`Command::parse`] turns argv into [`Args`] with
//! typed getters, and the same table renders the usage line and the
//! `--help` text, so the documented flags and the accepted flags cannot
//! drift apart. [`Command::run`] gives every binary the same exits:
//! `-h`/`--help` prints the help to stdout and exits 0; a usage error
//! prints `error: <flag>: <reason>` and the usage to stderr and exits 1.
//!
//! Only `--flag VALUE` and bare switches exist: no `--flag=value`, no
//! short-flag clustering, no environment fallbacks. A flag given twice
//! keeps its last value ([`Args::all`] sees every one).

use std::fmt;
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

/// One row of a flag table.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--max-les`.
    pub name: &'static str,
    /// Placeholder for the flag's value in help text; `None` marks a
    /// switch, which takes no value.
    pub metavar: Option<&'static str>,
    /// Help text; `\n` starts a continuation line.
    pub help: &'static str,
}

impl Flag {
    /// A flag followed by one value.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        Self {
            name,
            metavar: Some(metavar),
            help,
        }
    }

    /// A switch: present or absent, no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            metavar: None,
            help,
        }
    }

    fn synopsis(&self) -> String {
        match self.metavar {
            Some(metavar) => format!("{} {metavar}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// A binary or subcommand: how it is invoked and which flags it takes.
#[derive(Debug)]
pub struct Command {
    /// The invocation, e.g. `nanomap explain`.
    pub name: &'static str,
    /// The operands after the flags, e.g. `<design.vhd | design.blif>`.
    pub operands: &'static str,
    /// What `--help` prints between the usage and the flag list.
    pub about: &'static str,
    /// Flag groups, listed in order. Commands share a group by naming
    /// the same const table.
    pub flags: &'static [&'static [Flag]],
}

/// Why a command stopped before (or instead of) doing its work.
#[derive(Debug, PartialEq)]
pub enum Error {
    /// `-h` or `--help` was given.
    Help,
    /// Bad flags or operands: `error: <subject>: <reason>`, then the usage.
    Usage {
        /// The flag (or command) at fault.
        subject: String,
        /// What is wrong with it.
        reason: String,
    },
    /// The command's work failed: `error: <message>`, exit 1.
    Failed(String),
}

impl Error {
    /// A usage error naming `subject`, usually the offending flag.
    pub fn usage(subject: impl Into<String>, reason: impl fmt::Display) -> Self {
        Self::Usage {
            subject: subject.into(),
            reason: reason.to_string(),
        }
    }
}

impl From<String> for Error {
    fn from(message: String) -> Self {
        Self::Failed(message)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Help => f.write_str("help requested"),
            Self::Usage { subject, reason } => write!(f, "{subject}: {reason}"),
            Self::Failed(message) => f.write_str(message),
        }
    }
}

/// Parsed argv: the flags given, in order, and the operands.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// The values given for `name`. Getters only ask for declared flags;
    /// an undeclared name is a typo in the binary, not a user error.
    fn values(&self, name: &str) -> impl Iterator<Item = &str> {
        let flag = self.command.lookup(name).map_or("", |f| f.name);
        debug_assert!(
            !flag.is_empty(),
            "{name} is not declared by `{}`",
            self.command.name
        );
        self.given
            .iter()
            .filter(move |(given, _)| *given == flag)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The last value given for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values(name).last()
    }

    /// Every value given for `name`, in argv order.
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.values(name).collect()
    }

    /// Whether the switch (or value flag) `name` was given.
    pub fn has(&self, name: &str) -> bool {
        debug_assert!(self.command.lookup(name).is_some(), "{name} is undeclared");
        self.flags().any(|flag| flag == name)
    }

    /// The last value for `name`, parsed with [`FromStr`].
    ///
    /// # Errors
    ///
    /// A usage error naming the flag when the value does not parse.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, Error>
    where
        T::Err: fmt::Display,
    {
        self.get(name)
            .map(|text| {
                text.parse()
                    .map_err(|e| Error::usage(name, format!("{text:?}: {e}")))
            })
            .transpose()
    }

    /// The flags given, in argv order.
    pub fn flags(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|(flag, _)| *flag)
    }

    /// The operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Exactly `N` operands.
    ///
    /// # Errors
    ///
    /// A usage error naming the first extra operand, or the command when
    /// operands are missing.
    pub fn exactly<const N: usize>(&self) -> Result<[&str; N], Error> {
        let operands: Vec<&str> = self.operands.iter().map(String::as_str).collect();
        operands
            .try_into()
            .map_err(|operands: Vec<&str>| match operands.get(N) {
                Some(extra) => Error::usage(*extra, "unexpected operand"),
                None => Error::usage(
                    self.command.name,
                    format!("expects {}", self.command.operands),
                ),
            })
    }
}

/// Help lines wrap at this width.
const WIDTH: usize = 78;

impl Command {
    fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn lookup(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }

    /// Parses `argv` (without the program name) against the flag table.
    ///
    /// # Errors
    ///
    /// [`Error::Help`] for `-h`/`--help`; a usage error for an unknown
    /// flag or a value flag at the end of argv.
    pub fn parse(&'static self, argv: impl IntoIterator<Item = String>) -> Result<Args, Error> {
        let mut args = Args {
            command: self,
            given: Vec::new(),
            operands: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if arg == "-h" || arg == "--help" {
                return Err(Error::Help);
            }
            // `-` alone is an operand: the stdin/stdout placeholder.
            if !arg.starts_with('-') || arg == "-" {
                args.operands.push(arg);
                continue;
            }
            let flag = self
                .lookup(&arg)
                .ok_or_else(|| Error::usage(&arg, "unknown option (see --help)"))?;
            let value = flag.metavar.map(|metavar| {
                argv.next()
                    .ok_or_else(|| Error::usage(flag.name, format!("needs a value {metavar}")))
            });
            args.given.push((flag.name, value.transpose()?));
        }
        Ok(args)
    }

    /// Parses `argv`, runs `body` on the flags, and turns any [`Error`]
    /// from either into the uniform exit: help on stdout with 0, usage
    /// errors on stderr with the usage and 1, failures on stderr with 1.
    pub fn run(
        &'static self,
        argv: impl IntoIterator<Item = String>,
        body: impl FnOnce(Args) -> Result<ExitCode, Error>,
    ) -> ExitCode {
        match self.parse(argv).and_then(body) {
            Ok(code) => code,
            Err(Error::Help) => {
                // A closed pipe (`--help | head`) is not an error.
                let _ = std::io::stdout().write_all(self.help().as_bytes());
                ExitCode::SUCCESS
            }
            Err(err @ Error::Usage { .. }) => {
                eprint!("error: {err}\n\n{}", self.usage());
                ExitCode::FAILURE
            }
            Err(Error::Failed(message)) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        }
    }

    /// The usage line: name, every flag with its metavar, operands,
    /// wrapped under the name.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.name);
        let indent = " ".repeat(out.len());
        let flags = self.all_flags().map(|f| format!("[{}]", f.synopsis()));
        let operands = Some(self.operands.to_string()).filter(|o| !o.is_empty());
        for word in flags.chain(operands) {
            let line_len = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
            if line_len + 1 + word.len() > WIDTH && line_len > indent.len() {
                out.push('\n');
                out.push_str(&indent);
            }
            out.push(' ');
            out.push_str(&word);
        }
        out.push('\n');
        out
    }

    /// The `--help` text: usage, the about prose, then one line per flag.
    pub fn help(&self) -> String {
        const HELP: Flag = Flag::switch("-h, --help", "print this help and exit");
        let flags: Vec<&Flag> = self.all_flags().chain([&HELP]).collect();
        let width = flags.iter().map(|f| f.synopsis().len()).max().unwrap_or(0) + 2;
        let mut out = format!("{}\n{}\n\noptions:\n", self.usage(), self.about);
        for flag in flags {
            for (i, line) in flag.help.lines().enumerate() {
                let left = if i == 0 {
                    flag.synopsis()
                } else {
                    String::new()
                };
                out.push_str(&format!("  {left:<width$}{line}\n"));
            }
        }
        out
    }
}
