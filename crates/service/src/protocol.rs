//! The line protocol: one command in, one response line out.
//!
//! Requests are ASCII lines; blank lines and `#` comments are ignored.
//! Responses are single lines: query answers echo the command, errors
//! start with `ERR` and never terminate the session (a malformed line is
//! the client's problem, not the server's).

use std::fmt;

/// One parsed protocol command.
///
/// (`Clone` but no longer `Copy`: `LOAD` carries its file path.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `REACH u v` — is `v` reachable from `u` (reflexively)?
    Reach(usize, usize),
    /// `INSERT u v` — add edge `u → v`.
    Insert(usize, usize),
    /// `DELETE u v` — remove edge `u → v`.
    Delete(usize, usize),
    /// `LOAD <path>` — replace the graph with a graph file (edge list or
    /// Matrix-Market) read server-side from `path` (bulk initial load;
    /// rejected on durable services, where it would bypass the WAL).
    Load(String),
    /// `STATS` — one line of service counters.
    Stats,
    /// `QUIT` — end the session.
    Quit,
}

/// One response line (the wire format is its `Display`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `REACH u v true|false` (suffixed ` stale=true` for degraded reads)
    Reach {
        /// Source vertex.
        u: usize,
        /// Target vertex.
        v: usize,
        /// Whether a (possibly empty) path runs `u → v`.
        reachable: bool,
        /// True when answered from a stale closure under overload: a
        /// recompute was in flight and the server chose to degrade the
        /// read rather than block it. Exact answers omit the flag on the
        /// wire, so the common case is byte-identical to the old format.
        stale: bool,
    },
    /// `OK INSERT u v added=<pairs>`
    Inserted {
        /// Source vertex.
        u: usize,
        /// Target vertex.
        v: usize,
        /// Newly reachable pairs (0 when implied or deferred to a
        /// pending recompute).
        added: usize,
    },
    /// `OK DELETE u v removed=true|false`
    Deleted {
        /// Source vertex.
        u: usize,
        /// Target vertex.
        v: usize,
        /// Whether the edge was present.
        removed: bool,
    },
    /// `OK LOAD n=<vertices> edges=<edges>`
    Loaded {
        /// Vertex count of the loaded graph.
        n: usize,
        /// Edge count of the loaded graph.
        edges: usize,
    },
    /// `STATS <key=value ...>`
    Stats(String),
    /// `BYE`
    Bye,
    /// `ERR <message>`
    Err(String),
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Reach {
                u,
                v,
                reachable,
                stale,
            } => {
                write!(f, "REACH {u} {v} {reachable}")?;
                if *stale {
                    write!(f, " stale=true")?;
                }
                Ok(())
            }
            Response::Inserted { u, v, added } => write!(f, "OK INSERT {u} {v} added={added}"),
            Response::Deleted { u, v, removed } => {
                write!(f, "OK DELETE {u} {v} removed={removed}")
            }
            Response::Loaded { n, edges } => write!(f, "OK LOAD n={n} edges={edges}"),
            Response::Stats(s) => write!(f, "STATS {s}"),
            Response::Bye => write!(f, "BYE"),
            Response::Err(msg) => write!(f, "ERR {msg}"),
        }
    }
}

/// Parses one request line.
///
/// Returns `Ok(None)` for blank lines and `#` comments. Command words are
/// case-insensitive; vertex arguments are decimal, and trailing tokens
/// are rejected (a truncated or glued stream must not half-parse).
///
/// # Errors
/// A human-readable message describing the malformed line (the caller
/// wraps it in [`Response::Err`]).
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let Some(word) = it.next() else {
        return Ok(None); // unreachable after the trim check, but never panic
    };
    let parse_pair =
        |it: &mut dyn Iterator<Item = &str>, word: &str| -> Result<(usize, usize), String> {
            let u = it
                .next()
                .ok_or_else(|| format!("{word} needs two vertex arguments"))?;
            let v = it
                .next()
                .ok_or_else(|| format!("{word} needs two vertex arguments"))?;
            let u = u
                .parse::<usize>()
                .map_err(|_| format!("bad vertex '{u}'"))?;
            let v = v
                .parse::<usize>()
                .map_err(|_| format!("bad vertex '{v}'"))?;
            Ok((u, v))
        };
    let cmd = match word.to_ascii_uppercase().as_str() {
        "REACH" => {
            let (u, v) = parse_pair(&mut it, "REACH")?;
            Command::Reach(u, v)
        }
        "INSERT" => {
            let (u, v) = parse_pair(&mut it, "INSERT")?;
            Command::Insert(u, v)
        }
        "DELETE" => {
            let (u, v) = parse_pair(&mut it, "DELETE")?;
            Command::Delete(u, v)
        }
        "LOAD" => {
            let path = it.next().ok_or("LOAD needs a file path")?;
            Command::Load(path.to_string())
        }
        "STATS" => Command::Stats,
        "QUIT" => Command::Quit,
        other => return Err(format!("unknown command '{other}'")),
    };
    if let Some(extra) = it.next() {
        return Err(format!("trailing token '{extra}' after {word}"));
    }
    Ok(Some(cmd))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_five_commands() {
        assert_eq!(parse_command("REACH 3 9"), Ok(Some(Command::Reach(3, 9))));
        assert_eq!(parse_command("insert 0 1"), Ok(Some(Command::Insert(0, 1))));
        assert_eq!(
            parse_command("  DELETE 5 5  "),
            Ok(Some(Command::Delete(5, 5)))
        );
        assert_eq!(parse_command("stats"), Ok(Some(Command::Stats)));
        assert_eq!(parse_command("QUIT"), Ok(Some(Command::Quit)));
    }

    #[test]
    fn parses_load_with_path() {
        assert_eq!(
            parse_command("LOAD /tmp/web.mtx"),
            Ok(Some(Command::Load("/tmp/web.mtx".into())))
        );
        assert!(parse_command("LOAD").is_err(), "missing path");
        assert!(parse_command("LOAD a b").is_err(), "trailing token");
        assert_eq!(
            Response::Loaded { n: 10, edges: 42 }.to_string(),
            "OK LOAD n=10 edges=42"
        );
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert_eq!(parse_command(""), Ok(None));
        assert_eq!(parse_command("   "), Ok(None));
        assert_eq!(parse_command("# a comment"), Ok(None));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_command("REACH 1").is_err());
        assert!(parse_command("REACH one two").is_err());
        assert!(parse_command("REACH 1 2 3").is_err(), "trailing token");
        assert!(parse_command("STATS now").is_err(), "trailing token");
        assert!(parse_command("FROB 1 2").is_err());
        assert!(parse_command("REACH -1 2").is_err(), "negative vertex");
    }

    #[test]
    fn responses_render_the_wire_format() {
        assert_eq!(
            Response::Reach {
                u: 1,
                v: 2,
                reachable: true,
                stale: false
            }
            .to_string(),
            "REACH 1 2 true"
        );
        assert_eq!(
            Response::Reach {
                u: 1,
                v: 2,
                reachable: false,
                stale: true
            }
            .to_string(),
            "REACH 1 2 false stale=true"
        );
        assert_eq!(
            Response::Inserted {
                u: 1,
                v: 2,
                added: 7
            }
            .to_string(),
            "OK INSERT 1 2 added=7"
        );
        assert_eq!(
            Response::Deleted {
                u: 1,
                v: 2,
                removed: false
            }
            .to_string(),
            "OK DELETE 1 2 removed=false"
        );
        assert_eq!(Response::Bye.to_string(), "BYE");
        assert_eq!(Response::Err("nope".into()).to_string(), "ERR nope");
    }
}
