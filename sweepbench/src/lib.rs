//! Shared plumbing of the sweep benchmark's two binaries.
//!
//! * `bench_sweep` runs one sweep through the production entry point
//!   ([`fracas_bench::run_sweep`]) and reports its wall time.
//! * `bench_trace` replays one sweep serially through the public crate
//!   calls, recording a span around each, and checks every replayed
//!   injection against [`fracas::inject::inject_one`].
//!
//! Both take the `sweep` binary's command line ([`fracas_bench::cli::SweepOpts`])
//! and both refuse to start over an existing database or sink
//! (`ensure_fresh`): `run_sweep` would return a cached database and
//! measure nothing.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The sweep configuration and the database/sink paths of one benchmark
/// sweep, parsed from the `sweep` command line. Progress lines are off:
/// the benchmark reports its own figures.
pub struct Sweep {
    /// Scenarios the sweep covers, in [`fracas::npb::Scenario::all`] order.
    pub scenarios: Vec<fracas::npb::Scenario>,
    /// The fleet configuration handed to the sweep.
    pub config: fracas::inject::FleetConfig,
    /// Database the sweep writes.
    pub db: PathBuf,
    /// Record sink the sweep streams to (removed once the database is saved).
    pub sink: PathBuf,
}

impl Sweep {
    /// Parses the process arguments like the `sweep` binary does; `--db`
    /// and `--sink` are mandatory. Exits with status 2 on a usage error
    /// and status 3 when either path already exists.
    #[must_use]
    pub fn from_args(usage: &'static str) -> Sweep {
        let opts = fracas_bench::cli::SweepOpts::parse(usage);
        let (Some(db), Some(sink)) = (opts.db.clone(), opts.sink.clone()) else {
            eprintln!("--db and --sink are required");
            eprintln!("usage: {usage}");
            std::process::exit(2);
        };
        if let Err(e) = ensure_fresh(&[&db, &sink]) {
            eprintln!("{e}");
            std::process::exit(3);
        }
        let mut config = opts.fleet_config();
        config.progress = false;
        Sweep {
            scenarios: opts.filter.scenarios(),
            config,
            db,
            sink,
        }
    }

    /// The sweep's scenario ids as a JSON array.
    #[must_use]
    pub fn ids_json(&self) -> String {
        let ids: Vec<String> = self.scenarios.iter().map(|s| json_str(&s.id())).collect();
        format!("[{}]", ids.join(","))
    }
}

/// Fails when any of `paths` exists: a benchmark sweep must start from
/// an empty database and sink.
///
/// # Errors
///
/// Names the first stale path.
fn ensure_fresh(paths: &[&Path]) -> Result<(), String> {
    match paths.iter().find(|p| p.exists()) {
        Some(p) => Err(format!(
            "refusing to start: {} already exists (a stale database or sink would be reused \
             and nothing measured)",
            p.display()
        )),
        None => Ok(()),
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialise")
}

/// One traced interval: a layer call made by the benchmark. Spans of one
/// injection share its fault index as `id`; `scenario` indexes the
/// sweep's scenario list.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Layer name.
    name: &'static str,
    /// Scenario index within the sweep.
    scenario: usize,
    /// Fault index for injection spans, else the scenario index.
    id: usize,
    /// Index of the enclosing span in the tracer's list.
    parent: Option<usize>,
    /// Seconds since the tracer started.
    start: f64,
    /// Seconds since the tracer started.
    end: f64,
}

/// An in-memory span recorder; nothing is written until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the tracer started.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its handle for [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        scenario: usize,
        id: usize,
        parent: Option<usize>,
    ) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            scenario,
            id,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes the span `handle`.
    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        scenario: usize,
        id: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let handle = self.open(name, scenario, id, parent);
        let out = f();
        self.close(handle);
        out
    }

    /// The spans as JSON lines (`name`, `scenario`, `id`, `parent`,
    /// `start`, `end`; times in seconds).
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":{},\"scenario\":{},\"id\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}",
                json_str(s.name),
                s.scenario,
                s.id,
                s.start,
                s.end
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file that exists (stands in for a stale database or sink) and
    /// one that does not, both inside this package.
    fn existing() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml")
    }

    fn missing(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
    }

    #[test]
    fn fresh_paths_pass() {
        assert!(ensure_fresh(&[&missing("db.jsonl"), &missing("db.jsonl.wal")]).is_ok());
    }

    #[test]
    fn stale_database_refuses() {
        let err = ensure_fresh(&[&existing(), &missing("db.jsonl.wal")]).unwrap_err();
        assert!(err.contains("Cargo.toml"), "{err}");
    }

    #[test]
    fn stale_sink_refuses() {
        let err = ensure_fresh(&[&missing("db.jsonl"), &existing()]).unwrap_err();
        assert!(err.contains("Cargo.toml"), "{err}");
    }

    #[test]
    fn spans_nest_and_serialise() {
        let mut t = Tracer::new();
        let outer = t.open("inject", 0, 7, None);
        let v = t.span("flip", 0, 7, Some(outer), || 42);
        t.close(outer);
        assert_eq!(v, 42);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"flip\""), "{lines}");
    }
}
