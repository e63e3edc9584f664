//! # ceh-cli — command parsing and execution for the `ceh` binary
//!
//! A small durable key-value index tool over the Solution-2 concurrent
//! extendible hash file with a file-backed page store:
//!
//! ```text
//! $ ceh /tmp/my.index put 42 4200
//! inserted
//! $ ceh /tmp/my.index get 42
//! 4200
//! $ ceh /tmp/my.index            # no command → REPL
//! ceh> stats
//! records: 1, depth: 0, buckets: 1
//! ```
//!
//! Parsing lives here (unit-testable); the binary is a thin wrapper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod serve;
pub mod top;
pub use check::{run_check, CHECK_HELP};
pub use serve::{run_client, run_serve, CLIENT_HELP, SERVE_HELP};
pub use top::{run_live_stats, run_live_trace, run_top, STATS_HELP, TOP_HELP};

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::{MetricsHandle, RunReport};
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{
    hash_key, DeleteOutcome, Error, HashFileConfig, InsertOutcome, Key, Result, Value,
};

/// A parsed CLI command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Insert a key/value pair.
    Put(Key, Value),
    /// Look up a key.
    Get(Key),
    /// Delete a key.
    Del(Key),
    /// List every key/value (quiescent snapshot), in key order.
    Scan,
    /// Print structural and operation statistics, plus the unified
    /// metrics run report.
    Stats,
    /// Emit the metrics run report as JSON (`stats json`).
    StatsJson,
    /// Render the directory-and-buckets diagram (the paper's Figure 1/3
    /// notation).
    Dump,
    /// Run the full invariant check.
    Verify,
    /// Bulk-insert `n` deterministic filler records.
    Fill(u64),
    /// Print command help.
    Help,
    /// Leave the REPL.
    Quit,
}

/// Parse one command line. Numbers accept decimal or `0x…` hex.
pub fn parse_command(line: &str) -> std::result::Result<Command, String> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().ok_or("empty command")?;
    let mut arg = |name: &str| -> std::result::Result<u64, String> {
        let raw = parts
            .next()
            .ok_or_else(|| format!("{cmd}: missing <{name}>"))?;
        parse_u64(raw).ok_or_else(|| format!("{cmd}: <{name}> must be a number, got {raw:?}"))
    };
    let parsed = match cmd {
        "put" | "insert" | "set" => Command::Put(Key(arg("key")?), Value(arg("value")?)),
        "get" | "find" => Command::Get(Key(arg("key")?)),
        "del" | "delete" | "rm" => Command::Del(Key(arg("key")?)),
        "scan" | "list" => Command::Scan,
        // `stats` takes an optional output format: `stats json`.
        "stats" | "info" => match parts.next() {
            None => Command::Stats,
            Some("json") => Command::StatsJson,
            Some(other) => {
                return Err(format!(
                    "{cmd}: unknown format {other:?} (only `{cmd} json`)"
                ))
            }
        },
        "dump" | "render" => Command::Dump,
        "verify" | "check" => Command::Verify,
        "fill" => Command::Fill(arg("n")?),
        "help" | "?" => Command::Help,
        "quit" | "exit" | "q" => Command::Quit,
        other => return Err(format!("unknown command {other:?} (try `help`)")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("{cmd}: unexpected trailing argument {extra:?}"));
    }
    Ok(parsed)
}

fn parse_u64(raw: &str) -> Option<u64> {
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// The help text.
pub const HELP: &str = "\
commands:
  put <key> <value>   insert (add-if-absent)
  get <key>           look up
  del <key>           delete
  scan                list all records in key order
  stats [json]        structure + operation statistics and the metrics
                      run report (as a table, or as JSON with `json`)
  dump                render the directory/bucket diagram
  verify              run the full structural invariant check
  fill <n>            bulk-insert n deterministic filler records
  help                this text
  quit                exit the REPL
numbers are decimal or 0x-prefixed hex";

/// The open index: a Solution-2 file over a file-backed store.
pub struct Index {
    file: Solution2,
}

impl Index {
    /// Open (recovering) or create the index at `path`.
    pub fn open(path: &std::path::Path) -> Result<Index> {
        let cfg = HashFileConfig::default().with_bucket_capacity(126); // 2 KiB pages
        let store_cfg = PageStoreConfig {
            page_size: Bucket::page_size_for(cfg.bucket_capacity),
            initial_pages: 0,
            ..Default::default()
        };
        // One registry for the whole index: store, locks, and operation
        // counters all report into it (surfaced by `stats` / `stats json`).
        let metrics = MetricsHandle::new();
        let locks = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            &metrics,
        ));
        let core = if path.exists() {
            let store = Arc::new(PageStore::open_file_with_metrics(
                path, store_cfg, &metrics,
            )?);
            FileCore::recover_with_metrics(cfg, store, locks, hash_key, &metrics)?
        } else {
            let store = Arc::new(PageStore::create_file_with_metrics(
                path, store_cfg, &metrics,
            )?);
            FileCore::with_parts_metrics(cfg, store, locks, hash_key, &metrics)?
        };
        Ok(Index {
            file: Solution2::from_core(core),
        })
    }

    /// The unified run report over this index's metrics registry.
    fn report(&self) -> RunReport {
        RunReport::collect("ceh-cli", &self.file.metrics())
            .with_meta("impl", self.file.name())
            .with_meta("records", ConcurrentHashFile::len(&self.file))
    }

    /// Execute one command, returning the text to print.
    pub fn execute(&self, cmd: Command) -> Result<String> {
        Ok(match cmd {
            Command::Put(k, v) => match self.file.insert(k, v)? {
                InsertOutcome::Inserted => "inserted".into(),
                InsertOutcome::AlreadyPresent => "already present (not overwritten)".into(),
            },
            Command::Get(k) => match self.file.find(k)? {
                Some(v) => v.0.to_string(),
                None => "(not found)".into(),
            },
            Command::Del(k) => match self.file.delete(k)? {
                DeleteOutcome::Deleted => "deleted".into(),
                DeleteOutcome::NotFound => "(not found)".into(),
            },
            Command::Scan => {
                let snap = invariants::snapshot_core(self.file.core())?;
                let mut records: Vec<(u64, u64)> = snap
                    .buckets
                    .values()
                    .flat_map(|b| b.records.iter().map(|r| (r.key.0, r.value.0)))
                    .collect();
                records.sort_unstable();
                let mut out = String::new();
                for (k, v) in &records {
                    out.push_str(&format!("{k} = {v}\n"));
                }
                out.push_str(&format!("({} records)", records.len()));
                out
            }
            Command::Stats => {
                let core = self.file.core();
                let s = core.stats().snapshot();
                format!(
                    "records: {}, depth: {}, buckets: {}, load factor: {:.2}\n\
                     ops: {} finds ({} hits, {} unlocked), {} inserts, {} deletes\n\
                     restructuring: {} splits, {} merges, {} doublings, {} halvings\n\
                     recoveries: {} wrong-bucket chases ({:.2} mean hops)",
                    core.len(),
                    core.dir().depth(),
                    core.store().allocated_pages(),
                    core.len() as f64
                        / (core.store().allocated_pages().max(1) * core.config().bucket_capacity)
                            as f64,
                    s.finds_hit + s.finds_miss,
                    s.finds_hit,
                    s.finds_optimistic,
                    s.inserts + s.inserts_duplicate,
                    s.deletes + s.deletes_miss,
                    s.splits,
                    s.merges,
                    s.doublings,
                    s.halvings,
                    s.wrong_bucket_recoveries,
                    s.mean_recovery_hops(),
                ) + &format!("\n\n{}", self.report().to_table())
            }
            Command::StatsJson => self.report().to_json(),
            Command::Dump => {
                let snap = invariants::snapshot_core(self.file.core())?;
                if snap.entries.len() > 64 {
                    format!(
                        "directory too large to draw ({} entries at depth {}); try `stats`",
                        snap.entries.len(),
                        snap.depth
                    )
                } else {
                    snap.render().trim_end().to_string()
                }
            }
            Command::Verify => {
                invariants::check_concurrent_file(self.file.core())?;
                "all structural invariants hold".into()
            }
            Command::Fill(n) => {
                let mut inserted = 0u64;
                for i in 0..n {
                    let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
                    if self.file.insert(Key(k), Value(i))? == InsertOutcome::Inserted {
                        inserted += 1;
                    }
                }
                format!("inserted {inserted} of {n}")
            }
            Command::Help => HELP.into(),
            Command::Quit => "bye".into(),
        })
    }

    /// The record count.
    pub fn len(&self) -> usize {
        ConcurrentHashFile::len(&self.file)
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Convenience: parse + execute, mapping parse errors into [`Error`].
pub fn run_line(index: &Index, line: &str) -> Result<String> {
    let cmd = parse_command(line).map_err(Error::Config)?;
    index.execute(cmd)
}

/// Help text for `ceh trace`.
pub const TRACE_HELP: &str = "\
usage: ceh trace <workload> [--json]
workloads:
  lookup   seed 64 records, then 64 finds
  mixed    interleaved inserts, finds, and deletes (splits included)
  churn    grow then shrink (splits, merges, garbage collection)
--json emits Chrome trace-format JSON (load via chrome://tracing or
https://ui.perfetto.dev); the default is an indented per-trace timeline
followed by the lock-contention profile";

/// Run a small seeded cluster with tracing on and render the causal
/// traces — `ceh trace <workload>`. The cluster is deterministic (no
/// fault plan, zero-latency network), so the trace shape is stable
/// across runs apart from timings.
pub fn run_trace(workload: &str, json: bool) -> Result<String> {
    let ops: Vec<(char, u64)> = match workload {
        "lookup" => (0..64u64)
            .map(|i| ('p', i))
            .chain((0..64u64).map(|i| ('g', i)))
            .collect(),
        "mixed" => (0..96u64)
            .map(|i| match i % 3 {
                0 => ('p', i),
                1 => ('g', i.saturating_sub(1)),
                _ => ('d', i.saturating_sub(2)),
            })
            .collect(),
        "churn" => (0..64u64)
            .map(|i| ('p', i))
            .chain((0..64u64).map(|i| ('d', i)))
            .collect(),
        other => {
            return Err(Error::Config(format!(
                "unknown trace workload {other:?}\n{TRACE_HELP}"
            )))
        }
    };
    let cluster = ceh_dist::Cluster::start(ceh_dist::ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: HashFileConfig::tiny(),
        ..Default::default()
    })?;
    // Large enough for these workloads: an overflowing ring truncates
    // trace trees (the report would warn).
    cluster.metrics().tracer().enable(1 << 16);
    let client = cluster.client();
    // Spread keys so the tiny buckets split and routing crosses sites.
    let spread = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
    for (op, i) in ops {
        let key = Key(spread(i));
        match op {
            'p' => {
                client.insert(key, Value(i))?;
            }
            'g' => {
                client.find(key)?;
            }
            _ => {
                client.delete(key)?;
            }
        }
    }
    cluster.quiesce(std::time::Duration::from_secs(30));
    let report = cluster.trace_report();
    let out = if json {
        report.to_chrome_json()
    } else {
        format!("{}\n{}", report.to_timeline(), report.contention_table())
    };
    cluster.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_command("put 1 2").unwrap(),
            Command::Put(Key(1), Value(2))
        );
        assert_eq!(
            parse_command("set 0x10 0xff").unwrap(),
            Command::Put(Key(16), Value(255))
        );
        assert_eq!(parse_command("get 7").unwrap(), Command::Get(Key(7)));
        assert_eq!(parse_command("del 7").unwrap(), Command::Del(Key(7)));
        assert_eq!(parse_command("scan").unwrap(), Command::Scan);
        assert_eq!(parse_command("stats").unwrap(), Command::Stats);
        assert_eq!(parse_command("stats json").unwrap(), Command::StatsJson);
        assert_eq!(parse_command("info json").unwrap(), Command::StatsJson);
        assert!(parse_command("stats xml").is_err(), "unknown format");
        assert_eq!(parse_command("dump").unwrap(), Command::Dump);
        assert_eq!(parse_command("verify").unwrap(), Command::Verify);
        assert_eq!(parse_command("fill 100").unwrap(), Command::Fill(100));
        assert_eq!(parse_command("help").unwrap(), Command::Help);
        assert_eq!(parse_command("quit").unwrap(), Command::Quit);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_command("").is_err());
        assert!(parse_command("put 1").is_err(), "missing value");
        assert!(parse_command("put 1 2 3").is_err(), "trailing junk");
        assert!(parse_command("get banana").is_err(), "non-numeric key");
        assert!(parse_command("launch_missiles").is_err());
    }

    fn temp_index(tag: &str) -> (Index, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("ceh-cli-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cli.index");
        (Index::open(&path).unwrap(), path)
    }

    #[test]
    fn end_to_end_session() {
        let (index, path) = temp_index("session");
        assert_eq!(run_line(&index, "put 42 4200").unwrap(), "inserted");
        assert_eq!(
            run_line(&index, "put 42 9").unwrap(),
            "already present (not overwritten)"
        );
        assert_eq!(run_line(&index, "get 42").unwrap(), "4200");
        assert_eq!(run_line(&index, "get 43").unwrap(), "(not found)");
        assert!(run_line(&index, "fill 500")
            .unwrap()
            .starts_with("inserted"));
        let stats = run_line(&index, "stats").unwrap();
        assert!(stats.contains("records: 501"));
        assert!(
            stats.contains("run report") && stats.contains("core.inserts"),
            "stats carries the metrics table: {stats}"
        );
        let json = run_line(&index, "stats json").unwrap();
        let doc = ceh_obs::json::parse(&json).expect("stats json parses");
        assert!(
            doc.get("counters")
                .and_then(|c| c.get("storage.writes"))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
                > 0,
            "page writes flow into the report: {json}"
        );
        assert_eq!(
            run_line(&index, "verify").unwrap(),
            "all structural invariants hold"
        );
        let scan = run_line(&index, "scan").unwrap();
        assert!(scan.contains("42 = 4200"));
        assert!(scan.ends_with("(501 records)"));
        let dump = run_line(&index, "dump").unwrap();
        assert!(
            dump.contains("depth") || dump.contains("directory too large"),
            "dump renders: {dump}"
        );
        assert_eq!(run_line(&index, "del 42").unwrap(), "deleted");
        assert_eq!(run_line(&index, "del 42").unwrap(), "(not found)");
        drop(index);

        // Reopen: durable.
        let reopened = Index::open(&path).unwrap();
        assert_eq!(reopened.len(), 500);
        assert_eq!(run_line(&reopened, "get 42").unwrap(), "(not found)");
        assert_eq!(
            run_line(&reopened, "verify").unwrap(),
            "all structural invariants hold"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
