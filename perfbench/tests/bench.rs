//! The benchmark's own tests: every metric is printed with its unit on a
//! tiny run of every workload, runs replay their plan's cycle exactly, the
//! correctness gate fires on a file that silently loses inserts (also
//! when other operations fail), and traced spans nest one tree per
//! operation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ceh_core::{ConcurrentHashFile, Solution2};
use ceh_perfbench::drive::{drive, ThreadState};
use ceh_perfbench::gen::{KeyChoice, Mix, Plan};
use ceh_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use ceh_perfbench::trace::{check_nesting, flatten, SPAN_CAP};
use ceh_perfbench::workloads::{self, Options, THREADS, TINY_PLAN_OPS};
use ceh_types::{DeleteOutcome, Error, HashFileConfig, InsertOutcome, Key, Result, Value};

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn tiny(name: &str, trace: bool, test: &str) -> Options {
    let mut o = Options::new(workloads::by_name(name).expect("known workload"));
    o.tiny = true;
    o.seconds = 0.5;
    o.trace = trace;
    o.seed = 5;
    o.out_dir = out_dir(test);
    o
}

/// The value printed for `name` in a result line, if it carries `unit`.
fn printed(line: &str, name: &str, unit: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    rest.starts_with(&format!("{unit}\"}}")).then_some(())?;
    value.parse().ok()
}

fn assert_prints_all(out: &Outcome, catalog: &[(&str, &str)], what: &str) {
    let line = out.json(catalog);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{what}: {line}"
    );
    for &(name, unit) in catalog {
        assert!(
            printed(&line, name, unit).is_some(),
            "{what}: {name} [{unit}] missing from {line}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in workloads::all() {
        for trace in [false, true] {
            let out = workloads::run(&tiny(w.name, trace, "metrics")).expect("set-up");
            assert!(out.correct, "{} trace={trace}: {:?}", w.name, out.notes);
            assert_eq!(out.failed, 0, "{}", w.name);
            let catalog = if trace { PER_LAYER } else { END_TO_END };
            assert_prints_all(&out, catalog, w.name);
            if !trace {
                for &(name, _) in END_TO_END {
                    assert!(
                        out.metrics.get(name).unwrap_or(0.0) > 0.0,
                        "{}: {name} is 0",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn benchmark_json_names_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    for w in workloads::all() {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)),
            "workload {}",
            w.name
        );
    }
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "metric {name} [{unit}] not in BENCHMARK.json"
        );
    }
}

#[test]
fn a_run_longer_than_its_plan_replays_the_cycle_exactly() {
    for name in ["update-uniform", "durable-mem"] {
        let out = workloads::run(&tiny(name, false, "cycle")).expect("set-up");
        assert!(out.correct, "{name}: {:?}", out.notes);
        assert_eq!(out.failed, 0, "{name}");
        let cycles = (THREADS * 2 * TINY_PLAN_OPS) as u64;
        assert!(
            out.attempted > 3 * cycles,
            "{name}: {} operations do not replay the {cycles}-operation cycles",
            out.attempted
        );
    }
}

/// A file that acknowledges every `drop_every`-th insert without storing
/// it, and answers every `fail_every`-th insert with an error without
/// storing it (0 turns either off).
struct Lossy {
    inner: Arc<Solution2>,
    inserts: AtomicU64,
    drop_every: u64,
    fail_every: u64,
}

impl ConcurrentHashFile for Lossy {
    fn find(&self, key: Key) -> Result<Option<Value>> {
        self.inner.find(key)
    }
    fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        // ceh-lint: allow(relaxed-ordering) — a test counter; no data depends on it
        let n = self.inserts.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.fail_every) {
            return Err(Error::Io("injected insert failure".into()));
        }
        if n.is_multiple_of(self.drop_every) {
            return Ok(InsertOutcome::Inserted);
        }
        self.inner.insert(key, value)
    }
    fn delete(&self, key: Key) -> Result<DeleteOutcome> {
        self.inner.delete(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self) -> &'static str {
        "lossy"
    }
}

fn lossy(inner: Arc<Solution2>, drop_every: u64, fail_every: u64) -> Arc<dyn ConcurrentHashFile> {
    Arc::new(Lossy {
        inner,
        inserts: AtomicU64::new(0),
        drop_every,
        fail_every,
    })
}

#[test]
fn correctness_gate_fires_on_a_file_that_drops_one_insert_in_a_thousand() {
    let drops: workloads::Wrap = |f| lossy(f, 1000, 0);
    // Failed operations leave their keys uncertain; the gate still checks
    // every other key.
    let drops_and_fails: workloads::Wrap = |f| lossy(f, 1000, 777);
    for name in ["update-uniform", "durable-mem"] {
        for wrap in [drops, drops_and_fails] {
            let mut o = tiny(name, false, "lossy");
            o.wrap = Some(wrap);
            let out = workloads::run(&o).expect("set-up");
            assert!(!out.correct, "{name}: the gate missed dropped inserts");
            assert!(!out.notes.is_empty(), "{name}: no finding reported");
            assert!(out.json(END_TO_END).starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn failed_operations_count_as_failures_not_wrong_answers() {
    let fails: workloads::Wrap = |f| lossy(f, 0, 777);
    let mut o = tiny("update-uniform", false, "failing");
    o.wrap = Some(fails);
    let out = workloads::run(&o).expect("set-up");
    assert!(out.correct, "{:?}", out.notes);
    assert!(out.failed > 0 && out.failed < out.attempted);
}

#[test]
fn traced_spans_nest_under_one_root_per_operation() {
    let file = Solution2::new(HashFileConfig::default()).expect("file");
    let mix = Mix {
        find: 50,
        insert: 25,
        delete: 25,
    };
    let plan = Plan::generate(3, 10, 2, 20_000, mix, KeyChoice::Zipf(0.99));
    for t in 0..2 {
        for &k in &plan.preload[t] {
            file.insert(Key(k), Value(ceh_perfbench::gen::value_of(k)))
                .expect("preload");
        }
    }
    let mut states = ThreadState::for_plan(&plan);
    let f: &dyn ConcurrentHashFile = &file;
    let per_thread = 3000;
    assert!(per_thread <= SPAN_CAP);
    let phase = drive(&plan, &mut states, |_| f, 60.0, per_thread, true);
    assert!(states.iter().all(|s| s.wrong == 0 && s.failed == 0));
    assert_eq!(phase.ops, 2 * per_thread as u64);
    let spans = flatten(&phase.spans, "core");
    let roots = check_nesting(&spans).expect("one tree per operation");
    assert_eq!(roots as u64, phase.ops, "one root per operation");
    assert!(spans.iter().any(|s| s.name == "core.find"));

    // The written trace of a whole traced run nests the same way.
    let o = tiny("read-zipf", true, "spans");
    let out = workloads::run(&o).expect("set-up");
    assert!(out.correct, "{:?}", out.notes);
    let path = o.out_dir.join("trace-read-zipf-seed5.jsonl");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        line[at..]
            .split([',', '}'])
            .next()
            .expect("value")
            .trim_matches('"')
            .to_string()
    };
    let written: Vec<_> = text
        .lines()
        .map(|l| ceh_perfbench::trace::Span {
            id: field(l, "id").parse().expect("id"),
            parent: field(l, "parent").parse().ok(),
            name: field(l, "name"),
            thread: field(l, "thread").parse().expect("thread"),
            key: field(l, "key").parse().expect("key"),
            start: field(l, "start_ns").parse().expect("start"),
            end: field(l, "end_ns").parse().expect("end"),
        })
        .collect();
    assert!(!written.is_empty());
    check_nesting(&written).expect("written spans nest");
}
