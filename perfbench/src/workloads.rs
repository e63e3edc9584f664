//! The four workloads: what runs, how it is set up, measured, probed
//! and checked.

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution2};
use ceh_dist::{ClusterSpec, Msg, NodeOptions, NodeRole, ServeNode, TcpClusterClient};
use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode};
use ceh_net::Transport;
use ceh_obs::{HistogramCapture, MetricsHandle, MetricsSnapshot};
use ceh_storage::{DiskHandle, DurableConfig, DurableStore, PageBuf, PageStore, PageStoreConfig};
use ceh_types::{hash_key, Bucket, HashFileConfig, InsertOutcome, Key, RetryPolicy, Value};

use crate::drive::{drive, Phase, ThreadState};
use crate::gen::{ratio, value_of, KeyChoice, Mix, Plan};
use crate::report::{median, proc_mb, quantile, Hist, Metrics, Outcome};
use crate::trace;

/// Client threads in every workload.
pub const THREADS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median. The first one
/// builds the measured system.
pub const SETUP_REPS: usize = 3;

/// Windows an untraced run's measured time is cut into; each end-to-end
/// figure is taken from its per-window values (see [`run`]).
pub const WINDOWS: usize = 10;

/// Bytes of one record (8-byte key + 8-byte value), the unit of user data.
const RECORD_BYTES: f64 = 16.0;

/// Records per bucket in `durable-mem`.
const DURABLE_BUCKET: usize = 16;

/// Generated operations per thread: half of the cycle each thread replays
/// (see [`Plan::at`]). Fixed, so neither set-up time nor memory depends on
/// how fast the system under test is.
pub const PLAN_OPS: usize = 1 << 20;

/// Generated operations per thread in a tiny run, short enough that the
/// run replays its cycle many times.
pub const TINY_PLAN_OPS: usize = 1 << 12;

/// What a workload runs on.
#[derive(Debug, Clone)]
pub enum System {
    /// `Solution2` over the volatile in-memory page store.
    Volatile(HashFileConfig),
    /// `Solution2` over `DurableStore` + `MemBackend`: write-ahead log,
    /// buffer cache and checkpoints over the in-memory medium.
    DurableMem,
    /// 2 directory + 2 bucket managers as `ServeNode`s over loopback TCP.
    DistTcp,
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Keys are `0..2^key_bits`.
    pub key_bits: u32,
    /// Operation mix.
    pub mix: Mix,
    /// How finds choose keys.
    pub keys: KeyChoice,
    /// The system under test.
    pub system: System,
    /// Expected total ops/s, used only to size the warm-up.
    pub rate_hint: f64,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    let read_mostly = Mix {
        find: 90,
        insert: 5,
        delete: 5,
    };
    let update_heavy = Mix {
        find: 50,
        insert: 25,
        delete: 25,
    };
    vec![
        Workload {
            name: "read-zipf",
            key_bits: 20,
            mix: read_mostly,
            keys: KeyChoice::Zipf(0.99),
            system: System::Volatile(HashFileConfig::realistic()),
            rate_hint: 600_000.0,
        },
        Workload {
            name: "update-uniform",
            key_bits: 20,
            mix: update_heavy,
            keys: KeyChoice::Uniform,
            system: System::Volatile(HashFileConfig::default()),
            rate_hint: 650_000.0,
        },
        Workload {
            name: "durable-mem",
            key_bits: 16,
            mix: update_heavy,
            keys: KeyChoice::Uniform,
            system: System::DurableMem,
            rate_hint: 400_000.0,
        },
        Workload {
            name: "dist-tcp",
            key_bits: 15,
            mix: read_mostly,
            keys: KeyChoice::Uniform,
            system: System::DistTcp,
            rate_hint: 12_000.0,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Wraps the workload's file before the client threads see it (the
/// correctness gate's own test injects a faulty file this way).
pub type Wrap = fn(Arc<Solution2>) -> Arc<dyn ConcurrentHashFile>;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrink the key space to 2^10 (tests).
    pub tiny: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    /// Optional wrapper around the local file.
    pub wrap: Option<Wrap>,
}

impl Options {
    /// Defaults for a workload: seed 1, 10 s, untraced, full size.
    pub fn new(workload: Workload) -> Self {
        Options {
            workload,
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            wrap: None,
        }
    }

    fn key_bits(&self) -> u32 {
        if self.tiny {
            10
        } else {
            self.workload.key_bits
        }
    }

    fn plan_ops(&self) -> usize {
        if self.tiny {
            TINY_PLAN_OPS
        } else {
            PLAN_OPS
        }
    }
}

// ---------------------------------------------------------------------
// The system under test.

struct Durable {
    disk: DiskHandle,
    wal: Arc<DurableStore>,
    dcfg: DurableConfig,
    cfg: HashFileConfig,
}

struct Local {
    inner: Arc<Solution2>,
    file: Arc<dyn ConcurrentHashFile>,
    metrics: MetricsHandle,
    durable: Option<Durable>,
}

struct Dist {
    nodes: Vec<ServeNode>,
    conn: TcpClusterClient,
    page_size: usize,
}

enum Sut {
    Local(Local),
    Dist(Dist),
}

impl Sut {
    /// Every registry the system reports through, with its role.
    fn registries(&self) -> Vec<(Role, MetricsHandle)> {
        match self {
            Sut::Local(l) => vec![(Role::Local, l.metrics.clone())],
            Sut::Dist(d) => {
                let mut v = vec![(Role::Client, d.conn.metrics())];
                for (i, n) in d.nodes.iter().enumerate() {
                    let role = if i < 2 { Role::Dir } else { Role::Bucket };
                    v.push((role, n.metrics()));
                }
                v
            }
        }
    }

    fn drive(
        &self,
        plan: &Plan,
        states: &mut [ThreadState],
        seconds: f64,
        upto: usize,
        traced: bool,
    ) -> Phase {
        match self {
            Sut::Local(l) => {
                let file: &dyn ConcurrentHashFile = &*l.file;
                drive(plan, states, |_| file, seconds, upto, traced)
            }
            Sut::Dist(d) => drive(plan, states, |_| d.conn.client(), seconds, upto, traced),
        }
    }

    /// Insert each thread's preload, in parallel.
    fn preload(&self, plan: &Plan) -> Result<(), String> {
        let one = |t: usize, ins: &dyn Fn(Key, Value) -> ceh_types::Result<InsertOutcome>| {
            for &k in &plan.preload[t] {
                match ins(Key(k), Value(value_of(k))) {
                    Ok(InsertOutcome::Inserted) => {}
                    other => return Err(format!("preload insert {k}: {other:?}")),
                }
            }
            Ok(())
        };
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..plan.threads())
                .map(|t| {
                    let one = &one;
                    s.spawn(move || match self {
                        Sut::Local(l) => one(t, &|k, v| l.file.insert(k, v)),
                        Sut::Dist(d) => {
                            let c = d.conn.client();
                            one(t, &|k, v| c.insert(k, v))
                        }
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("preload thread panicked"))
                .collect::<Result<Vec<()>, String>>()
        })?;
        Ok(())
    }

    /// Bytes the store holds.
    fn stored_bytes(&self, snap: &Snap) -> f64 {
        match self {
            Sut::Local(l) => match &l.durable {
                Some(d) => {
                    let image = d.disk.snapshot();
                    (image.frames.len() + image.wal.len()) as f64
                }
                None => {
                    let store = l.inner.core().store();
                    (store.allocated_pages() * store.page_size()) as f64
                }
            },
            Sut::Dist(d) => snap.pages(Role::Bucket) as f64 * d.page_size as f64,
        }
    }

    /// Shut everything down.
    fn teardown(self) {
        match self {
            Sut::Local(l) => drop(l),
            Sut::Dist(d) => {
                d.conn.shutdown_cluster();
                for n in d.nodes {
                    let _ = n.join();
                }
            }
        }
    }
}

fn build_volatile(cfg: &HashFileConfig, wrap: Option<Wrap>) -> Result<Sut, String> {
    let m = MetricsHandle::new();
    let store = PageStore::new_shared_with_metrics(
        PageStoreConfig {
            page_size: Bucket::page_size_for(cfg.bucket_capacity),
            ..Default::default()
        },
        &m,
    );
    let locks = Arc::new(LockManager::with_metrics(LockManagerConfig::default(), &m));
    let core = FileCore::with_parts_metrics(cfg.clone(), store, locks, hash_key, &m)
        .map_err(|e| format!("building the file: {e}"))?;
    Ok(local(Solution2::from_core(core), m, None, wrap))
}

fn local(
    inner: Solution2,
    metrics: MetricsHandle,
    durable: Option<Durable>,
    wrap: Option<Wrap>,
) -> Sut {
    let inner = Arc::new(inner);
    let file: Arc<dyn ConcurrentHashFile> = match wrap {
        Some(w) => w(Arc::clone(&inner)),
        None => Arc::clone(&inner) as Arc<dyn ConcurrentHashFile>,
    };
    Sut::Local(Local {
        inner,
        file,
        metrics,
        durable,
    })
}

fn durable_config() -> (HashFileConfig, DurableConfig) {
    let cfg = HashFileConfig::default().with_bucket_capacity(DURABLE_BUCKET);
    let dcfg = DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(DURABLE_BUCKET),
            ..Default::default()
        },
        ..Default::default()
    };
    (cfg, dcfg)
}

fn build_durable(wrap: Option<Wrap>) -> Result<Sut, String> {
    let (cfg, dcfg) = durable_config();
    let m = MetricsHandle::new();
    let disk = DiskHandle::new(dcfg.page.page_size);
    let wal = DurableStore::with_disk(disk.clone(), dcfg.clone(), &m)
        .map_err(|e| format!("durable store: {e}"))?;
    let locks = Arc::new(LockManager::with_metrics(LockManagerConfig::default(), &m));
    let core = FileCore::with_durable_metrics(cfg.clone(), Arc::clone(&wal), locks, hash_key, &m)
        .map_err(|e| format!("durable hash file: {e}"))?;
    let durable = Durable {
        disk,
        wal,
        dcfg,
        cfg,
    };
    Ok(local(Solution2::from_core(core), m, Some(durable), wrap))
}

fn free_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let ls: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserving a loopback port: {e}"))?;
    ls.iter()
        .map(|l| l.local_addr().map_err(|e| e.to_string()))
        .collect()
}

fn build_dist() -> Result<Sut, String> {
    let addrs = free_addrs(4)?;
    let spec = ClusterSpec {
        nodes: vec![
            (NodeRole::Dir, addrs[0]),
            (NodeRole::Dir, addrs[1]),
            (NodeRole::Bucket, addrs[2]),
            (NodeRole::Bucket, addrs[3]),
        ],
    };
    let opts = NodeOptions {
        file: HashFileConfig::default(),
        ..Default::default()
    };
    let stop = |nodes: Vec<ServeNode>| {
        for n in nodes {
            n.plane().close();
            let _ = n.join();
        }
    };
    let mut nodes = Vec::new();
    for i in 0..spec.nodes.len() {
        match ServeNode::start(&spec, i, &opts) {
            Ok(n) => nodes.push(n),
            Err(e) => {
                stop(nodes);
                return Err(format!("starting node {i}: {e}"));
            }
        }
    }
    let retry = RetryPolicy::default().with_timeout_ms(10_000);
    let conn = match TcpClusterClient::connect(&spec, 100, retry, &opts) {
        Ok(c) => c,
        Err(e) => {
            stop(nodes);
            return Err(format!("connecting: {e}"));
        }
    };
    Ok(Sut::Dist(Dist {
        nodes,
        conn,
        page_size: Bucket::page_size_for(opts.file.bucket_capacity),
    }))
}

fn build(opts: &Options) -> Result<Sut, String> {
    match &opts.workload.system {
        System::Volatile(cfg) => build_volatile(cfg, opts.wrap),
        System::DurableMem => build_durable(opts.wrap),
        System::DistTcp => {
            // Reserved ports can be taken before the nodes bind them.
            let mut last = String::new();
            for _ in 0..3 {
                match build_dist() {
                    Ok(s) => return Ok(s),
                    Err(e) => last = e,
                }
            }
            Err(last)
        }
    }
}

/// Seconds of unmeasured warm-up, at the expected rate, before a
/// measured phase of `seconds`.
fn warmup_s(seconds: f64) -> f64 {
    (seconds * 0.1).min(1.0)
}

/// Longest the warm-up may take on a machine far slower than expected.
const WARMUP_CAP_S: f64 = 20.0;

/// Generate the plan, build, preload. `plan_made` runs between the
/// first two steps.
fn setup(opts: &Options, plan_made: impl FnOnce()) -> Result<(Sut, Plan), String> {
    let w = &opts.workload;
    let plan = Plan::generate(
        opts.seed,
        opts.key_bits(),
        THREADS,
        opts.plan_ops(),
        w.mix,
        w.keys,
    );
    plan_made();
    let sut = build(opts)?;
    if let Err(e) = sut.preload(&plan) {
        sut.teardown();
        return Err(e);
    }
    Ok((sut, plan))
}

// ---------------------------------------------------------------------
// Metrics across registries.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Local,
    Client,
    Dir,
    Bucket,
}

/// Snapshots of every registry of the system at one instant.
struct Snap(Vec<(Role, MetricsSnapshot, BTreeMap<String, HistogramCapture>)>);

impl Snap {
    fn take(sut: &Sut) -> Snap {
        Snap(
            sut.registries()
                .into_iter()
                .map(|(r, m)| (r, m.snapshot(), m.capture_hists()))
                .collect(),
        )
    }

    /// Counter deltas from `earlier` (histograms as windows).
    fn since(&self, earlier: &Snap) -> Delta {
        Delta(
            self.0
                .iter()
                .zip(&earlier.0)
                .map(|((r, s, h), (_, s0, h0))| {
                    let empty = HistogramCapture::default();
                    let wins = h
                        .iter()
                        .map(|(k, c)| (k.clone(), c.since(h0.get(k).unwrap_or(&empty))))
                        .collect();
                    (*r, s.since(s0), wins)
                })
                .collect(),
        )
    }

    /// Pages allocated and not freed on registries of `role`.
    fn pages(&self, role: Role) -> u64 {
        self.0
            .iter()
            .filter(|(r, ..)| *r == role)
            .map(|(_, s, _)| {
                s.counter("storage.allocs")
                    .saturating_sub(s.counter("storage.deallocs"))
            })
            .sum()
    }
}

struct Delta(
    Vec<(
        Role,
        MetricsSnapshot,
        BTreeMap<String, ceh_obs::HistogramWindow>,
    )>,
);

impl Delta {
    fn counter(&self, name: &str) -> u64 {
        self.0.iter().map(|(_, s, _)| s.counter(name)).sum()
    }

    fn prefix(&self, prefix: &str) -> u64 {
        self.0.iter().map(|(_, s, _)| s.prefix_sum(prefix)).sum()
    }

    fn hist_count(&self, name: &str) -> u64 {
        self.0
            .iter()
            .filter_map(|(_, _, h)| h.get(name))
            .map(|w| w.count())
            .sum()
    }

    fn hist_sum(&self, name: &str) -> u64 {
        self.0
            .iter()
            .filter_map(|(_, _, h)| h.get(name))
            .map(|w| w.sum())
            .sum()
    }

    /// A quantile of `name` over every registry that recorded it: the
    /// sample-weighted mean of the registries' quantiles, in µs.
    fn quantile_us(&self, name: &str, q: f64) -> f64 {
        let (mut num, mut den) = (0.0, 0.0);
        for w in self.0.iter().filter_map(|(_, _, h)| h.get(name)) {
            num += w.quantile(q) as f64 * w.count() as f64;
            den += w.count() as f64;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den / 1e3
        }
    }
}

// ---------------------------------------------------------------------
// Probes: time one layer's public function on the workload's own
// pages and keys, after the measured phases.

/// Median over batches of the mean cost of one call, in ns.
fn time_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..15)
        .map(|b| {
            let t = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

fn probe_local(core: &FileCore, plan: &Plan, m: &mut Metrics) {
    use std::hint::black_box;
    let keys: Vec<u64> = plan.ops[0].iter().take(4096).map(|p| p.key()).collect();
    let store = core.store();
    let ids = store.allocated_page_ids();
    let step = (ids.len() / 64).max(1);
    let pages: Vec<_> = ids.iter().step_by(step).copied().take(64).collect();
    let mut bufs: Vec<PageBuf> = Vec::new();
    for &p in &pages {
        let mut b = store.new_buf();
        if store.read(p, &mut b).is_ok() && Bucket::decode(&b).is_ok() {
            bufs.push(b);
        }
    }
    if keys.is_empty() || bufs.is_empty() {
        return;
    }
    let buckets: Vec<Bucket> = bufs.iter().filter_map(|b| Bucket::decode(b).ok()).collect();
    let hash = time_ns(4096, |i| {
        black_box(hash_key(black_box(Key(keys[i % keys.len()]))));
    });
    let decode = time_ns(512, |i| {
        black_box(Bucket::decode(black_box(&bufs[i % bufs.len()])).ok());
    });
    let mut scratch = store.new_buf();
    let encode = time_ns(512, |i| {
        black_box(buckets[i % buckets.len()].encode(&mut scratch).ok());
    });
    let locks = core.locks();
    let owner = locks.new_owner();
    let rho = time_ns(2048, |i| {
        let id = LockId::Page(pages[i % pages.len()]);
        locks.lock(owner, id, LockMode::Rho);
        locks.unlock(owner, id, LockMode::Rho);
    });
    let mut buf = store.new_buf();
    let read = time_ns(1024, |i| {
        black_box(store.read(pages[i % pages.len()], &mut buf).ok());
    });
    let dir = core.dir();
    let pseudokeys: Vec<_> = keys.iter().map(|&k| hash_key(Key(k))).collect();
    let lookup = time_ns(4096, |i| {
        black_box(dir.lookup(black_box(pseudokeys[i % pseudokeys.len()])));
    });
    m.set("types.hash_ns", hash);
    m.set("types.decode_ns", decode);
    m.set("types.encode_ns", encode);
    m.set("locks.rho_pair_ns", rho);
    m.set("storage.read_ns", read);
    m.set("core.dir_lookup_ns", lookup);
    m.set("find.hash_ns", hash);
    m.set("find.dir_lookup_ns", lookup);
    m.set("find.lock_ns", 2.0 * rho);
    m.set("find.page_read_ns", read);
    m.set("find.decode_ns", decode);
    let attributed = hash + lookup + 2.0 * rho + read + decode;
    let find = m.get("core.find_ns").unwrap_or(0.0);
    m.set("find.unattributed_ns", find - attributed);
}

/// Half the median round trip of a `Status` request to a directory
/// manager: one-way delivery over the client's TCP plane.
fn probe_delivery(d: &Dist) -> f64 {
    let plane = d.conn.plane();
    let Some(dir) = Transport::<Msg>::lookup(plane, "dir-mgr-0") else {
        return 0.0;
    };
    let (reply_port, rx) = Transport::<Msg>::create_port(plane);
    let mut rtts = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        plane.send(dir, Msg::Status { reply_port });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Msg::StatusReply { .. }) => rtts.push(t.elapsed().as_nanos() as f64),
            _ => break,
        }
    }
    median(&rtts) / 2.0 / 1e3
}

// ---------------------------------------------------------------------
// Checks after the run.

/// Threads for the final whole-key-space check (more than the client
/// threads: over TCP the check is latency-bound).
const CHECK_THREADS: usize = 8;

/// Find every key but the `uncertain` ones through `find` (several
/// threads) and compare with the model; returns the contradictions.
fn check_all_keys<F>(
    live: &[bool],
    uncertain: &HashSet<u64>,
    make: impl Fn() -> F + Sync,
) -> Vec<String>
where
    F: Fn(Key) -> ceh_types::Result<Option<Value>>,
{
    let n = live.len();
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                let make = &make;
                s.spawn(move || {
                    let find = make();
                    let mut bad = Vec::new();
                    for k in (t..n).step_by(CHECK_THREADS) {
                        if uncertain.contains(&(k as u64)) {
                            continue;
                        }
                        let got = find(Key(k as u64));
                        let ok = match &got {
                            Ok(Some(v)) => live[k] && v.0 == value_of(k as u64),
                            Ok(None) => !live[k],
                            Err(_) => false,
                        };
                        if !ok && bad.len() < 8 {
                            bad.push(format!(
                                "final find {k}: {got:?}, model says live={}",
                                live[k]
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    })
}

/// Counts that must be nonzero where the layer runs.
fn zero_gate(w: &Workload, d: &Delta) -> Vec<String> {
    let mut must = vec![
        ("locks.grants.*", d.prefix("locks.grants.")),
        ("storage.reads", d.counter("storage.reads")),
        ("storage.writes", d.counter("storage.writes")),
    ];
    let counters: &[&str] = match w.system {
        System::Volatile(_) => &["core.finds_hit", "core.inserts", "core.deletes"],
        System::DurableMem => &[
            "core.inserts",
            "core.deletes",
            "storage.wal.commits",
            "storage.wal.sync_bytes",
            "storage.wal.checkpoints",
            "storage.backend.syncs",
            "storage.backend.frame_writes",
            "storage.cache.misses",
        ],
        System::DistTcp => &["dist.requests", "dist.bucket_ops"],
    };
    must.extend(counters.iter().map(|&c| (c, d.counter(c))));
    if let System::DistTcp = w.system {
        must.push(("net.sent.*", d.prefix("net.sent.")));
        let frames = "net.tcp.frame.send_bytes";
        must.push((frames, d.hist_count(frames)));
    }
    must.into_iter()
        .filter(|&(_, v)| v == 0)
        .map(|(name, _)| format!("layer count {name} read zero on {}", w.name))
        .collect()
}

// ---------------------------------------------------------------------
// One run.

/// Run a workload: set up, measure, probe, check. `Err` means the run
/// could not be carried out at all (set-up failed).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = &opts.workload;
    // Resident memory once the plan is generated and before the system is
    // built: `peak_rss_mb` counts what the system adds to it.
    let mut base_mb = 0.0;
    let t = Instant::now();
    let (sut, plan) = setup(opts, || base_mb = proc_mb("VmRSS"))?;
    let mut setup_times = vec![t.elapsed().as_secs_f64()];
    let mut out = Outcome::default();
    let m = &mut out.metrics;
    let mut states = ThreadState::for_plan(&plan);

    // Warm-up: caches fill and the preload's dirty pages are checkpointed
    // before the clock starts. Its answers are checked like any others. It
    // is a fixed number of operations, so the file's size is sampled at the
    // same point of the plan however fast the run goes (files only grow:
    // a faster run splits more buckets in the same time).
    let warm_ops = (w.rate_hint * warmup_s(opts.seconds) / 4.0 / THREADS as f64) as usize;
    let warm = sut.drive(&plan, &mut states, WARMUP_CAP_S, warm_ops, false);
    let done: Vec<usize> = states.iter().map(|s| s.next).collect();
    let live = plan.live_count(&done).max(1) as f64;
    m.set(
        "space_amp",
        sut.stored_bytes(&Snap::take(&sut)) / (live * RECORD_BYTES),
    );
    let before = Snap::take(&sut);
    // A traced run splits its time between an untraced phase (counts,
    // and the baseline for the tracing overhead) and a traced one.
    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (n, window_s) = if opts.trace {
        (1, untraced_s)
    } else {
        (WINDOWS, untraced_s / WINDOWS as f64)
    };
    let windows: Vec<Phase> = (0..n)
        .map(|_| sut.drive(&plan, &mut states, window_s, usize::MAX, false))
        .collect();
    let d = Snap::take(&sut).since(&before);
    // Peak memory of the system in use, before the checks' own buffers and
    // the recovered copy of the durable file.
    m.set("peak_rss_mb", proc_mb("VmHWM") - base_mb);
    let traced = opts
        .trace
        .then(|| sut.drive(&plan, &mut states, opts.seconds / 2.0, usize::MAX, true));
    let untraced_ops: u64 = windows.iter().map(|w| w.ops).sum();
    let ops = untraced_ops.max(1) as f64;
    let traced_ops = traced.as_ref().map_or(0, |b| b.ops);

    // End to end, from the untraced windows: each window's figure, then
    // the figure a quarter of the way from the best window to the worst.
    // Other work on the host only ever makes a window worse (on a shared
    // VM, stolen CPU time puts milliseconds into the latency tail), so the
    // good end of the windows is the steadier estimate of the system's
    // own cost; a change to the system moves every window. A window with
    // no operation of a kind gives no figure for it.
    let mut per_window: [Vec<f64>; 5] = Default::default();
    for w in &windows {
        per_window[0].push(w.ops_per_s());
        let quantiles = w.lat.iter().map(|h| h.quantile(0.5));
        for (vals, q) in per_window[1..4].iter_mut().zip(quantiles) {
            vals.extend(q.map(|ns| ns / 1e3));
        }
        per_window[4].extend(w.pooled().quantile(0.99).map(|ns| ns / 1e3));
    }
    eprintln!(
        "perfbench: per-window ops/s {:.0?}, p99 us {:.2?}",
        per_window[0], per_window[4]
    );
    for (name, vals) in [
        "ops_per_s",
        "find_p50_us",
        "insert_p50_us",
        "delete_p50_us",
        "p99_us",
    ]
    .into_iter()
    .zip(&per_window)
    {
        let q = if name == "ops_per_s" { 0.75 } else { 0.25 };
        m.set(name, quantile(vals, q));
    }

    count_metrics(&d, ops, &sut, m);

    let mut notes = zero_gate(w, &d);
    if d.counter("net.tcp.reconnect") + d.counter("net.tcp.shed") > 0 {
        notes.push("TCP reconnects or shed frames during the measured phase".into());
    }

    // The traced phase.
    if let Some(b) = &traced {
        let tps = b.ops_per_s();
        m.set("obs.traced_ops_per_s", tps);
        m.set(
            "obs.trace_overhead_frac",
            1.0 - tps / m.get("ops_per_s").unwrap_or(tps).max(1e-9),
        );
        let layer = if matches!(sut, Sut::Dist(_)) {
            "dist"
        } else {
            "core"
        };
        if layer == "core" {
            let p50 = |h: &Hist| h.quantile(0.5).unwrap_or(0.0);
            m.set("core.find_ns", p50(&b.lat[0]));
            m.set("core.insert_ns", p50(&b.lat[1]));
            m.set("core.delete_ns", p50(&b.lat[2]));
        }
        let path = opts
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", w.name, opts.seed));
        if let Err(e) = trace::write(&path, &b.spans, layer) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        match &sut {
            Sut::Local(l) => probe_local(l.inner.core(), &plan, m),
            Sut::Dist(dd) => m.set("net.delivery_p50_us", probe_delivery(dd)),
        }
    }

    // Checks and workload properties.
    let done: Vec<usize> = states.iter().map(|s| s.next).collect();
    let live = plan.live_after(&done);
    let live_end = live.iter().filter(|&&l| l).count();
    let (hit_ratio, distinct) = plan.touched(&done);
    m.set("workload.find_hit_ratio", hit_ratio);
    m.set("workload.distinct_keys", distinct as f64);
    m.set("workload.live_start", plan.live_start() as f64);
    m.set("workload.live_end", live_end as f64);
    let uncertain: HashSet<u64> = states
        .iter()
        .flat_map(|s| s.uncertain().iter().copied())
        .collect();
    let final_snap = Snap::take(&sut);
    match &sut {
        Sut::Local(l) => {
            let core = l.inner.core();
            m.set("storage.pages", core.store().allocated_pages() as f64);
            m.set("core.dir_depth", f64::from(core.dir().depth()));
        }
        Sut::Dist(_) => m.set("storage.pages", final_snap.pages(Role::Bucket) as f64),
    }
    notes.extend(final_checks(sut, &live, &uncertain, m));
    if !opts.trace {
        setup_times.extend(time_setups(opts, SETUP_REPS - 1)?);
    }
    out.metrics.set("setup_s", median(&setup_times));

    out.attempted = warm.ops + untraced_ops + traced_ops;
    out.failed = states.iter().map(|s| s.failed).sum();
    out.metrics
        .set("failed_frac", ratio(out.failed, out.attempted));
    let wrong: u64 = states.iter().map(|s| s.wrong).sum();
    for s in &mut states {
        notes.append(&mut s.notes);
    }
    out.correct = wrong == 0 && notes.is_empty();
    out.notes = notes;
    Ok(out)
}

/// Time `n` more set-ups, each torn down before the next begins. They run
/// after the measured system is gone, so memory they leave with the
/// allocator does not count in its `peak_rss_mb`. A cluster is shut down
/// in the background (that takes seconds); all have stopped on return.
fn time_setups(opts: &Options, n: usize) -> Result<Vec<f64>, String> {
    std::thread::scope(|s| {
        let mut times = Vec::new();
        for _ in 0..n {
            let t = Instant::now();
            let (sut, _plan) = setup(opts, || {})?;
            times.push(t.elapsed().as_secs_f64());
            match sut {
                Sut::Dist(_) => drop(s.spawn(move || sut.teardown())),
                Sut::Local(_) => sut.teardown(),
            }
        }
        Ok(times)
    })
}

/// Per-layer counts, per operation of the untraced phase (`d`, `ops`).
fn count_metrics(d: &Delta, ops: f64, sut: &Sut, m: &mut Metrics) {
    let per_op = |n: u64| n as f64 / ops;
    let per_kop = |n: u64| n as f64 * 1e3 / ops;
    m.set("locks.grants_per_op", per_op(d.prefix("locks.grants.")));
    m.set("locks.waits_per_kop", per_kop(d.prefix("locks.waits.")));
    m.set(
        "locks.wait_ns_per_op",
        per_op(
            ["rho", "alpha", "xi"]
                .iter()
                .map(|k| d.hist_sum(&format!("locks.wait_ns.{k}")))
                .sum(),
        ),
    );
    m.set(
        "locks.conversions_per_kop",
        per_kop(d.counter("locks.conversions")),
    );
    m.set("storage.reads_per_op", per_op(d.counter("storage.reads")));
    m.set("storage.writes_per_op", per_op(d.counter("storage.writes")));
    m.set(
        "storage.wal.commits_per_op",
        per_op(d.counter("storage.wal.commits")),
    );
    m.set(
        "storage.backend.syncs_per_op",
        per_op(d.counter("storage.backend.syncs")),
    );
    m.set(
        "storage.backend.sync_p50_us",
        d.quantile_us("storage.backend.sync_ns", 0.5),
    );
    m.set(
        "storage.backend.sync_p99_us",
        d.quantile_us("storage.backend.sync_ns", 0.99),
    );
    let (hits, misses) = (
        d.counter("storage.cache.hits"),
        d.counter("storage.cache.misses"),
    );
    m.set("storage.cache.hit_ratio", ratio(hits, hits + misses));
    if let Sut::Local(Local {
        durable: Some(dur), ..
    }) = sut
    {
        let written = d.counter("storage.wal.sync_bytes")
            + d.counter("storage.backend.frame_writes") * dur.dcfg.page.page_size as u64;
        let changed = (d.counter("core.inserts") + d.counter("core.deletes")) as f64 * RECORD_BYTES;
        m.set("storage.write_amp", written as f64 / changed.max(1.0));
    }
    m.set(
        "storage.cache.evictions_per_op",
        per_op(d.counter("storage.cache.evictions")),
    );
    m.set(
        "storage.wal.checkpoints_per_kop",
        per_kop(d.counter("storage.wal.checkpoints")),
    );
    m.set("core.splits_per_kop", per_kop(d.counter("core.splits")));
    m.set(
        "core.wrong_bucket_per_kop",
        per_kop(d.counter("core.wrong_bucket_recoveries")),
    );
    m.set(
        "core.insert_retries_per_kop",
        per_kop(d.counter("core.insert_retries")),
    );
    let (fh, fm) = (d.counter("core.finds_hit"), d.counter("core.finds_miss"));
    m.set("core.find_hit_ratio", ratio(fh, fh + fm));
    m.set("dist.msgs_per_op", per_op(d.prefix("net.sent.")));
    m.set("dist.request_p50_us", d.quantile_us("dist.request_ns", 0.5));
    m.set(
        "dist.bucket_op_p50_us",
        d.quantile_us("dist.bucket_op_ns", 0.5),
    );
    m.set(
        "dist.recovery_hops_per_kop",
        per_kop(d.counter("dist.recovery_hops")),
    );
    m.set(
        "dist.retries_per_kop",
        per_kop(d.counter("dist.client.retries") + d.counter("dist.redrives")),
    );
    m.set(
        "net.frame_bytes_per_op",
        per_op(d.hist_sum("net.tcp.frame.send_bytes") + d.hist_sum("net.tcp.frame.recv_bytes")),
    );
    m.set("net.tcp.reconnects", d.counter("net.tcp.reconnect") as f64);
    m.set("net.tcp.shed", d.counter("net.tcp.shed") as f64);
}

/// The end-of-run gate: structure, length and every key against the
/// model (after a power cut and recovery for the durable workload). Shuts
/// the system down. `uncertain` holds the keys whose last update failed:
/// the model cannot vouch for them, so they are not read back and `len()`
/// may differ from the model by at most their number.
fn final_checks(sut: Sut, live: &[bool], uncertain: &HashSet<u64>, m: &mut Metrics) -> Vec<String> {
    let live_end = live.iter().filter(|&&l| l).count();
    let mut notes = Vec::new();
    match sut {
        Sut::Local(l) => {
            {
                let core = l.inner.core();
                if let Err(e) = invariants::check_concurrent_file(core) {
                    notes.push(format!("invariants: {e}"));
                }
                if core.len().abs_diff(live_end) > uncertain.len() {
                    notes.push(format!(
                        "len() is {} but the model holds {live_end} ({} keys uncertain)",
                        core.len(),
                        uncertain.len()
                    ));
                }
            }
            match l.durable {
                None => notes.extend(check_all_keys(live, uncertain, || |k| l.inner.find(k))),
                Some(dur) => {
                    let Durable {
                        disk,
                        wal,
                        dcfg,
                        cfg,
                    } = dur;
                    wal.power_off();
                    drop((l.file, l.inner, wal));
                    match recover(disk, &cfg, &dcfg, &l.metrics) {
                        Ok((file, ms)) => {
                            m.set("storage.recover_ms", ms);
                            if let Err(e) = invariants::check_concurrent_file(file.core()) {
                                notes.push(format!("invariants after recovery: {e}"));
                            }
                            notes.extend(check_all_keys(live, uncertain, || |k| file.find(k)));
                        }
                        Err(e) => notes.push(e),
                    }
                }
            }
        }
        Sut::Dist(dist) => {
            notes.extend(check_all_keys(live, uncertain, || {
                let c = dist.conn.client();
                move |k| c.find(k)
            }));
            Sut::Dist(dist).teardown();
        }
    }
    notes
}

/// Cold reopen of what the medium kept through the power cut (only the
/// synced bytes), and timed recovery from it.
fn recover(
    disk: DiskHandle,
    cfg: &HashFileConfig,
    dcfg: &DurableConfig,
    m: &MetricsHandle,
) -> Result<(Solution2, f64), String> {
    let disk = DiskHandle::from_image(disk.snapshot());
    let t = Instant::now();
    let locks = Arc::new(LockManager::with_metrics(LockManagerConfig::default(), m));
    let (core, _report) =
        FileCore::recover_durable_metrics(cfg.clone(), &disk, dcfg.clone(), locks, hash_key, m)
            .map_err(|e| format!("recovery: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((Solution2::from_core(core), ms))
}
