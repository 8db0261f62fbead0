//! In-process layer timer for the perfbench suite.
//!
//! Runs one campaign manifest through the public functions of each layer
//! and writes the host milliseconds spent in each, as a JSON object, for
//! `perfbench/run.py --trace 1` to reduce into per-layer metrics:
//!
//! ```text
//! perfbench-driver --manifest M --jobs N --campaign-store DIR \
//!     --replay-store DIR --artifact OUT.json --out LAYERS.json
//! ```
//!
//! Three passes, each over the manifest's resolved runs:
//!
//! * **campaign** — `Manifest::parse`, `run_campaign_store` (the code the
//!   `mondrian run` command executes, with a store under
//!   `--campaign-store`), `Campaign::to_json` (written to `--artifact`,
//!   which must match the command's own artifact byte for byte) and
//!   `run_metrics`.
//! * **replay** — the campaign's per-run work again on `--jobs` workers,
//!   with a span around every call into a layer: `Store::load_run`,
//!   `Pipeline::run_cached` (its store traffic through a timing
//!   `ExecStore` wrapper) and `Store::save_run`. The spans are written
//!   out for self-time attribution.
//! * **split** — storeless single-threaded passes that divide the
//!   pipeline's time: source generation, the reference executors over
//!   each unique source's stage chain, a cold serial pass (which warms
//!   the reference memo), a warm serial pass (the engine alone), a pass
//!   in the manifest's own schedule mode, and the planner.
//!
//! Nothing here changes what the program computes; the driver only
//! times calls into it.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mondrian_cli::campaign::{run_campaign_store, store_salt};
use mondrian_cli::manifest::{Format, Manifest};
use mondrian_pipeline::plan::{estimate_shapes, plan_pipeline};
use mondrian_pipeline::{
    run_metrics, BuildSide, Concurrency, ExecCache, ExecStore, Pipeline, PipelineConfig,
    StageEntry, StageInput, StageSpec,
};
use mondrian_store::Store;
use mondrian_workloads::Tuple;

/// The executor's default stream chunk cap, which the planner needs to
/// record only genuine deviations from it.
const STREAM_CHUNKS: usize = 8;

/// One recorded span: a call into a layer.
#[derive(Debug)]
struct SpanRec {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

thread_local! {
    /// The open spans of the current thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), next: AtomicUsize::new(0), spans: Mutex::new(Vec::new()) }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, parented to the innermost
    /// open span of this thread.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied());
        STACK.with(|s| s.borrow_mut().push(id));
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans.lock().expect("span list poisoned").push(SpanRec {
            id,
            parent,
            name,
            start_us,
            end_us,
        });
        out
    }

    /// Makes `parent` the enclosing span of this thread's next spans
    /// (worker threads inherit the span that spawned them).
    fn adopt(parent: usize) {
        STACK.with(|s| s.borrow_mut().push(parent));
    }
}

/// An `ExecStore` that delegates to [`Store`] and records a span around
/// every load and save.
#[derive(Debug)]
struct TimedStore {
    inner: Arc<Store>,
    tracer: Arc<Tracer>,
}

impl ExecStore for TimedStore {
    fn load_ref(&self, key: &[u8]) -> Option<Arc<[Tuple]>> {
        self.tracer.span("store.load", || self.inner.load_ref(key))
    }

    fn save_ref(&self, key: &[u8], rel: &[Tuple]) {
        self.tracer.span("store.save", || self.inner.save_ref(key, rel));
    }

    fn load_stage(&self, key: &[u8]) -> Option<StageEntry> {
        self.tracer.span("store.load", || self.inner.load_stage(key))
    }

    fn save_stage(&self, key: &[u8], entry: &StageEntry) {
        self.tracer.span("store.save", || self.inner.save_stage(key, entry));
    }
}

/// Milliseconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

struct Args {
    manifest: String,
    jobs: usize,
    campaign_store: String,
    replay_store: String,
    artifact: String,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut get = std::collections::HashMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        get.insert(flag, value);
    }
    let mut take = |flag: &str| get.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let args = Args {
        manifest: take("--manifest")?,
        jobs: take("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?,
        campaign_store: take("--campaign-store")?,
        replay_store: take("--replay-store")?,
        artifact: take("--artifact")?,
        out: take("--out")?,
    };
    if let Some(flag) = get.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(args)
}

/// The JSON object the driver writes, one number per key.
#[derive(Default)]
struct Out(String);

impl Out {
    fn num(&mut self, key: &str, value: f64) {
        let sep = if self.0.is_empty() { "{" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{value}");
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-driver: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text =
        std::fs::read_to_string(&args.manifest).map_err(|e| format!("{}: {e}", args.manifest))?;
    let format = Format::from_path(&args.manifest)?;
    let mut out = Out::default();

    // Campaign pass: the command's own code path.
    let (parse_ms, manifest) = timed(|| Manifest::parse(&text, format));
    let manifest = manifest?;
    let store = open_store(&args.campaign_store)?;
    let (campaign_ms, campaign) =
        timed(|| run_campaign_store(&manifest, args.jobs, Some(store), &(), |_| {}));
    let (render_ms, json) = timed(|| campaign.to_json());
    std::fs::write(&args.artifact, &json).map_err(|e| format!("{}: {e}", args.artifact))?;
    let (metrics_ms, ()) = timed(|| {
        for run in &campaign.runs {
            if let Some(report) = &run.report {
                black_box(run_metrics(report));
            }
        }
    });
    out.num("parse_ms", parse_ms);
    out.num("campaign_ms", campaign_ms);
    out.num("render_ms", render_ms);
    out.num("metrics_ms", metrics_ms);
    out.num("jobs", args.jobs as f64);
    out.num("sim_wall_ms", campaign.sim_wall_ms());
    let counters = campaign.cache.unwrap_or_default();
    out.num("store_hits", counters.hits() as f64);
    out.num("store_misses", counters.misses() as f64);
    out.num("store_bytes_written", counters.bytes_written as f64);
    out.num("store_bytes_read", counters.bytes_read as f64);

    // Replay pass: the same runs with a span around every layer call.
    let pipeline = manifest.pipeline();
    let tracer = Arc::new(Tracer::new());
    let replay_store = open_store(&args.replay_store)?;
    let (replay_ms, cache) =
        timed(|| replay(&manifest, &pipeline, args.jobs, &replay_store, &tracer));
    replay_store.flush_journal();
    out.num("replay_ms", replay_ms);
    out.num("reference_hits", cache.reference_hits() as f64);
    out.num("reference_misses", cache.reference_misses() as f64);

    split(&manifest, &pipeline, &mut out);

    let mut json = out.0;
    json.push_str(",\"spans\":[");
    let spans = tracer.spans.lock().expect("span list poisoned");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}[{},{parent},\"{}\",{:.3},{:.3}]",
            s.id, s.name, s.start_us, s.end_us
        );
    }
    json.push_str("]}\n");
    std::fs::write(&args.out, json).map_err(|e| format!("{}: {e}", args.out))
}

fn open_store(dir: &str) -> Result<Arc<Store>, String> {
    Store::open(Path::new(dir), &store_salt()).map(Arc::new).map_err(|e| format!("{dir}: {e}"))
}

/// Re-executes every run of the campaign on `jobs` workers, as
/// `run_campaign_store` does, with spans around each call into a layer.
/// Returns the store-backed reference memo the runs shared.
fn replay(
    manifest: &Manifest,
    pipeline: &Pipeline,
    jobs: usize,
    store: &Arc<Store>,
    tracer: &Arc<Tracer>,
) -> ExecCache {
    let specs = manifest.runs();
    let cache = ExecCache::with_backing(Arc::new(TimedStore {
        inner: Arc::clone(store),
        tracer: Arc::clone(tracer),
    }));
    let threads_per_run = (jobs / specs.len().max(1)).max(1);
    let plan = pipeline.plan_key();
    let next = AtomicUsize::new(0);
    tracer.span("replay", || {
        let root = STACK.with(|s| *s.borrow().last().expect("inside the replay span"));
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(specs.len()) {
                scope.spawn(|| {
                    Tracer::adopt(root);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let mut cfg = manifest.config_for(*spec);
                        cfg.threads = threads_per_run;
                        let key = format!("perfbench|{plan:016x}|{}", spec.id());
                        if tracer.span("store.load", || store.load_run(&key)).is_some() {
                            continue;
                        }
                        let report =
                            tracer.span("pipeline.run", || pipeline.run_cached(&cfg, &cache));
                        tracer.span("store.save", || store.save_run(&key, &report));
                    }
                });
            }
        });
    });
    cache
}

/// The storeless single-threaded passes that divide the pipeline's time
/// between source generation, the reference executors, the engine, the
/// schedule layer and the planner.
fn split(manifest: &Manifest, pipeline: &Pipeline, out: &mut Out) {
    let cfgs: Vec<PipelineConfig> =
        manifest.runs().into_iter().map(|spec| manifest.config_for(spec)).collect();
    let mode = manifest.concurrency;
    let serial: Vec<PipelineConfig> = cfgs
        .iter()
        .map(|c| PipelineConfig { concurrency: Concurrency::Serial, ..c.clone() })
        .collect();

    let (source_ms, ()) = timed(|| {
        for cfg in &cfgs {
            black_box(cfg.source_relation());
        }
    });
    out.num("source_ms", source_ms);

    // The reference executors once per unique source, as the memo in
    // `ExecCache` runs them; source generation is outside the timing.
    let mut seen = BTreeSet::new();
    let mut reference_ms = 0.0;
    for cfg in &cfgs {
        if !seen.insert(format!("{:?}", cfg.source_key())) {
            continue;
        }
        let source = cfg.source_relation();
        let (ms, outs) = timed(|| reference_chain(pipeline, &source, cfg.seed));
        black_box(outs);
        reference_ms += ms;
    }
    out.num("reference_ms", reference_ms);

    let memo = ExecCache::default();
    let (cold_ms, ()) = timed(|| {
        for cfg in &serial {
            black_box(pipeline.run_cached(cfg, &memo));
        }
    });
    let (engine_ms, events) =
        timed(|| serial.iter().map(|cfg| pipeline.run_cached(cfg, &memo).events()).sum::<u64>());
    out.num("serial_cold_ms", cold_ms);
    out.num("engine_ms", engine_ms);
    out.num("events", events as f64);

    // The schedule layer re-executes on top of the serial pass; a serial
    // manifest has no schedule pass to time.
    let schedule_ms = if mode == Concurrency::Serial {
        0.0
    } else {
        let (mode_ms, ()) = timed(|| {
            for cfg in &cfgs {
                black_box(pipeline.run_cached(cfg, &memo));
            }
        });
        mode_ms - engine_ms
    };
    out.num("schedule_ms", schedule_ms);

    // Only the adaptive mode calls the planner.
    let plan_ms = if mode == Concurrency::Auto {
        let dag = pipeline.dag();
        timed(|| {
            for cfg in &cfgs {
                let sys = cfg.system_config();
                let rows = cfg.tuples_per_vault * sys.total_vaults() as usize;
                let bound = cfg.key_bound.unwrap_or_else(|| (rows as u64 / 4).max(1));
                let shapes = estimate_shapes(pipeline.stages(), rows, bound);
                black_box(plan_pipeline(pipeline.stages(), &dag, &shapes, &sys, STREAM_CHUNKS));
            }
        })
        .0
    } else {
        0.0
    };
    out.num("plan_ms", plan_ms);
}

/// Every stage's reference output over `source`, wired as the DAG wires
/// the engine's stage outputs.
fn reference_chain(pipeline: &Pipeline, source: &[Tuple], seed: u64) -> Vec<Vec<Tuple>> {
    let mut outs: Vec<Vec<Tuple>> = Vec::with_capacity(pipeline.stages().len());
    for (i, stage) in pipeline.stages().iter().enumerate() {
        let inputs: Vec<&[Tuple]> = stage
            .inputs
            .iter()
            .map(|edge| match *edge {
                StageInput::Source => source,
                StageInput::Prev if i == 0 => source,
                StageInput::Prev => &outs[i - 1],
                StageInput::Stage(j) => &outs[j],
            })
            .collect();
        let build = match stage.spec {
            StageSpec::Join { build: BuildSide::Stage(j) } => Some(&outs[j][..]),
            _ => None,
        };
        let out = stage.spec.reference_output(&inputs, build, seed);
        outs.push(out);
    }
    outs
}
