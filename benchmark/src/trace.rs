//! The traced run: times calls into each layer's public functions on a
//! workload's inputs, with the program's telemetry enabled, and derives the
//! per-layer metrics from those spans and from telemetry counter deltas.
//!
//! Every phase whose counters are read runs on a fresh thread: the program
//! batches some tallies per thread and flushes them when the thread exits,
//! so joining the thread makes each phase's counter delta exact.

use crate::workload::{Kind, Workload, CACHE_DIR, TRACE_DISCOVER_ROUNDS};
use midas_cli::args::Algorithm;
use midas_cli::{checkpoint, commands, facts_io, snapshot_cache};
use midas_core::telemetry::{self, Snapshot};
use midas_core::traversal::traverse;
use midas_core::{
    Augmenter, CostModel, FactTable, MidasConfig, ProfitCtx, SliceHierarchy, SourceBudget,
};
use midas_eval::runner::AugmentationRound;
use midas_kb::Interner;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark-side span, in nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans kept in memory and written once when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// span's duration in seconds.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// A span's duration minus the time its children cover (children of
    /// one span never overlap: they run one after another).
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        out.push(']');
        out
    }
}

/// Per-layer metrics in emission order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// In-process runs of the whole command behind `commands.report_s`.
const COMMAND_REPEATS: usize = 3;

/// Counter and histogram movement between two telemetry snapshots.
struct Delta<'a>(&'a Snapshot, &'a Snapshot);

impl Delta<'_> {
    fn counter(&self, name: &str) -> u64 {
        self.1.counter(name) - self.0.counter(name)
    }

    /// Sum of every counter named `prefix*suffix`.
    fn counters(&self, prefix: &str, suffix: &str) -> u64 {
        self.1
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(n, v)| v - self.0.counter(n))
            .sum()
    }

    /// Histogram sum, nanoseconds, as seconds.
    fn hist_secs(&self, name: &str) -> f64 {
        let sum = |s: &Snapshot| s.histogram(name).map_or(0, |h| h.sum);
        (sum(self.1) - sum(self.0)) as f64 * 1e-9
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median, or 0 of nothing.
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn median_ms(xs: Vec<Duration>) -> f64 {
    median(xs.into_iter().map(|d| d.as_secs_f64() * 1e3).collect())
}

/// Runs `f` on a fresh thread and joins it, so the thread's batched
/// telemetry tallies are flushed before the caller takes a snapshot.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| match s.spawn(f).join() {
        Ok(r) => r,
        Err(panic) => std::panic::resume_unwind(panic),
    })
}

fn open(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("{path}: {e}"))
}

/// Runs the traced pass over the inputs in `dir` and prints the trace
/// document (spans, self times, telemetry snapshot, metrics) as one line.
pub fn run(w: &Workload, dir: &Path, nproc: usize) -> Result<(), String> {
    std::env::set_current_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    telemetry::enable();
    let cost = CostModel::default();
    let config = MidasConfig::default().with_cost(cost);
    let mut t = Tracer::new();
    let mut m = Metrics::default();

    // facts_io (+ the midas-kb interner and store behind it).
    let mut terms = Interner::new();
    let (sources, read_facts_s) = t.span("facts_io.read_facts", |_| {
        facts_io::read_facts(open("facts.tsv")?, &mut terms).map_err(|e| e.to_string())
    });
    let sources = sources?;
    let (kb, read_kb_s) = t.span("facts_io.read_kb", |_| {
        facts_io::read_kb(open("kb.tsv")?, &mut terms).map_err(|e| e.to_string())
    });
    let kb = kb?;
    m.put("facts_io.read_facts_s", read_facts_s, "s");
    m.put("facts_io.read_kb_s", read_kb_s, "s");
    m.put(
        "facts_io.facts",
        sources.iter().map(|s| s.len()).sum::<usize>() as f64,
        "count",
    );
    m.put("facts_io.symbols", terms.len() as f64, "count");

    // snapshot_cache: one cold load that writes the entry, then the timed
    // warm load that maps it.
    let before = telemetry::snapshot();
    let trace_cache = "trace-cache";
    let _ = std::fs::remove_dir_all(trace_cache);
    let load = || {
        snapshot_cache::load_inputs_cached(
            "facts.tsv",
            Some("kb.tsv"),
            false,
            Some(trace_cache),
            None,
        )
        .map_err(|e| e.to_string())
    };
    let (cold, _) = t.span("snapshot_cache.load_cold", |_| on_fresh_thread(load));
    cold?;
    let (warm, load_s) = t.span("snapshot_cache.load_warm", |_| on_fresh_thread(load));
    warm?;
    let after = telemetry::snapshot();
    let d = Delta(&before, &after);
    m.put("snapshot_cache.load_s", load_s, "s");
    m.put(
        "snapshot_cache.hits",
        d.counter("snapshot_cache.hits") as f64,
        "count",
    );
    m.put(
        "snapshot_cache.misses",
        d.counter("snapshot_cache.misses") as f64,
        "count",
    );
    m.put(
        "snapshot_cache.bytes_read",
        d.counter("snapshot_cache.bytes_read") as f64,
        "bytes",
    );

    // framework (+ weburl sharding): the discover algorithm at 1 thread.
    let run_framework = |threads: usize| {
        commands::run_algorithm_budgeted(
            Algorithm::Midas,
            cost,
            &sources,
            &kb,
            threads,
            SourceBudget::unlimited(),
            None,
            None,
        )
    };
    let before = telemetry::snapshot();
    let ((_, quarantine), run_s) =
        t.span("framework.run", |_| on_fresh_thread(|| run_framework(1)));
    if !quarantine.is_empty() {
        return Err(format!(
            "traced run quarantined sources:\n{}",
            quarantine.render()
        ));
    }
    let after = telemetry::snapshot();
    let d = Delta(&before, &after);
    m.put("framework.run_s", run_s, "s");
    m.put(
        "framework.shard_s",
        d.hist_secs("framework.phase.shard_ns"),
        "s",
    );
    m.put(
        "framework.detect_s",
        d.hist_secs("framework.phase.detect_ns"),
        "s",
    );
    m.put(
        "framework.consolidate_s",
        d.hist_secs("framework.phase.consolidate_ns"),
        "s",
    );
    m.put(
        "framework.detect_calls",
        d.counter("framework.detect_calls") as f64,
        "count",
    );
    m.put(
        "framework.rounds",
        d.counter("framework.rounds") as f64,
        "count",
    );
    let evaluated = d.counter("hierarchy.nodes_evaluated") as f64;
    let pruned = d.counter("hierarchy.nodes_pruned") as f64;
    m.put("hierarchy.nodes_evaluated", evaluated, "count");
    m.put("hierarchy.nodes_pruned", pruned, "count");
    m.put(
        "hierarchy.pruned_frac",
        ratio(pruned, pruned + evaluated),
        "ratio",
    );
    let calls = d.counters("kernel.", ".calls") as f64;
    let words = d.counters("kernel.", ".words") as f64;
    m.put("kernel.calls", calls, "count");
    m.put("kernel.words", words, "count");
    m.put("kernel.words_per_call", ratio(words, calls), "words/call");
    m.put("pool.tasks", d.counter("pool.tasks") as f64, "count");

    // Leaf pass: fact table, hierarchy and traversal of every page on its
    // own, through each layer's public entry point.
    let ((table_s, entities, hier_s, trav_s), _) = t.span("leaf_pass", |_| {
        on_fresh_thread(|| {
            let (mut table_s, mut entities, mut hier_s, mut trav_s) = (0.0, 0usize, 0.0, 0.0);
            for src in sources.iter().filter(|s| !s.is_empty()) {
                let t0 = Instant::now();
                let table = FactTable::build(src, &kb);
                let t1 = Instant::now();
                let ctx = ProfitCtx::new(&table, cost);
                let h = SliceHierarchy::build(&table, &ctx, &config);
                let t2 = Instant::now();
                std::hint::black_box(traverse(&h, &ctx));
                let t3 = Instant::now();
                entities += table.num_entities();
                h.recycle();
                table_s += (t1 - t0).as_secs_f64();
                hier_s += (t2 - t1).as_secs_f64();
                trav_s += (t3 - t2).as_secs_f64();
            }
            (table_s, entities, hier_s, trav_s)
        })
    });
    m.put("fact_table.build_s", table_s, "s");
    m.put("fact_table.entities", entities as f64, "count");
    m.put("hierarchy.build_s", hier_s, "s");
    m.put("traversal.traverse_s", trav_s, "s");

    // The same algorithm at the host's core count.
    let before = telemetry::snapshot();
    let _ = t.span("framework.run_nproc", |_| {
        on_fresh_thread(|| run_framework(nproc))
    });
    let after = telemetry::snapshot();
    let d = Delta(&before, &after);
    let exec_s = d.hist_secs("pool.task.exec_ns");
    let wait_s = d.hist_secs("pool.task.wait_ns");
    m.put("pool.tasks_nproc", d.counter("pool.tasks") as f64, "count");
    m.put("pool.exec_s", exec_s, "s_1in64");
    m.put("pool.wait_s", wait_s, "s_1in64");
    m.put("pool.wait_over_exec", ratio(wait_s, exec_s), "ratio");
    m.put(
        "hierarchy.nodes_evaluated_nproc",
        d.counter("hierarchy.nodes_evaluated") as f64,
        "count",
    );
    m.put(
        "kernel.calls_nproc",
        d.counters("kernel.", ".calls") as f64,
        "count",
    );

    // incremental (+ warm patch) and checkpoint: the augmentation loop at
    // 1 thread, each round's suggest, accept and checkpoint save timed.
    let max_rounds = match w.kind {
        Kind::AugmentLoop => usize::MAX,
        Kind::DiscoverLongtail | Kind::DiscoverGiant => TRACE_DISCOVER_ROUNDS,
    };
    let before = telemetry::snapshot();
    let (loop_result, _) = t.span("incremental.loop", |t| {
        on_fresh_thread(|| {
            let mut aug = Augmenter::new(config.clone(), sources.clone(), kb.clone());
            let mut log = checkpoint::RoundLog::new();
            let (mut cold, mut warm, mut accepts) = (Duration::ZERO, Vec::new(), Vec::new());
            let (mut detects, mut reused, mut save_s) = (0usize, 0usize, 0.0);
            for round in 1..=max_rounds {
                let (report, s) = t.span("incremental.suggest", |_| aug.suggest_report());
                let suggest_time = Duration::from_secs_f64(s);
                if round == 1 {
                    cold = suggest_time;
                } else {
                    warm.push(suggest_time);
                    detects += report.detect_calls;
                    reused += report.reused;
                }
                let best = report.slices.iter().find(|s| s.profit > 0.0).cloned();
                let accepted = best.map(|b| {
                    let (step, s) = t.span("incremental.accept", |_| aug.accept(&b));
                    accepts.push(Duration::from_secs_f64(s));
                    step
                });
                let done = accepted.as_ref().is_none_or(|s| s.facts_added == 0);
                let r = AugmentationRound {
                    round,
                    accepted,
                    suggest_time,
                    suggestions: report.slices.len(),
                    detect_calls: report.detect_calls,
                    reused_tasks: report.reused,
                    kb_size: aug.kb().len(),
                    budget_ms: None,
                    quarantine: report.quarantine,
                };
                let (saved, s) = t.span("checkpoint.save", |_| {
                    log.append(&terms, &r);
                    log.save(Path::new("trace-ckpt.snap"), 0)
                });
                saved.map_err(|e| format!("checkpoint save: {e}"))?;
                save_s += s;
                if done {
                    break;
                }
            }
            Ok::<_, String>((cold, warm, accepts, detects, reused, save_s))
        })
    });
    let (cold, warm, accepts, detects, reused, save_s) = loop_result?;
    let after = telemetry::snapshot();
    let d = Delta(&before, &after);
    m.put("incremental.suggest_cold_s", cold.as_secs_f64(), "s");
    m.put("incremental.suggest_warm_ms", median_ms(warm), "ms");
    m.put("incremental.accept_ms", median_ms(accepts), "ms");
    m.put(
        "incremental.reuse_frac",
        ratio(reused as f64, (reused + detects) as f64),
        "ratio",
    );
    let applied = d.counter("hierarchy.warm_patch.applied") as f64;
    let refused = d.counter("hierarchy.warm_patch.refused") as f64;
    m.put(
        "hierarchy.nodes_warm_patched",
        d.counter("hierarchy.nodes_warm_patched") as f64,
        "count",
    );
    m.put(
        "hierarchy.warm_patch_applied_frac",
        ratio(applied, applied + refused),
        "ratio",
    );
    m.put("checkpoint.save_s", save_s, "s");
    m.put(
        "checkpoint.rounds_saved",
        d.counter("checkpoint.rounds_saved") as f64,
        "count",
    );
    m.put(
        "checkpoint.bytes_appended",
        d.counter("checkpoint.bytes_appended") as f64,
        "bytes",
    );

    // commands: the whole CLI command in process, minus the input load
    // (timed just before, through the function the command calls first)
    // and minus the program's own algorithm span inside the command. What
    // is left is the report (on augment-loop also the accepts and the
    // checkpoint writes). Median of a few repetitions.
    let mut argv = w.cli_args();
    argv.extend(["--threads".to_owned(), "1".to_owned()]);
    let (algorithm_span, cache) = match w.kind {
        Kind::DiscoverLongtail | Kind::DiscoverGiant => ("eval.run_ns", None),
        Kind::AugmentLoop => ("eval.augment.suggest_ns", Some(CACHE_DIR)),
    };
    let mut rest = Vec::new();
    for _ in 0..COMMAND_REPEATS {
        let (loaded, load_s) = t.span("commands.load", |_| {
            on_fresh_thread(|| {
                snapshot_cache::load_inputs_cached("facts.tsv", Some("kb.tsv"), false, cache, None)
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        });
        loaded?;
        let before = telemetry::snapshot();
        let (ran, cli_s) = t.span("commands.run", |_| {
            on_fresh_thread(|| {
                let mut report = Vec::new();
                midas_cli::run(&argv, &mut report).map_err(|e| e.to_string())
            })
        });
        ran?;
        let after = telemetry::snapshot();
        rest.push(cli_s - load_s - Delta(&before, &after).hist_secs(algorithm_span));
    }
    m.put("commands.report_s", median(rest), "s");

    let doc = format!(
        "{{\"spans\":{},\"telemetry\":{},\"metrics\":{}}}",
        t.to_json(),
        telemetry::snapshot().to_json().trim_end(),
        m.to_json()
    );
    println!("{doc}");
    Ok(())
}
