//! Cold-vs-warm probe for the corpus snapshot cache.
//!
//! Builds the same 240-source corpus as the `peak_rss` probe, writes it as
//! TSV, and times the two input paths an operator actually experiences:
//!
//! * **cold** — parse the TSV and construct every round-0 fact table, the
//!   work a run without `--snapshot-cache` performs before its first
//!   detection round;
//! * **warm** — memory-map the snapshot a previous run left behind and
//!   reassemble the corpus zero-copy.
//!
//! Both paths then drive the full MIDAS framework and the probe asserts the
//! reports are bit-identical (same slices, same profit bits), so the
//! speedup it prints is never bought with a result change. Output is one
//! JSON line consumed by `scripts/bench_smoke.sh`, which gates on
//! `speedup >= 5`.

use criterion::peak_rss_kb;
use midas_cli::snapshot_cache::load_inputs_cached;
use midas_core::{FactTable, Framework, FrameworkReport, MidasAlg, MidasConfig, SourceFacts};
use midas_kb::{Fact, Interner, KnowledgeBase};
use midas_weburl::SourceUrl;
use std::collections::BTreeMap;
use std::time::Instant;

/// 12 domains × 20 pages = 240 sources (the `peak_rss` corpus shape).
fn corpus(t: &mut Interner, entities: usize) -> Vec<SourceFacts> {
    let mut sources = Vec::new();
    for d in 0..12 {
        for p in 0..20 {
            let mut facts = Vec::with_capacity(entities * 6);
            for e in 0..entities {
                let name = format!("e{d}_{p}_{e}");
                facts.push(Fact::intern(t, &name, "kind", &format!("vertical{d}")));
                facts.push(Fact::intern(t, &name, "site", &format!("dir{d}")));
                facts.push(Fact::intern(t, &name, "group", &format!("g{}", e % 4)));
                facts.push(Fact::intern(t, &name, "band", &format!("b{}", e % 8)));
                facts.push(Fact::intern(t, &name, "tier", &format!("t{}", e % 16)));
                facts.push(Fact::intern(t, &name, "serial", &format!("s{d}_{p}_{e}")));
            }
            let url = SourceUrl::parse(&format!("http://domain{d}.example.org/dir/page{p}.html"))
                .expect("static url");
            sources.push(SourceFacts::new(url, facts));
        }
    }
    sources
}

fn run_framework(
    config: &MidasConfig,
    threads: usize,
    sources: Vec<SourceFacts>,
    kb: &KnowledgeBase,
    tables: Option<&BTreeMap<SourceUrl, FactTable>>,
) -> FrameworkReport {
    let alg = MidasAlg::new(config.clone());
    let fw = Framework::new(&alg, config.cost).with_threads(threads);
    match tables {
        Some(t) => fw.run_with_tables(sources, kb, t),
        None => fw.run(sources, kb),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut entities = 250usize;
    let mut threads = 1usize;
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--entities" => entities = value("--entities").parse().expect("entity count"),
            "--threads" => threads = value("--threads").parse().expect("thread count"),
            other => panic!(
                "unknown argument {other:?} (usage: snapshot_coldwarm [--entities N] [--threads N])"
            ),
        }
    }

    let dir = std::env::temp_dir().join(format!("midas_snapshot_coldwarm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let facts_path = dir.join("facts.tsv");
    let cache_dir = dir.join("cache");
    let cache_s = cache_dir.to_str().expect("utf-8 path");
    let facts_s = facts_path.to_str().expect("utf-8 path");

    {
        let mut terms = Interner::new();
        let sources = corpus(&mut terms, entities);
        assert!(sources.len() >= 240, "corpus shrank: {}", sources.len());
        let f = std::fs::File::create(&facts_path).expect("create facts file");
        midas_cli::facts_io::write_facts(std::io::BufWriter::new(f), &terms, &sources)
            .expect("write facts");
    }

    // Cold path: parse + per-source fact-table construction, no cache.
    let cold_start = Instant::now();
    let cold = load_inputs_cached(facts_s, None, false, None, None).expect("cold load");
    let cold_tables: BTreeMap<SourceUrl, FactTable> = cold
        .sources
        .iter()
        .map(|s| (s.url.clone(), FactTable::build(s, &cold.kb)))
        .collect();
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;

    // Populate the cache (miss: parse + build + snapshot write)...
    let miss_start = Instant::now();
    let miss = load_inputs_cached(facts_s, None, false, Some(cache_s), None).expect("miss load");
    assert!(
        miss.notes.iter().any(|n| n.contains("write")),
        "first cached run must write the snapshot: {:?}",
        miss.notes
    );
    let miss_ms = miss_start.elapsed().as_secs_f64() * 1e3;
    drop(miss);

    // ...then measure the warm path: mmap + zero-copy reassembly.
    let warm_start = Instant::now();
    let warm = load_inputs_cached(facts_s, None, false, Some(cache_s), None).expect("warm load");
    let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    assert!(
        warm.notes.iter().any(|n| n.contains("hit")),
        "second cached run must hit: {:?}",
        warm.notes
    );
    let warm_tables = warm.tables.expect("hit returns tables");
    assert!(
        warm_tables.values().all(FactTable::is_mapped),
        "warm tables must borrow the mapping"
    );

    // Bit-identity: the two paths must produce the same report.
    let config = MidasConfig::running_example();
    let cold_report = run_framework(&config, threads, cold.sources, &cold.kb, Some(&cold_tables));
    let warm_report = run_framework(&config, threads, warm.sources, &warm.kb, Some(&warm_tables));
    assert_eq!(cold_report.slices.len(), warm_report.slices.len());
    for (a, b) in cold_report.slices.iter().zip(&warm_report.slices) {
        assert_eq!(a.source, b.source);
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.num_facts, b.num_facts);
        assert_eq!(a.num_new_facts, b.num_new_facts);
        assert_eq!(a.profit.to_bits(), b.profit.to_bits(), "profit bits");
    }

    let speedup = cold_ms / warm_ms.max(1e-3);
    println!(
        "{{\"bench\":\"snapshot/coldwarm\",\"sources\":240,\"entities\":{entities},\
         \"cold_ms\":{cold_ms:.1},\"miss_ms\":{miss_ms:.1},\"warm_ms\":{warm_ms:.1},\
         \"speedup\":{speedup:.1},\"slices\":{},\"identical\":true,\"peak_rss_kb\":{}}}",
        cold_report.slices.len(),
        peak_rss_kb(),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
