//! The benchmark's workloads: which generator, at which size, and the
//! `midas` command line each one runs.

use midas_cli::facts_io;
use midas_cli::snapshot_cache;
use midas_extract::{reverb, slim, synthetic, Dataset};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Which corpus shape a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `midas discover` on a ReVerb-shaped long tail (empty KB).
    DiscoverLongtail,
    /// `midas discover` on one §IV-D synthetic source.
    DiscoverGiant,
    /// `midas augment --snapshot-cache` to saturation on NELL-slim.
    AugmentLoop,
}

/// A workload at a size: the full benchmark size or the self-test's small one.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Corpus shape.
    pub kind: Kind,
    /// Self-test size instead of the benchmark size.
    pub small: bool,
}

/// Slices in the §IV-D source (`b`) and how many of them are optimal (`m`).
const GIANT_SLICES: usize = 40;
const GIANT_OPTIMAL: usize = 10;
/// `--rounds` of `augment-loop`: above the saturation round, so the loop
/// always ends saturated.
const AUGMENT_ROUNDS: usize = 1000;
/// Augmentation rounds the traced run drives on the discover workloads
/// (one cold suggest, then warm ones).
pub const TRACE_DISCOVER_ROUNDS: usize = 3;
/// Snapshot cache directory of `augment-loop`, relative to the input dir.
pub const CACHE_DIR: &str = "cache";

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str, small: bool) -> Result<Workload, String> {
        let kind = match name {
            "discover-longtail" => Kind::DiscoverLongtail,
            "discover-giant" => Kind::DiscoverGiant,
            "augment-loop" => Kind::AugmentLoop,
            other => return Err(format!("unknown workload {other:?}")),
        };
        Ok(Workload { kind, small })
    }

    /// The generated corpus for `seed`.
    pub fn dataset(&self, seed: u64) -> Dataset {
        match (self.kind, self.small) {
            (Kind::DiscoverLongtail, small) => reverb::generate(&reverb::ReverbConfig {
                scale: if small { 0.0002 } else { 0.001 },
                seed,
            }),
            (Kind::DiscoverGiant, small) => synthetic::generate(&synthetic::SyntheticConfig::new(
                if small { 10_000 } else { 100_000 },
                GIANT_SLICES,
                GIANT_OPTIMAL,
                seed,
            )),
            (Kind::AugmentLoop, small) => {
                slim::generate(&slim::SlimConfig::nell(seed).with_scale(if small {
                    0.02
                } else {
                    0.05
                }))
            }
        }
    }

    /// The `midas` arguments, relative to the input directory; the driver
    /// appends `--threads N`.
    pub fn cli_args(&self) -> Vec<String> {
        let mut args = match self.kind {
            Kind::DiscoverLongtail | Kind::DiscoverGiant => vec!["discover"],
            Kind::AugmentLoop => vec!["augment"],
        };
        args.extend(["--facts", "facts.tsv", "--kb", "kb.tsv"]);
        let rounds = AUGMENT_ROUNDS.to_string();
        match self.kind {
            Kind::DiscoverLongtail => {}
            // Room for every planted slice and a few more.
            Kind::DiscoverGiant => args.extend(["--top", "100"]),
            Kind::AugmentLoop => args.extend(["--rounds", &rounds, "--snapshot-cache", CACHE_DIR]),
        }
        args.into_iter().map(str::to_owned).collect()
    }

    /// Writes the inputs for `seed` into `dir` (see the crate docs).
    pub fn generate(&self, seed: u64, dir: &Path) -> Result<(), String> {
        let ds = self.dataset(seed);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = |name: &str| -> Result<BufWriter<File>, String> {
            let path = dir.join(name);
            File::create(&path)
                .map(BufWriter::new)
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        let mut facts = file("facts.tsv")?;
        facts_io::write_facts(&mut facts, &ds.terms, &ds.sources).map_err(|e| e.to_string())?;
        facts.flush().map_err(|e| e.to_string())?;
        let mut kb = file("kb.tsv")?;
        facts_io::write_kb(&mut kb, &ds.terms, &ds.kb).map_err(|e| e.to_string())?;
        kb.flush().map_err(|e| e.to_string())?;

        let mut planted = file("planted.tsv")?;
        if self.kind == Kind::DiscoverGiant {
            for gold in &ds.truth.gold {
                let props: Vec<String> = gold
                    .properties
                    .iter()
                    .map(|&(p, v)| format!("{} = {}", ds.terms.resolve(p), ds.terms.resolve(v)))
                    .collect();
                writeln!(planted, "{}", props.join("\t")).map_err(|e| e.to_string())?;
            }
        }
        planted.flush().map_err(|e| e.to_string())?;

        let mut argv = file("argv.txt")?;
        for a in self.cli_args() {
            writeln!(argv, "{a}").map_err(|e| e.to_string())?;
        }
        argv.flush().map_err(|e| e.to_string())?;

        let mut inputs = file("inputs.json")?;
        writeln!(
            inputs,
            "{{\"facts\": {}, \"sources\": {}, \"kb_facts\": {}, \"symbols\": {}, \"planted\": {}}}",
            ds.total_facts(),
            ds.sources.len(),
            ds.kb.len(),
            ds.terms.len(),
            if self.kind == Kind::DiscoverGiant {
                ds.truth.gold.len()
            } else {
                0
            }
        )
        .map_err(|e| e.to_string())?;
        inputs.flush().map_err(|e| e.to_string())?;

        if self.kind == Kind::AugmentLoop {
            let cache = dir.join(CACHE_DIR);
            let _ = std::fs::remove_dir_all(&cache);
            let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
            let loaded = snapshot_cache::load_inputs_cached(
                &path("facts.tsv"),
                Some(&path("kb.tsv")),
                false,
                Some(&cache.to_string_lossy()),
                None,
            )
            .map_err(|e| e.to_string())?;
            if loaded.session.is_none() {
                return Err(format!("snapshot cache not written: {:?}", loaded.notes));
            }
        }
        Ok(())
    }
}
