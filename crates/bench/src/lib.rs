//! Shared utilities for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary accepts the same nine flags ([`USAGE`]), so one command
//! line works across the suite. Four of them every binary uses:
//!
//! * `--seed <u64>` — master seed (default 0);
//! * `--scale <f64>` — ≥ 1 shrinks dataset sizes / durations / epochs for
//!   quick runs (default 5; use `--scale 1` for the paper-scale run);
//! * `--out <dir>` — results directory (default `results/`);
//! * `--threads <usize>` — worker threads for measurement and training
//!   fan-outs (default: the machine's available parallelism). Results are
//!   bit-identical for every thread count — the knob trades wall-clock
//!   time only.
//!
//! The optional ones take effect only in the binaries named; every other
//! binary accepts and ignores them without a message:
//!
//! * `--artifact <path>` — persist the trained sizer artifact and reuse it
//!   on later runs; artifacts are versioned against the training
//!   configuration ([`TrainerConfig::artifact_hash`]) and a mismatch is a
//!   hard error, never a silent retrain (`fleet_rightsizing`,
//!   `fleet_chaos`, `fleet_multi_region`, `service_knob_sweep`);
//! * `--trace <path>` — write a structured JSONL trace of the run (one
//!   deterministic, virtual-time-stamped event per line, byte-identical
//!   across replays and thread counts) (`fleet_rightsizing`,
//!   `fleet_chaos`);
//! * `--metrics <path>` — write a metrics JSON snapshot (the trace folded
//!   into per-event counters plus a cold-start `init_ms` histogram)
//!   stamped with the end of the run's virtual clock
//!   (`fleet_rightsizing`);
//! * `--faults <spec>` and `--fault-seed <u64>` — inject a fault plan, and
//!   seed its fault and retry streams apart from the master seed
//!   (`fleet_chaos`).
//!
//! Binaries print paper-style tables to stdout and persist JSON into the
//! results directory so `EXPERIMENTS.md` numbers are regenerable.

use serde::Serialize;
use sizeless_core::dataset::{DatasetConfig, TrainingDataset};
use sizeless_core::error::CoreError;
use sizeless_core::features::FeatureSet;
use sizeless_core::model::SizelessModel;
use sizeless_core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless_fleet::{FaultPlan, FleetReport};
use sizeless_neural::NetworkConfig;
use sizeless_platform::{MemorySize, Platform};
use sizeless_workload::BurstyArrival;
use std::path::{Path, PathBuf};

/// Parsed command-line context shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Master seed.
    pub seed: u64,
    /// Scale divisor (1 = paper scale).
    pub scale: f64,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
    /// Worker threads (`0` = auto: all cores).
    pub threads: usize,
    /// Trained-artifact file to reuse/persist across runs, if given.
    pub artifact: Option<PathBuf>,
    /// Destination for a structured JSONL trace of the run, if given.
    pub trace: Option<PathBuf>,
    /// Destination for a metrics JSON snapshot, if given.
    pub metrics: Option<PathBuf>,
    /// Fault plan parsed from `--faults`, if given. Binaries without a
    /// fault-injection path accept (and ignore) the flag so one command
    /// line works across the suite.
    pub faults: Option<FaultPlan>,
    /// Seed of the fault/retry streams (`--fault-seed`), independent of
    /// the master seed so fault schedules vary while workloads replay.
    pub fault_seed: u64,
}

/// The `--help` text shared by every experiment binary.
pub const USAGE: &str = "\
Shared experiment flags:
  --seed <u64>       master seed for all random streams        (default 0)
  --scale <f64>      >= 1; divides dataset sizes, durations,
                     and epochs for quick runs; 1 = paper scale (default 5)
  --out <dir>        directory JSON results are written to     (default results/)
  --threads <usize>  worker threads for measurement/training
                     fan-outs; results are bit-identical for
                     every thread count                         (default: all cores)
  --artifact <path>  persist the trained sizer artifact to this
                     file and reuse it on later runs; artifacts
                     are versioned against the training
                     configuration and a mismatch is a hard
                     error                                      (default: retrain per run)
  --trace <path>     write a structured JSONL trace of the run
                     (one deterministic, virtual-time-stamped
                     event per line) to this file               (default: no trace)
  --metrics <path>   write a metrics JSON snapshot (the trace's
                     event counters + a log-scale init_ms
                     histogram) to this file                    (default: no snapshot)
  --faults <spec>    inject faults: `;`-separated clauses, e.g.
                     `crash:host=0,at=5000,down=2000;
                     transient:init=0.05,exec=0.1,frac=0.5;
                     outage:region=1,at=8000,down=4000`
                     (also: crashes:mtbf=..,down=..,
                     recovery:ms=..,slowdown=.., nofailover,
                     nomask)                                    (default: no faults)
  --fault-seed <u64> seed of the fault/retry streams, separate
                     from the master seed                       (default 0)
  --help, -h         print this help and exit

Every binary accepts every flag, so one command line works across the
suite. The optional flags take effect only in these binaries; the others
ignore them without a message:
  --artifact         fleet_rightsizing, fleet_chaos, fleet_multi_region,
                     service_knob_sweep
  --trace            fleet_rightsizing, fleet_chaos
  --metrics          fleet_rightsizing
  --faults, --fault-seed
                     fleet_chaos";

/// How argument parsing ended when it did not produce a context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help`/`-h` was requested.
    Help,
    /// An argument was unknown or malformed.
    Invalid(String),
}

impl ExperimentContext {
    /// Parses the nine shared flags (`--seed`, `--scale`, `--out`,
    /// `--threads`, `--artifact`, `--trace`, `--metrics`, `--faults` and
    /// `--fault-seed`) from `std::env::args`. Unknown or malformed flags
    /// print a clear error plus the shared [`USAGE`] text and exit
    /// non-zero; `--help` prints the usage and exits zero.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(ctx) => ctx,
            Err(ArgsError::Help) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(ArgsError::Invalid(msg)) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// [`ExperimentContext::from_args`] over an explicit argument list
    /// (without the program name) — the testable core.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Help`] when help was requested and
    /// [`ArgsError::Invalid`] for unknown flags, missing values, or values
    /// that fail to parse or validate.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgsError> {
        let mut ctx = ExperimentContext {
            seed: 0,
            scale: 5.0,
            out_dir: PathBuf::from("results"),
            threads: 0,
            artifact: None,
            trace: None,
            metrics: None,
            faults: None,
            fault_seed: 0,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--help" || flag == "-h" {
                return Err(ArgsError::Help);
            }
            let mut value = |flag: &str| {
                args.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| ArgsError::Invalid(format!("`{flag}` is missing its value")))
            };
            match flag.as_str() {
                "--seed" => {
                    let v = value("--seed")?;
                    ctx.seed = v.parse().map_err(|_| {
                        ArgsError::Invalid(format!("`--seed` takes a u64, got `{v}`"))
                    })?;
                }
                "--scale" => {
                    let v = value("--scale")?;
                    ctx.scale = v.parse().map_err(|_| {
                        ArgsError::Invalid(format!("`--scale` takes a float, got `{v}`"))
                    })?;
                    if ctx.scale.is_nan() || ctx.scale < 1.0 {
                        return Err(ArgsError::Invalid(format!(
                            "`--scale` must be >= 1, got `{v}`"
                        )));
                    }
                }
                "--out" => {
                    ctx.out_dir = PathBuf::from(value("--out")?);
                }
                "--artifact" => {
                    ctx.artifact = Some(PathBuf::from(value("--artifact")?));
                }
                "--trace" => {
                    ctx.trace = Some(PathBuf::from(value("--trace")?));
                }
                "--metrics" => {
                    ctx.metrics = Some(PathBuf::from(value("--metrics")?));
                }
                "--faults" => {
                    let v = value("--faults")?;
                    ctx.faults = Some(FaultPlan::parse(&v).map_err(|e| {
                        ArgsError::Invalid(format!("`--faults`: {e}"))
                    })?);
                }
                "--fault-seed" => {
                    let v = value("--fault-seed")?;
                    ctx.fault_seed = v.parse().map_err(|_| {
                        ArgsError::Invalid(format!("`--fault-seed` takes a u64, got `{v}`"))
                    })?;
                }
                "--threads" => {
                    let v = value("--threads")?;
                    ctx.threads = v.parse().map_err(|_| {
                        ArgsError::Invalid(format!("`--threads` takes a usize >= 1, got `{v}`"))
                    })?;
                    if ctx.threads == 0 {
                        return Err(ArgsError::Invalid(
                            "`--threads` must be >= 1 (omit the flag for auto)".to_string(),
                        ));
                    }
                }
                other => {
                    return Err(ArgsError::Invalid(format!(
                        "unknown argument `{other}` (expected --seed/--scale/--out/--threads/--artifact/--trace/--metrics/--faults/--fault-seed)"
                    )));
                }
            }
        }
        Ok(ctx)
    }

    /// The `--faults` plan with the `--fault-seed` applied, ready to hand
    /// to [`Fleet::with_faults`](sizeless_fleet::Fleet::with_faults) or
    /// [`sizeless_fleet::run_multi_region_faulted`].
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.clone().map(|p| p.with_seed(self.fault_seed))
    }

    /// The effective worker-thread count: `--threads` if given, otherwise
    /// the machine's available parallelism.
    pub fn thread_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// The dataset configuration at this scale: the paper's 2 000 functions
    /// and 10-minute experiments divided by `scale` (with floors that keep
    /// aggregates stable).
    pub fn dataset_config(&self) -> DatasetConfig {
        let functions = ((2000.0 / self.scale) as usize).max(120);
        let duration_ms = (600_000.0 / self.scale).max(30_000.0);
        DatasetConfig {
            function_count: functions,
            experiment: sizeless_workload::ExperimentConfig {
                duration_ms,
                rps: 30.0,
                seed: self.seed,
            },
            generator: Default::default(),
            seed: self.seed,
            threads: self.thread_count(),
        }
    }

    /// The network configuration at this scale: the paper's Table-2 model,
    /// with epochs reduced under scaling (architecture unchanged).
    pub fn network_config(&self) -> NetworkConfig {
        let epochs = ((200.0 / self.scale.sqrt()) as usize).max(60);
        NetworkConfig {
            epochs,
            ..NetworkConfig::default()
        }
    }

    /// Loads the cached training dataset for this (seed, scale) or
    /// generates and caches it. All experiment binaries share this cache so
    /// the expensive offline phase runs once, at any `--threads`: the cache
    /// stores and matches the configuration's [`DatasetConfig::identity`].
    pub fn dataset(&self, platform: &Platform) -> TrainingDataset {
        self.dataset_with(platform, &self.dataset_config())
    }

    /// [`ExperimentContext::dataset`] for an explicit configuration — for
    /// binaries that need a different dataset shape (e.g. a larger floor)
    /// while sharing the cache-by-shape mechanism.
    pub fn dataset_with(&self, platform: &Platform, cfg: &DatasetConfig) -> TrainingDataset {
        let identity = cfg.identity();
        let cache = self.out_dir.join(format!(
            "dataset-n{}-d{}-seed{}.json",
            cfg.function_count, cfg.experiment.duration_ms as u64, self.seed
        ));
        if let Ok(ds) = TrainingDataset::load(&cache) {
            if ds.config == identity {
                eprintln!("[cache] loaded {}", cache.display());
                return ds;
            }
        }
        eprintln!(
            "[generate] {} functions x 6 sizes x {:.0}s ...",
            cfg.function_count,
            cfg.experiment.duration_ms / 1000.0
        );
        // Generate on `cfg`'s workers (the identity has none), then record
        // the identity so any thread count matches this cache.
        let mut ds = TrainingDataset::generate(platform, cfg);
        ds.config = identity;
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        ds.save(&cache).expect("cache dataset");
        ds
    }

    /// The trained artifact for `config`, honoring `--artifact`: when the
    /// flag names an existing file, the artifact is loaded and verified
    /// against [`TrainerConfig::artifact_hash`] — a mismatch (the file was
    /// trained under different dataset/network/seed settings) is a hard
    /// error with a clear message, never a silent retrain. Otherwise the
    /// offline phase runs (through the shared dataset cache) and, if
    /// `--artifact` was given, the result is persisted for the next run.
    pub fn trained_sizer(&self, platform: &Platform, config: &TrainerConfig) -> TrainedSizer {
        let expected = config.artifact_hash();
        if let Some(path) = &self.artifact {
            if path.exists() {
                match TrainedSizer::load_expecting(path, expected) {
                    Ok(sizer) => {
                        eprintln!("[artifact] loaded {}", path.display());
                        return sizer;
                    }
                    Err(e @ CoreError::ArtifactMismatch { .. }) => {
                        eprintln!("error: --artifact {}: {e}", path.display());
                        std::process::exit(2);
                    }
                    Err(e) => {
                        eprintln!("error: --artifact {} is unreadable: {e}", path.display());
                        std::process::exit(2);
                    }
                }
            }
        }
        let dataset = self.dataset_with(platform, &config.dataset);
        eprintln!("[train] offline phase: base {}, {} fns ...", config.base_size, dataset.len());
        let sizer = Trainer::new(*config)
            .train_from_dataset(platform, &dataset)
            .expect("dataset large enough");
        if let Some(path) = &self.artifact {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).expect("create artifact dir");
            }
            sizer.save(path).expect("write artifact");
            eprintln!("[artifact] wrote {}", path.display());
        }
        sizer
    }

    /// Trains the F4 model for a base size.
    pub fn model_for_base(&self, dataset: &TrainingDataset, base: MemorySize) -> SizelessModel {
        SizelessModel::train(
            dataset,
            base,
            FeatureSet::F4,
            &self.network_config(),
            self.seed.wrapping_add(base.mb() as u64),
        )
        .expect("dataset large enough")
    }

    /// Writes a JSON result file into the output directory.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        std::fs::write(&path, serde_json::to_string_pretty(value).expect("serialize"))
            .expect("write result");
        eprintln!("[result] wrote {}", path.display());
    }
}

impl ExperimentContext {
    /// Measures all four case-study applications (with caching), returning
    /// them in the paper's order. The paper's plans (10 repetitions of the
    /// app workloads) are divided by `scale`.
    pub fn app_measurements(
        &self,
        platform: &Platform,
    ) -> Vec<(sizeless_apps::CaseStudyApp, sizeless_apps::AppMeasurement)> {
        use sizeless_apps::{measure_app, CaseStudyApp, MeasurementPlan};
        let cache = self
            .out_dir
            .join(format!("apps-scale{}-seed{}.json", self.scale, self.seed));
        if let Ok(json) = std::fs::read_to_string(&cache) {
            if let Ok(cached) = serde_json::from_str::<Vec<sizeless_apps::AppMeasurement>>(&json)
            {
                if cached.len() == 4 {
                    eprintln!("[cache] loaded {}", cache.display());
                    return CaseStudyApp::ALL.iter().copied().zip(cached).collect();
                }
            }
        }
        let out: Vec<(CaseStudyApp, sizeless_apps::AppMeasurement)> = CaseStudyApp::ALL
            .iter()
            .map(|&app| {
                let mut plan = MeasurementPlan::scaled(app, self.scale * 4.0);
                plan.seed = self.seed;
                plan.threads = self.thread_count();
                eprintln!(
                    "[measure] {app}: {} fns x 6 sizes x {} reps x {:.0}s @ {} rps",
                    app.functions().len(),
                    plan.repetitions,
                    plan.duration_ms / 1000.0,
                    plan.rps
                );
                (app, measure_app(platform, app, &plan))
            })
            .collect();
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let payload: Vec<&sizeless_apps::AppMeasurement> = out.iter().map(|(_, m)| m).collect();
        std::fs::write(
            &cache,
            serde_json::to_string(&payload).expect("serialize app measurements"),
        )
        .expect("write app cache");
        out
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// MB·ms to GB·s: the fleet accounts memory-time in MB·ms, pricing in
/// GB-seconds.
pub const MB_MS_TO_GB_S: f64 = 1.0 / (1024.0 * 1000.0);

/// The size the fleet experiments deploy their functions at: the paper's
/// Table-3 recommendation, and the size the model consumes monitoring
/// data from.
pub const BASE: MemorySize = MemorySize::MB_256;

/// A fleet report's execution GB·s per completed request (0 when nothing
/// completed).
pub fn gb_s_per_completion(r: &FleetReport) -> f64 {
    if r.counters.completed == 0 {
        return 0.0;
    }
    r.counters.exec_mb_ms * MB_MS_TO_GB_S / r.counters.completed as f64
}

/// A bursty process with long-run mean `rps`: a quiet base state (a third
/// of the mean rate) interrupted by ~2 s bursts at 11× the base rate.
pub fn bursty_with_mean(rps: f64) -> BurstyArrival {
    let base = rps / 3.0;
    // mean = (base·8 s + burst·2 s) / 10 s  ⇒  burst = 5·rps − 4·base.
    let burst = 5.0 * rps - 4.0 * base;
    BurstyArrival::new(base, burst, 8_000.0, 2_000.0)
}

/// Writes a `--trace` or `--metrics` file, creating its directory first.
pub fn write_output(path: &Path, contents: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(path, contents).expect("write output file");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context(scale: f64, out_dir: PathBuf) -> ExperimentContext {
        ExperimentContext {
            seed: 0,
            scale,
            out_dir,
            threads: 0,
            artifact: None,
            trace: None,
            metrics: None,
            faults: None,
            fault_seed: 0,
        }
    }

    #[test]
    fn dataset_config_scales_down() {
        let ctx = context(10.0, PathBuf::from("/tmp"));
        let cfg = ctx.dataset_config();
        assert_eq!(cfg.function_count, 200);
        assert_eq!(cfg.experiment.duration_ms, 60_000.0);
    }

    #[test]
    fn paper_scale_matches_paper() {
        let ctx = context(1.0, PathBuf::from("/tmp"));
        let cfg = ctx.dataset_config();
        assert_eq!(cfg.function_count, 2000);
        assert_eq!(cfg.experiment.duration_ms, 600_000.0);
        assert_eq!(ctx.network_config().epochs, 200);
    }

    /// Worker threads are not part of a dataset's identity: a cache written
    /// at one `--threads` is reused, byte for byte, at another.
    #[test]
    fn dataset_cache_is_reused_across_thread_counts() {
        let out_dir = std::env::temp_dir().join(format!(
            "sizeless-dataset-cache-threads-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&out_dir);
        let ctx = context(50.0, out_dir.clone());
        let platform = Platform::aws_like();
        let mut cfg = DatasetConfig::tiny(4);

        cfg.threads = 2;
        let written = ctx.dataset_with(&platform, &cfg);
        let cache: Vec<PathBuf> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(cache.len(), 1, "one cache file: {cache:?}");
        let before = std::fs::read(&cache[0]).unwrap();

        cfg.threads = 1;
        let reused = ctx.dataset_with(&platform, &cfg);
        let after = std::fs::read(&cache[0]).unwrap();
        let _ = std::fs::remove_dir_all(&out_dir);

        assert!(
            before == after,
            "the cache was regenerated at another thread count"
        );
        assert_eq!(written.records, reused.records);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.397), "39.7%");
    }

    fn parse(args: &[&str]) -> Result<ExperimentContext, ArgsError> {
        ExperimentContext::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_accepts_all_shared_flags() {
        let ctx = parse(&[
            "--seed", "7", "--scale", "2.5", "--out", "/tmp/x", "--threads", "3", "--artifact",
            "/tmp/x/sizer.json", "--trace", "/tmp/x/run.jsonl", "--metrics", "/tmp/x/metrics.json",
        ])
        .unwrap();
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.scale, 2.5);
        assert_eq!(ctx.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(ctx.threads, 3);
        assert_eq!(ctx.artifact, Some(PathBuf::from("/tmp/x/sizer.json")));
        assert_eq!(ctx.trace, Some(PathBuf::from("/tmp/x/run.jsonl")));
        assert_eq!(ctx.metrics, Some(PathBuf::from("/tmp/x/metrics.json")));
    }

    #[test]
    fn parse_defaults_when_no_flags() {
        let ctx = parse(&[]).unwrap();
        assert_eq!(ctx.seed, 0);
        assert_eq!(ctx.scale, 5.0);
        assert_eq!(ctx.out_dir, PathBuf::from("results"));
        assert_eq!(ctx.threads, 0);
        assert_eq!(ctx.artifact, None);
        assert_eq!(ctx.trace, None);
        assert_eq!(ctx.metrics, None);
    }

    #[test]
    fn parse_rejects_unknown_flags_with_a_clear_error() {
        let err = parse(&["--sede", "7"]).unwrap_err();
        match err {
            ArgsError::Invalid(msg) => assert!(msg.contains("unknown argument `--sede`"), "{msg}"),
            ArgsError::Help => panic!("not a help request"),
        }
    }

    #[test]
    fn parse_rejects_missing_and_malformed_values() {
        assert!(matches!(parse(&["--seed"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--seed", "x"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--scale", "0.5"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--scale", "nan"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--threads", "0"]), Err(ArgsError::Invalid(_))));
        // A following flag must not be swallowed as the value.
        assert!(matches!(parse(&["--out", "--seed"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--seed", "--scale", "2"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--artifact"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--artifact", "--seed"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--trace"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--trace", "--seed", "1"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--metrics"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--metrics", "--out", "x"]), Err(ArgsError::Invalid(_))));
    }

    #[test]
    fn parse_help_short_and_long() {
        assert!(matches!(parse(&["--help"]), Err(ArgsError::Help)));
        assert!(matches!(parse(&["-h"]), Err(ArgsError::Help)));
        assert!(USAGE.contains("--seed") && USAGE.contains("--threads"));
        assert!(USAGE.contains("--faults") && USAGE.contains("--fault-seed"));
    }

    #[test]
    fn parse_accepts_fault_flags() {
        let ctx = parse(&[
            "--faults",
            "transient:init=0.05,exec=0.1,frac=0.5;crash:host=0,at=5000,down=2000",
            "--fault-seed",
            "9",
        ])
        .unwrap();
        assert_eq!(ctx.fault_seed, 9);
        let plan = ctx.fault_plan().expect("plan parsed");
        assert_eq!(plan.seed, 9, "fault_plan applies the fault seed");
        assert!(plan.transient.is_some());
        assert_eq!(plan.crashes.len(), 1);
        // No flag, no plan.
        assert!(parse(&[]).unwrap().fault_plan().is_none());
    }

    #[test]
    fn parse_rejects_bad_fault_flags() {
        match parse(&["--faults", "bogus:x=1"]).unwrap_err() {
            ArgsError::Invalid(msg) => {
                assert!(msg.contains("`--faults`"), "{msg}");
                assert!(msg.contains("unknown fault clause"), "{msg}");
            }
            ArgsError::Help => panic!("not a help request"),
        }
        match parse(&["--faults", "crash:host=0,at=5000,down=2000,dwon=9"]).unwrap_err() {
            ArgsError::Invalid(msg) => {
                assert!(msg.contains("`--faults`"), "{msg}");
                assert!(msg.contains("unknown key `dwon`"), "{msg}");
            }
            ArgsError::Help => panic!("not a help request"),
        }
        assert!(matches!(parse(&["--faults"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--fault-seed", "x"]), Err(ArgsError::Invalid(_))));
        assert!(matches!(parse(&["--fault-seed"]), Err(ArgsError::Invalid(_))));
    }
}
