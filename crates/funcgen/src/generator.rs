//! Random composition of segments into synthetic functions.
//!
//! The paper's generator randomly combines function segments, wraps them in
//! a Lambda handler, and keeps a list of already-generated function hashes
//! so no function is generated twice. The Rust equivalent composes sampled
//! [`Stage`]s into a [`ResourceProfile`] and hashes the quantized stage
//! parameters for deduplication.

use crate::segment::SegmentKind;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use sizeless_platform::{ResourceProfile, Stage};
use std::collections::HashSet;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Configuration of the synthetic function generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Minimum segments per function.
    pub min_segments: usize,
    /// Maximum segments per function.
    pub max_segments: usize,
    /// Maximum attempts to find a not-yet-generated function before
    /// panicking (duplicate-space exhaustion guard).
    pub max_dedup_attempts: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            min_segments: 1,
            max_segments: 5,
            max_dedup_attempts: 64,
        }
    }
}

/// A generated synthetic function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedFunction {
    /// Sequential id (also used in the function name).
    pub id: usize,
    /// The segments the function was composed from, in order.
    pub segments: Vec<SegmentKind>,
    /// The compiled resource profile.
    pub profile: ResourceProfile,
}

/// The synthetic function generator with hash-based deduplication.
#[derive(Debug)]
pub struct FunctionGenerator {
    config: GeneratorConfig,
    seen: HashSet<u64>,
    next_id: usize,
}

impl FunctionGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `min_segments` is zero or exceeds `max_segments`.
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(
            config.min_segments >= 1 && config.min_segments <= config.max_segments,
            "segment bounds must satisfy 1 <= min <= max"
        );
        FunctionGenerator {
            config,
            seen: HashSet::new(),
            next_id: 0,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates one new, never-seen-before function.
    ///
    /// # Panics
    ///
    /// Panics if `max_dedup_attempts` consecutive candidates were all
    /// duplicates (practically impossible with continuous parameters).
    pub fn generate(&mut self, rng: &mut RngStream) -> GeneratedFunction {
        for _ in 0..self.config.max_dedup_attempts {
            let count = self
                .config
                .min_segments
                + rng.index(self.config.max_segments - self.config.min_segments + 1);
            let mut segments = Vec::with_capacity(count);
            let mut stages: Vec<Stage> = Vec::with_capacity(count);
            for _ in 0..count {
                let kind = *rng.choose(&SegmentKind::ALL);
                segments.push(kind);
                stages.push(kind.sample_stage(rng));
            }
            let hash = function_hash(&segments, &stages);
            if !self.seen.insert(hash) {
                continue; // duplicate — the paper's generator also retries
            }
            let id = self.next_id;
            self.next_id += 1;
            let profile = ResourceProfile::builder(format!("synthetic-{id:04}"))
                .stages(stages)
                .baseline_working_set_mb(rng.uniform(36.0, 52.0))
                .init_cpu_ms(rng.uniform(25.0, 90.0))
                .package_size_mb(rng.uniform(0.8, 12.0))
                .build();
            return GeneratedFunction {
                id,
                segments,
                profile,
            };
        }
        panic!(
            "exhausted {} dedup attempts — segment parameter space too small",
            self.config.max_dedup_attempts
        );
    }

    /// Generates `n` distinct functions.
    pub fn generate_many(&mut self, n: usize, rng: &mut RngStream) -> Vec<GeneratedFunction> {
        (0..n).map(|_| self.generate(rng)).collect()
    }
}

/// Hashes a function's segment sequence and quantized stage parameters.
///
/// Parameters are quantized (0.1 ms / 0.1 KB buckets) so that two floats
/// differing only in noise-level digits still count as "the same function",
/// mirroring the paper's source-level hash.
fn function_hash(segments: &[SegmentKind], stages: &[Stage]) -> u64 {
    let mut h = DefaultHasher::new();
    for (seg, stage) in segments.iter().zip(stages) {
        seg.name().hash(&mut h);
        quantize(stage.cpu_ms).hash(&mut h);
        quantize(stage.parallelism).hash(&mut h);
        quantize(stage.io_read_kb).hash(&mut h);
        quantize(stage.io_write_kb).hash(&mut h);
        quantize(stage.net_in_kb).hash(&mut h);
        quantize(stage.net_out_kb).hash(&mut h);
        quantize(stage.working_set_mb).hash(&mut h);
        for call in &stage.service_calls {
            call.kind.to_string().hash(&mut h);
            call.calls.hash(&mut h);
            quantize(call.payload_kb).hash(&mut h);
        }
    }
    h.finish()
}

fn quantize(x: f64) -> u64 {
    (x * 10.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_with_unique_names() {
        let mut g = FunctionGenerator::new(GeneratorConfig::default());
        let mut rng = RngStream::from_seed(1, "gen");
        let fns = g.generate_many(200, &mut rng);
        assert_eq!(fns.len(), 200);
        let names: HashSet<&str> = fns.iter().map(|f| f.profile.name()).collect();
        assert_eq!(names.len(), 200);
    }

    #[test]
    fn segment_counts_respect_bounds() {
        let cfg = GeneratorConfig {
            min_segments: 2,
            max_segments: 4,
            ..GeneratorConfig::default()
        };
        let mut g = FunctionGenerator::new(cfg);
        let mut rng = RngStream::from_seed(2, "gen-bounds");
        for f in g.generate_many(300, &mut rng) {
            assert!((2..=4).contains(&f.segments.len()));
            assert_eq!(f.segments.len(), f.profile.stages().len());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut g = FunctionGenerator::new(GeneratorConfig::default());
            let mut rng = RngStream::from_seed(seed, "gen-det");
            g.generate_many(50, &mut rng)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn all_segment_kinds_appear_in_a_large_batch() {
        let mut g = FunctionGenerator::new(GeneratorConfig::default());
        let mut rng = RngStream::from_seed(3, "gen-cover");
        let fns = g.generate_many(500, &mut rng);
        let used: HashSet<SegmentKind> =
            fns.iter().flat_map(|f| f.segments.iter().copied()).collect();
        assert_eq!(used.len(), SegmentKind::ALL.len());
    }

    #[test]
    fn duplicate_hashes_are_rejected() {
        let segments = vec![SegmentKind::Fibonacci];
        let mut rng = RngStream::from_seed(4, "gen-dup");
        let stage = SegmentKind::Fibonacci.sample_stage(&mut rng);
        let h1 = function_hash(&segments, std::slice::from_ref(&stage));
        let h2 = function_hash(&segments, std::slice::from_ref(&stage));
        assert_eq!(h1, h2);
        // A perturbation above the quantum changes the hash.
        let mut other = stage;
        other.cpu_ms += 5.0;
        assert_ne!(h1, function_hash(&segments, &[other]));
    }

    #[test]
    fn quantization_absorbs_noise_level_differences() {
        let mut a = SegmentKind::Fibonacci.sample_stage(&mut RngStream::from_seed(5, "q"));
        let mut b = a.clone();
        a.cpu_ms = 100.0;
        b.cpu_ms = 100.004; // below the 0.1 quantum
        let seg = vec![SegmentKind::Fibonacci];
        assert_eq!(function_hash(&seg, &[a]), function_hash(&seg, &[b]));
    }

    #[test]
    fn profiles_have_positive_footprints() {
        let mut g = FunctionGenerator::new(GeneratorConfig::default());
        let mut rng = RngStream::from_seed(6, "gen-foot");
        for f in g.generate_many(100, &mut rng) {
            assert!(f.profile.baseline_working_set_mb() > 0.0);
            assert!(f.profile.package_size_mb() > 0.0);
            assert!(f.profile.peak_working_set_mb() < 2400.0, "fits largest size");
        }
    }

    #[test]
    #[should_panic(expected = "segment bounds")]
    fn zero_min_segments_rejected() {
        let _ = FunctionGenerator::new(GeneratorConfig {
            min_segments: 0,
            max_segments: 3,
            ..GeneratorConfig::default()
        });
    }
}
