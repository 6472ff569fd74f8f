//! The synthetic function generator — the paper's Section 3.1.
//!
//! Learning how memory size influences execution time requires a large
//! dataset of diverse functions; since not enough benchmarkable open-source
//! functions exist, the paper generates synthetic serverless functions by
//! randomly combining **sixteen representative function segments** (CPU
//! work, image manipulation, format conversion, compression, file I/O, and
//! calls to external services such as DynamoDB or S3).
//!
//! * [`segment`] — the sixteen [`SegmentKind`]s; each
//!   samples a parameterized [`Stage`](sizeless_platform::Stage) with a
//!   distinct resource-consumption shape.
//! * [`generator`] — the [`FunctionGenerator`]:
//!   random segment composition, wrapped into a
//!   [`ResourceProfile`](sizeless_platform::ResourceProfile) (the simulated
//!   "Lambda handler"), with hash-based deduplication so no function is
//!   generated twice.
//! * [`motivating`] — the four hand-written functions of the paper's
//!   Figure 1 (`InvertMatrix`, `PrimeNumbers`, `DynamoDB`, `API-Call`).
//!
//! # Examples
//!
//! ```
//! use sizeless_funcgen::{FunctionGenerator, GeneratorConfig};
//! use sizeless_engine::RngStream;
//!
//! let mut generator = FunctionGenerator::new(GeneratorConfig::default());
//! let mut rng = RngStream::from_seed(1, "funcgen");
//! let f = generator.generate(&mut rng);
//! assert!(!f.profile.stages().is_empty());
//! ```

pub mod generator;
pub mod motivating;
pub mod segment;

pub use generator::{FunctionGenerator, GeneratedFunction, GeneratorConfig};
pub use motivating::MotivatingFunction;
pub use segment::SegmentKind;
