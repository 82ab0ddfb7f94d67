//! # icpe-pattern — co-movement pattern enumeration
//!
//! The second phase of ICPE (§6): given the stream of cluster snapshots,
//! find every `CP(M, K, L, G)` pattern. Three engines are provided, exactly
//! mirroring the paper:
//!
//! * [`BaselineEngine`] (**BA**, Algorithm 3) — SPARE adapted to streams via
//!   id-based partitioning; exponential subset enumeration per partition;
//! * [`FbaEngine`] (**FBA**, Algorithm 4) — fixed-length bit compression
//!   over the η-snapshot window plus candidate-based (apriori) enumeration;
//! * [`VbaEngine`] (**VBA**, Algorithm 5) — variable-length bit compression
//!   with maximal pattern time sequences; verifies each snapshot once,
//!   trading latency for throughput.
//!
//! [`reference::ExhaustiveMiner`] is the test oracle: an exhaustive offline
//! miner over the full cluster history.
//!
//! ## Validity semantics
//!
//! Definition 4 asks for the *existence* of a time sequence `T` satisfying
//! `(K, L, G)`. The paper's Lemmas 5–6 verify candidates greedily and
//! discard a candidate as soon as its greedily grown sequence breaks — which
//! is not always equivalent to existence (a doomed short segment in the
//! middle of the window can mask a valid sub-sequence that skips it). Both
//! behaviours are implemented behind [`Semantics`]:
//!
//! * [`Semantics::Subsequence`] (default) — existence semantics, faithful to
//!   Definition 4; also the semantics under which bit-AND validity is
//!   anti-monotone, making the paper's candidate/apriori pruning provably
//!   lossless;
//! * [`Semantics::PaperGreedy`] — the literal Algorithm-3 discard rules,
//!   applied from every possible start.
//!
//! All three engines and the oracle honor the chosen semantics, and property
//! tests assert their agreement under both.

pub mod baseline;
pub mod bitstring;
pub mod engine;
pub mod fba;
#[cfg(test)]
mod model;
pub mod partition;
pub mod postprocess;
pub mod reference;
pub mod runs;
pub mod vba;

pub use baseline::BaselineEngine;
pub use bitstring::BitString;
pub use engine::{unique_object_sets, EngineConfig, PatternEngine};
pub use fba::FbaEngine;
pub use partition::id_partitions;
pub use postprocess::{maximal_patterns, merge_patterns, PatternSummary};
pub use runs::{Run, Semantics};
pub use vba::VbaEngine;
