//! Metric temporal logic (MTL) for runtime verification: syntax, finite-trace
//! semantics, and segment-wise formula progression.
//!
//! This crate is the logic layer of the `rvmtl` workspace, a reproduction of
//! *Distributed Runtime Verification of Metric Temporal Properties for
//! Cross-Chain Protocols* (ICDCS 2022). It provides:
//!
//! * [`Formula`] — the MTL abstract syntax (`p`, `¬`, `∨`, `∧`, `→`, `U_I`,
//!   `◇_I`, `□_I`) with timing [`Interval`]s;
//! * [`TimedTrace`] — finite timed traces `(α, τ̄)` over [`State`]s of
//!   [`Prop`]ositions;
//! * [`evaluate`] — the finite-trace semantics `⊨F` of Sec. II-B;
//! * [`progress`] — the segment-wise formula progression of Sec. IV
//!   (Algorithms 1–3), the building block of the distributed monitor;
//! * [`simplify`] — canonicalising simplification used to deduplicate the
//!   rewritten formulas produced for different event interleavings;
//! * [`parse`] — a concrete text syntax.
//!
//! # Quick example
//!
//! ```
//! use rvmtl_mtl::{evaluate, parse, progress, state, TimedTrace};
//!
//! // The paper's two-party swap property: Alice must not be outrun by Bob
//! // within 8 time units.
//! let phi = parse("!Apr.Redeem(bob) U[0,8) Ban.Redeem(alice)")?;
//!
//! // A segment in which nothing happened for 4 time units...
//! let seg1 = TimedTrace::new(vec![state![], state![]], vec![0, 4])?;
//! // ...shrinks the obligation to 4 remaining time units.
//! let rewritten = progress(&seg1, &phi, 4);
//! assert_eq!(rewritten.to_string(), "(!Apr.Redeem(bob) U[0,4) Ban.Redeem(alice))");
//!
//! // A second segment where Alice redeems first discharges the obligation.
//! let seg2 = TimedTrace::new(
//!     vec![state!["Ban.Redeem(alice)"], state!["Apr.Redeem(bob)"]],
//!     vec![5, 6],
//! )?;
//! assert!(evaluate(&seg2, &rewritten));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arena;
mod atom;
mod eval;
mod formula;
pub mod hashing;
mod intern;
mod interval;
mod parser;
mod progress;
mod simplify;
pub mod snapshot;
mod state;
pub mod testgen;
mod trace;

pub use arena::{ArenaOps, ProbeScratch, RangeKind, SplitRange};
pub use atom::Prop;
pub use eval::{evaluate, evaluate_at, evaluate_from};
pub use formula::Formula;
pub use intern::{
    ArenaMemory, CacheStats, FormulaId, FormulaRemap, GapKey, Interner, Node, NodeKind, NodeMeta,
    OneKey, RemapCollected, ShiftedId, StateKey,
};
pub use interval::Interval;
pub use parser::{parse, ParseError};
pub use progress::{progress, progress_default, progress_gap};
pub use simplify::simplify;
pub use state::State;
pub use trace::{TimedTrace, TraceError};

/// Convenience re-exports of the smart constructors used when building
/// formulas programmatically with on-the-fly simplification.
pub mod smart {
    pub use crate::simplify::{always, and, and_all, eventually, implies, not, or, or_all, until};
}
