//! # vanguard-bpred
//!
//! Branch-prediction hardware models for the Branch Vanguard reproduction:
//!
//! * Direction predictors — [`Bimodal`], [`Gshare`], the PTLSim-style
//!   3-table combined predictor [`Combined`] used as the paper's default
//!   (Table 1: "GShare, 24 KB 3-table direction predictor"), a local-history
//!   [`TwoLevel`] predictor, and [`Tage`] / [`IslTage`] for the §5.3
//!   sensitivity ladder.
//! * Front-end structures — a 4K-entry [`Btb`] (Table 1). Returns are
//!   steered from the simulator's precise call stack, so the Table 1
//!   64-entry RAS has no model here.
//! * The paper's contribution-enabling hardware: the
//!   [`DecomposedBranchBuffer`] (§4, Figure 7) — a small FIFO that
//!   re-associates each `resolve` instruction with the predictor metadata of
//!   its `predict` instruction so that training works although the two have
//!   different PCs.
//!
//! All predictors implement [`DirectionPredictor`] with *decoupled
//! prediction and training*: `predict` returns a [`PredMeta`] snapshot, and
//! `update` consumes it later — exactly the decoupling the DBB provides in
//! hardware.
//!
//! ```
//! use vanguard_bpred::{Combined, DirectionPredictor};
//!
//! let mut p = Combined::ptlsim_default();
//! let meta = p.predict(0x400);        // at fetch
//! p.update(0x400, &meta, true);       // at resolution
//! assert!(p.storage_bits() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bimodal;
mod btb;
mod dbb;
mod gshare;
mod ladder;
mod measure;
mod meta;
mod tage;
mod twolevel;

pub use bimodal::Bimodal;
pub use btb::{Btb, BtbEntry};
pub use dbb::{DbbEntry, DecomposedBranchBuffer, DBB_ENTRIES};
pub use gshare::{Combined, Gshare};
pub use ladder::{ladder, LadderRung};
pub use measure::{measure_accuracy, AccuracyReport};
pub use meta::{DirectionPredictor, PredMeta, SaturatingCounter};
pub use tage::{IslTage, Tage, TageConfig};
pub use twolevel::TwoLevel;
