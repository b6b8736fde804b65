//! # pkgm-core — the Pre-trained Knowledge Graph Model (PKGM)
//!
//! Implements the ICDE 2021 paper's primary contribution: pre-training a
//! product knowledge graph so that downstream tasks consume *knowledge
//! service vectors* computed in embedding space instead of raw triples.
//!
//! ## The two modules (paper §II, Table I)
//!
//! | Module   | Pre-training score                    | Serving function             |
//! |----------|---------------------------------------|------------------------------|
//! | Triple   | `f_T(h,r,t) = ‖h + r − t‖₁` (TransE)  | `S_T(h,r) = h + r`           |
//! | Relation | `f_R(h,r)   = ‖M_r·h − r‖₁`           | `S_R(h,r) = M_r·h − r`       |
//!
//! Joint score `f = f_T + f_R`, trained with the margin loss
//! `L = Σ [f(h,r,t) + γ − f(h′,r′,t′)]₊` over uniformly corrupted negatives
//! (head, tail, *or relation* replaced — Eq. 4).
//!
//! ## Crate layout
//!
//! * [`model`] — embeddings, transfer matrices, score & service functions;
//! * [`negative`] — the paper's uniform h/t/r corruption sampler, with a
//!   batch API reporting which slot each corruption replaced;
//! * [`kernels`] — fused, relation-blocked score+gradient kernels with
//!   preallocated scratch accumulation (plus the bit-exact reference
//!   twin the parity tests compare against);
//! * [`trainer`] — margin-loss training with hand-derived gradients, lazy
//!   row-wise Adam, rayon data-parallel minibatches over the fused kernels;
//! * [`eval`] — filtered/raw link prediction (MRR, Hits@k, mean rank) and
//!   relation-existence AUC (evaluating the relation module);
//! * [`eval_kernels`] — fused, candidate-blocked ranking kernels with
//!   exact early exit, relation-grouped head ranking and sorted-merge
//!   filtering (plus the bit-exact reference twins),
//!   and the int8 two-phase quantized kernels built on [`quant`];
//! * [`quant`] — blockwise symmetric int8 quantization with certified L1
//!   lower bounds: prune candidates in the i8 domain, rescore survivors
//!   exactly in f32, keep ranks bit-identical at ~4× less memory traffic;
//! * [`simd`] — runtime-dispatched SIMD kernels (AVX-512/AVX2 via
//!   `is_x86_feature_detected!`, `PKGM_FORCE_SCALAR` override) with
//!   bit-identical portable scalar twins for every hot primitive;
//! * [`service`] — the serving layer: per-item `2k` service vectors for
//!   sequence models (Fig. 2) and the condensed single vector (Eq. 8–9, 20,
//!   Fig. 3), plus tail-entity completion;
//! * [`serving`] — a sharded, thread-safe memoizing front-end (with batch
//!   entry points) for deployment-style fan-out to many downstream
//!   consumers;
//! * [`snapshot`] — every entity's condensed service precomputed into one
//!   contiguous table for O(1) zero-compute serving, as views over one
//!   [`snapshot3`] `PKGMSS3` image, heap-resident or memory-mapped;
//! * [`protocol`] — the daemon's length-prefixed binary wire format, with
//!   total decoding into typed errors;
//! * [`batcher`] — dynamic batching with bounded queues and shed-not-stall
//!   admission control, coalescing concurrent lookups into batch calls;
//! * [`daemon`] — the network serving daemon: thread-per-connection TCP
//!   front end, batch workers, atomic snapshot hot-swap under live
//!   traffic, and the matching [`DaemonClient`];
//! * [`baselines`] — TransE (ablation: triple module only), TransH and
//!   DistMult for link-prediction context;
//! * [`serialize`] — compact binary snapshots of trained models, services
//!   and serving tables (the tables as [`snapshot3`] `PKGMSS3` files);
//! * [`artifact`] — atomic (temp + fsync + rename), CRC32-checksummed,
//!   versioned on-disk container for models, services and out-of-core
//!   training state;
//! * [`fault`] — deterministic fault-injection ([`fault::FaultPlan`] /
//!   [`fault::FaultyIo`]) and the `pkgm faultcheck` recovery battery;
//! * [`retry`] — the client-side resilience policy: jittered exponential
//!   backoff retrying only provably-unexecuted failures, under a deadline
//!   budget, plus the [`retry::RetryClient`] wrapper over [`DaemonClient`];
//! * [`netcheck`] — the network-layer chaos battery: a deterministic
//!   in-process chaos proxy (dropped/truncated/delayed/corrupted frames,
//!   mid-frame resets, slowloris writes) and the `pkgm netcheck` scenarios;
//! * [`router`] — the shard-router tier: splits batch lookups across
//!   entity-range shard daemons, merges rows back into request order,
//!   follows typed `WrongShard` redirects with bounded map refreshes, and
//!   supervises one spawned daemon per `.shardKofN` file;
//! * [`obs`] — training telemetry: wall time per phase (gradients, Adam,
//!   commit, page-in) per epoch and per out-of-core block;
//! * [`ooc`] — out-of-core pre-training: streamed triple sources, an
//!   entity-range partitioned embedding table paged under an explicit
//!   memory budget, and the block training schedule (bit-identical to the
//!   resident trainer when one block holds everything), committed to disk
//!   so a killed run resumes: the one crash-safe way to train.

pub mod artifact;
pub mod baselines;
pub mod batcher;
pub mod daemon;
pub mod eval;
pub mod eval_kernels;
pub mod fault;
#[cfg(test)]
mod gradient_check;
pub mod kernels;
mod le;
pub mod mmap;
pub mod model;
pub mod negative;
pub mod netcheck;
pub mod obs;
pub mod ooc;
pub mod protocol;
pub mod quant;
pub mod retry;
pub mod router;
pub mod serialize;
pub mod service;
pub mod serving;
pub mod simd;
pub mod snapshot;
pub mod snapshot3;
pub mod trainer;

pub use artifact::{ArtifactError, ArtifactIo, ArtifactKind, StdIo};
pub use batcher::{BatchRows, BatchStats, DynamicBatcher, SubmitError, WaitError};
pub use daemon::{ClientError, Daemon, DaemonClient, DaemonConfig, ServiceHolder, ShardRedirect};
pub use eval::{LinkPredictionReport, RelationExistenceReport};
pub use eval_kernels::{EvalError, EvalScratch, EvalScratchPool, PruneStats, QuantEvalModel};
pub use fault::{Fault, FaultCheckReport, FaultPlan, FaultyIo};
pub use kernels::{ChunkGrads, TrainScratch};
pub use model::{PkgmConfig, PkgmModel};
pub use negative::{CorruptedPair, Corruption, NegativeSampler};
pub use netcheck::{ChaosProxy, NetFault, NetFaultPlan};
pub use obs::TrainRecord;
pub use ooc::{OocConfig, OocError, OocReport, OocTrainer, SyntheticTriples, TripleSource};
pub use protocol::{DeadlineStage, ProtocolError, Request, Response};
pub use quant::{QuantScanTable, QUANT_BLOCK};
pub use retry::{RetryClient, RetryPolicy};
pub use router::{RouterError, RouterStats, ShardMap, ShardRouter, Supervisor};
pub use service::{KnowledgeService, ServiceScratch};
pub use serving::{CacheStats, CachedService};
pub use simd::{SimdDispatch, SimdLevel};
pub use snapshot::{ServiceSnapshot, ShardSpec, SnapshotBacking};
pub use snapshot3::{
    open_mapped_snapshot, shard_ranges, snapshot_to_ss3_bytes, Ss3DenseWriter, Ss3QuantWriter,
};
pub use trainer::{TrainConfig, TrainReport, Trainer};
