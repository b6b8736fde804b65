//! Out-of-core pre-training: train a knowledge-graph table **larger than
//! RAM** by partitioning the entity embedding table into contiguous
//! entity-range shards on disk and paging at most two partitions in at a
//! time.
//!
//! ## The block schedule
//!
//! An epoch shuffles all triple indices with the *resident trainer's* RNG
//! (`seed ^ (epoch << 32) ^ 0x5EED`), then stable-partitions them by the
//! *bucket* `(part(head), part(tail))` — a counting sort that preserves the
//! shuffled order within each bucket. Buckets run in ascending order; each
//! bucket is one **block**: its two partitions (entity rows + Adam moments)
//! are loaded, a block-local [`Trainer`] replays the resident minibatch
//! loop over the bucket's triples (same per-batch seeds, same chunk layout,
//! same fused kernels, same Adam step counter `t`), and the updated rows
//! are paged back out before the next block loads.
//!
//! ## Equivalence contract
//!
//! * **One block** (the budget fits the whole table, `P = 1`): the bucket
//!   sort is the identity, the block-local id space *is* the global id
//!   space, and the corruption sampler consumes the identical RNG stream —
//!   training is **bit-for-bit identical** to the resident [`Trainer`]
//!   (asserted by `single_block_training_is_bit_identical_to_resident`).
//! * **Multiple blocks**: the schedule reorders minibatches across buckets
//!   and corruption draws block-local negatives, so parameters differ from
//!   resident training — but the run is **seed-deterministic** (same seeds
//!   → same bits, including across kill/resume cycles) and gated on eval
//!   parity with the resident trainer in `crates/core/tests/ooc_training.rs`.
//!
//! ## On-disk state
//!
//! Everything lives in `OocConfig::dir` as atomic, CRC-checked
//! [`crate::artifact`] files (kind [`ArtifactKind::Checkpoint`]):
//!
//! * `ooc-part-{K:05}of{N:05}.pkgm` — one partition: entity rows + Adam
//!   `m`/`v` moments, stamped with the generation that last wrote it;
//! * `ooc-resident.pkgm` — the small always-resident state (relation
//!   embeddings, transfer matrices, their moments, the Adam step counter
//!   and the epoch/block cursor), written **after** the partitions of each
//!   block commit;
//! * `ooc-manifest.pkgm` — static config (model/train hyper-parameters,
//!   the partition plan) as JSON.
//!
//! ## Write-behind commits
//!
//! One writer thread, scoped to [`OocTrainer::new`] and
//! [`OocTrainer::train`] (joined on every path), commits every file. The
//! loop frames a block's commit **in place** — each payload serialized
//! straight behind a reserved artifact header ([`artifact::frame_begin`])
//! and checksummed where it lies ([`artifact::frame_seal`]), the same
//! bytes [`artifact::encode`] would produce — and hands the set over: the
//! block's partition file(s) first, then the resident file. The writer
//! replaces them in that order with `write_atomic` (create, write, fsync,
//! rename, directory fsync) while the next block pages in and trains.
//!
//! * **One set in flight.** Before the loop frames the next commit it waits
//!   for the set in flight and reuses its buffers: two partition frames
//!   and a resident frame, never one pool (a partition frame would grow to
//!   the resident's size). So every file outside the set in flight is
//!   complete on disk, and a block reads it from there; a partition whose
//!   newest frame is still in flight is decoded from that frame, through
//!   the same [`artifact::decode`] checks.
//! * **Failure.** The writer stops at the first failed write and writes
//!   nothing after it; `train` returns that error once the writer is
//!   drained.
//!
//! The writer commits exactly the files, bytes and order the loop would
//! commit itself, so the sequence of states on disk — what resume, the
//! generation check and the commit window below can observe — is the same
//! as with synchronous commits; only the loop no longer waits on each one.
//!
//! ## Generations and the commit window
//!
//! A partition file is stamped with the generation of the block that
//! wrote it. The trainer remembers the generation it last wrote to each
//! partition and a load must find exactly that stamp, so a stale file put
//! back behind its back is refused; a partition not yet written in this
//! process (after [`OocTrainer::resume`]) must be at most the resident
//! file's generation.
//!
//! A crash between a partition write and the resident commit leaves that
//! partition stamped one generation ahead; [`OocTrainer::resume`] detects
//! the mismatch at load time and refuses to silently re-apply the block.
//! That is the **commit window**: it opens when a block's first partition
//! file is renamed into place and closes when the resident file is. A kill
//! inside it does not lose one block but the run — resume refuses the
//! state and training restarts from init. The window is the writer's
//! `write_s` in the [`crate::obs`] telemetry (partition create, write,
//! fsync, rename and directory fsync, then the resident commit): ≈ 0.5 s
//! per ≈ 1.2 s epoch of 22 blocks at the benchmark's `pretrain-ooc`
//! configuration on a 2-vCPU host — off the loop's critical path, but as
//! wide as when the loop committed each file itself. A kill anywhere else
//! loses at most two blocks: the one training and the one whose commit is
//! in flight.

use std::fmt;
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::artifact::{self, ArtifactError, ArtifactIo, ArtifactKind, StdIo};
use crate::kernels::TrainScratch;
use crate::le;
use crate::model::{PkgmConfig, PkgmModel};
use crate::negative::{CorruptedPair, Corruption};
use crate::obs::{Phase, PhaseClock, TrainRecord};
use crate::snapshot::{condensed_rows_into, ShardSpec};
use crate::snapshot3::{shard_ranges, Ss3DenseWriter};
use crate::trainer::{diverged, EpochStats, TrainConfig, Trainer};
use pkgm_store::{EntityId, KeyRelationSelector, RelationId, Triple, TripleStore};

const MANIFEST_FILE: &str = "ooc-manifest.pkgm";
const RESIDENT_FILE: &str = "ooc-resident.pkgm";
const MANIFEST_VERSION: u32 = 1;

/// A streamed source of training triples: random access by index, id-space
/// bounds, and membership (for filtered negative sampling) — everything the
/// block scheduler needs without requiring the triples to be materialized
/// as a [`TripleStore`].
pub trait TripleSource: Sync {
    /// Entity id space size (ids are `0..n_entities`).
    fn n_entities(&self) -> u32;
    /// Relation id space size.
    fn n_relations(&self) -> u32;
    /// Number of triples.
    fn len(&self) -> usize;
    /// True when there are no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The `idx`-th triple (`idx < len()`).
    fn triple(&self, idx: usize) -> Triple;
    /// Is this triple a known positive? (Filtered corruption check.)
    fn contains(&self, t: Triple) -> bool;
}

impl TripleSource for TripleStore {
    fn n_entities(&self) -> u32 {
        TripleStore::n_entities(self)
    }
    fn n_relations(&self) -> u32 {
        TripleStore::n_relations(self)
    }
    fn len(&self) -> usize {
        TripleStore::len(self)
    }
    fn triple(&self, idx: usize) -> Triple {
        self.triples()[idx]
    }
    fn contains(&self, t: Triple) -> bool {
        TripleStore::contains(self, t)
    }
}

/// A deterministic synthetic triple stream: every triple is a pure function
/// of `(seed, idx)` via splitmix64, so arbitrarily large training sets cost
/// O(1) memory. `contains` always answers `false` (no filtering — the
/// stream has no materialized membership), which keeps sampling
/// deterministic and cheap.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticTriples {
    /// Entity id space size.
    pub n_entities: u32,
    /// Relation id space size.
    pub n_relations: u32,
    /// Number of triples the stream yields.
    pub n_triples: usize,
    /// Stream seed.
    pub seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl TripleSource for SyntheticTriples {
    fn n_entities(&self) -> u32 {
        self.n_entities
    }
    fn n_relations(&self) -> u32 {
        self.n_relations
    }
    fn len(&self) -> usize {
        self.n_triples
    }
    fn triple(&self, idx: usize) -> Triple {
        let a = splitmix64(self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = splitmix64(a);
        let c = splitmix64(b);
        Triple::from_raw(
            (a % self.n_entities.max(1) as u64) as u32,
            (c % self.n_relations.max(1) as u64) as u32,
            (b % self.n_entities.max(1) as u64) as u32,
        )
    }
    fn contains(&self, _t: Triple) -> bool {
        false
    }
}

/// Out-of-core training failure.
#[derive(Debug)]
pub enum OocError {
    /// Artifact-layer I/O or integrity failure.
    Artifact(ArtifactError),
    /// Raw I/O failure (directory creation, snapshot emission).
    Io(std::io::Error),
    /// The memory budget cannot hold even one two-partition block.
    Budget(String),
    /// Inconsistent or unusable on-disk state.
    State(String),
}

impl fmt::Display for OocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OocError::Artifact(e) => write!(f, "artifact: {e}"),
            OocError::Io(e) => write!(f, "io: {e}"),
            OocError::Budget(m) => write!(f, "memory budget: {m}"),
            OocError::State(m) => write!(f, "out-of-core state: {m}"),
        }
    }
}

impl std::error::Error for OocError {}

impl From<ArtifactError> for OocError {
    fn from(e: ArtifactError) -> Self {
        OocError::Artifact(e)
    }
}

impl From<std::io::Error> for OocError {
    fn from(e: std::io::Error) -> Self {
        OocError::Io(e)
    }
}

/// Out-of-core training configuration.
#[derive(Debug, Clone)]
pub struct OocConfig {
    /// Model hyper-parameters (the init seed drives the streamed init).
    pub model: PkgmConfig,
    /// Training hyper-parameters (shared with the resident [`Trainer`]).
    pub train: TrainConfig,
    /// Budget in bytes for paged-in entity state. One entity row costs
    /// `3 · dim · 4` bytes (embedding + Adam m + Adam v); a block pages in
    /// at most two partitions, so the partition count is the smallest `P`
    /// with `2 · ceil(n/P)` rows under budget.
    pub mem_budget: usize,
    /// Directory for partition, resident-state and manifest files.
    pub dir: PathBuf,
}

/// Plan the entity-range partitions for `n_entities` rows of dimension
/// `dim` under `mem_budget` bytes. Returns `(row_start, n_rows)` per
/// partition — one partition when everything fits, else the smallest count
/// whose two-partition blocks fit the budget.
pub fn plan_partitions(
    n_entities: u64,
    dim: usize,
    mem_budget: u64,
) -> Result<Vec<(u64, u64)>, OocError> {
    if n_entities == 0 {
        return Err(OocError::State("no entities to partition".into()));
    }
    let bpe = (3 * dim * 4) as u64;
    if n_entities.saturating_mul(bpe) <= mem_budget {
        return Ok(vec![(0, n_entities)]);
    }
    let rows_max = mem_budget / (2 * bpe);
    if rows_max == 0 {
        return Err(OocError::Budget(format!(
            "budget {mem_budget} B cannot hold two entity rows ({} B each paged state)",
            bpe * 2
        )));
    }
    let p = n_entities.div_ceil(rows_max).max(2).min(n_entities);
    if p > u32::MAX as u64 {
        return Err(OocError::Budget(format!(
            "budget {mem_budget} B needs {p} partitions (max {})",
            u32::MAX
        )));
    }
    Ok(shard_ranges(n_entities, p as u32)
        .into_iter()
        .map(|(spec, n)| (spec.row_start, n))
        .collect())
}

/// Shard-file naming shared with the CLI and the router's discovery:
/// `{base}.shard{K}of{N}` (0-based `K`), or `base` itself when `N <= 1`.
pub fn shard_file_path(base: &Path, shard_id: u32, n_shards: u32) -> PathBuf {
    if n_shards <= 1 {
        base.to_path_buf()
    } else {
        let mut s = base.as_os_str().to_os_string();
        s.push(format!(".shard{shard_id}of{n_shards}"));
        PathBuf::from(s)
    }
}

/// Report from one [`OocTrainer::train`] call.
#[derive(Debug, Clone, Serialize)]
pub struct OocReport {
    /// Stats per epoch touched by this call (a mid-epoch resume reports a
    /// partial first entry covering only the blocks it ran).
    pub epochs: Vec<EpochStats>,
    /// Number of entity-range partitions in the plan.
    pub n_partitions: usize,
    /// Blocks executed by this call.
    pub blocks: usize,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
    /// `Some(reason)` if the divergence guard stopped training early.
    pub halted: Option<String>,
}

#[derive(Serialize, Deserialize)]
struct Manifest {
    version: u32,
    n_entities: u64,
    n_relations: u64,
    model: PkgmConfig,
    train: TrainConfig,
    mem_budget: u64,
    partitions: Vec<(u64, u64)>,
}

/// Block-local ↔ global entity id translation for the (up to) two loaded
/// partitions. Locals are `0..len_0` for the first segment and
/// `len_0..len_0+len_1` for the second.
struct BlockSpace {
    segs: [(u64, u64); 2],
}

impl BlockSpace {
    fn one(start: u64, len: u64) -> Self {
        Self {
            segs: [(start, len), (start + len, 0)],
        }
    }

    fn two(s0: u64, l0: u64, s1: u64, l1: u64) -> Self {
        Self {
            segs: [(s0, l0), (s1, l1)],
        }
    }

    fn n_local(&self) -> u64 {
        self.segs[0].1 + self.segs[1].1
    }

    fn to_global(&self, local: u32) -> u32 {
        let l = local as u64;
        if l < self.segs[0].1 {
            (self.segs[0].0 + l) as u32
        } else {
            (self.segs[1].0 + (l - self.segs[0].1)) as u32
        }
    }

    fn to_local(&self, global: u32) -> u32 {
        let g = global as u64;
        let (s0, l0) = self.segs[0];
        if g >= s0 && g < s0 + l0 {
            (g - s0) as u32
        } else {
            let (s1, l1) = self.segs[1];
            debug_assert!(g >= s1 && g < s1 + l1, "entity {global} outside block");
            (l0 + (g - s1)) as u32
        }
    }

    fn localize(&self, t: Triple) -> Triple {
        Triple::from_raw(
            self.to_local(t.head.0),
            t.relation.0,
            self.to_local(t.tail.0),
        )
    }

    fn globalize(&self, t: Triple) -> Triple {
        Triple::from_raw(
            self.to_global(t.head.0),
            t.relation.0,
            self.to_global(t.tail.0),
        )
    }
}

/// The block-local twin of [`crate::negative::NegativeSampler`]: identical
/// branch structure and RNG consumption, but entity replacements draw from
/// the block's local id space and the filtered-membership check translates
/// back to global ids. With one all-covering block the two samplers consume
/// identical RNG streams and produce identical corruptions.
struct OocSampler {
    n_entities: u32,
    n_relations: u32,
    relation_prob: f64,
    filtered: bool,
}

impl OocSampler {
    fn new(block_entities: u32, n_relations: u32) -> Self {
        Self {
            n_entities: block_entities,
            n_relations,
            relation_prob: 0.2,
            filtered: true,
        }
    }

    fn corrupt<S: TripleSource + ?Sized>(
        &self,
        pos: Triple,
        source: &S,
        space: &BlockSpace,
        rng: &mut impl Rng,
    ) -> (Triple, Corruption) {
        for _ in 0..64 {
            let (neg, slot) = self.corrupt_once(pos, rng);
            if neg == pos {
                continue;
            }
            if !self.filtered || !source.contains(space.globalize(neg)) {
                return (neg, slot);
            }
        }
        self.corrupt_once(pos, rng)
    }

    fn corrupt_once(&self, pos: Triple, rng: &mut impl Rng) -> (Triple, Corruption) {
        let roll: f64 = rng.gen();
        if roll < self.relation_prob && self.n_relations > 1 {
            let mut t = pos;
            t.relation = RelationId(rng.gen_range(0..self.n_relations));
            (t, Corruption::Relation)
        } else if rng.gen_bool(0.5) {
            let mut t = pos;
            t.head = EntityId(rng.gen_range(0..self.n_entities));
            (t, Corruption::Head)
        } else {
            let mut t = pos;
            t.tail = EntityId(rng.gen_range(0..self.n_entities));
            (t, Corruption::Tail)
        }
    }
}

/// The out-of-core trainer: an entity-range partitioned embedding table on
/// disk, block-scheduled training under [`OocConfig::mem_budget`], and
/// per-block warm-start checkpointing. See the module docs for the
/// equivalence contract.
pub struct OocTrainer {
    cfg: OocConfig,
    n_entities: u64,
    n_relations: u64,
    parts: Vec<(u64, u64)>,
    /// Monotone commit counter: bumped once per block. Partition files are
    /// stamped with the generation that wrote them; the resident file's
    /// stamp is authoritative, so a partition stamped ahead marks an
    /// interrupted commit.
    gen: u64,
    /// The generation this process last framed into each partition, which
    /// a load must find exactly; `None` until then (after a resume).
    written: Vec<Option<u64>>,
    t: u64,
    epochs_done: usize,
    blocks_done: usize,
    rel: Vec<f32>,
    mats: Vec<f32>,
    m_rel: Vec<f32>,
    v_rel: Vec<f32>,
    m_mat: Vec<f32>,
    v_mat: Vec<f32>,
    /// The block trainers' per-chunk scratches, kept across blocks.
    scratches: Vec<TrainScratch>,
    /// Where the writer commits and pages read: the filesystem, or a fault
    /// plan in tests.
    io: Arc<dyn ArtifactIo + Send + Sync>,
    /// The open epoch and block telemetry records (off unless
    /// [`OocTrainer::record_telemetry`]).
    clock: PhaseClock,
    block_clock: PhaseClock,
    records: Vec<TrainRecord>,
}

impl OocTrainer {
    /// Initialize fresh out-of-core state in `cfg.dir`: plan the partition
    /// layout, stream the model init partition-by-partition to disk (one
    /// RNG, identical draw order to [`PkgmModel::new`] — the assembled
    /// table is bit-identical to a resident init with the same seed), and
    /// persist the manifest + resident state.
    pub fn new<S: TripleSource + ?Sized>(source: &S, cfg: OocConfig) -> Result<Self, OocError> {
        let n_entities = TripleSource::n_entities(source) as u64;
        let n_relations = TripleSource::n_relations(source) as u64;
        if n_entities == 0 || n_relations == 0 || source.is_empty() {
            return Err(OocError::State("empty triple source".into()));
        }
        let d = cfg.model.dim;
        let parts = plan_partitions(n_entities, d, cfg.mem_budget as u64)?;
        std::fs::create_dir_all(&cfg.dir)?;

        let mut me = Self {
            cfg,
            n_entities,
            n_relations,
            written: vec![None; parts.len()],
            parts,
            gen: 0,
            t: 0,
            epochs_done: 0,
            blocks_done: 0,
            rel: Vec::new(),
            mats: Vec::new(),
            m_rel: vec![0.0; n_relations as usize * d],
            v_rel: vec![0.0; n_relations as usize * d],
            m_mat: Vec::new(),
            v_mat: Vec::new(),
            scratches: Vec::new(),
            io: Arc::new(StdIo),
            clock: PhaseClock::default(),
            block_clock: PhaseClock::default(),
            records: Vec::new(),
        };

        // Streamed init: same single RNG and draw order as PkgmModel::new.
        // Each partition is one commit, written while the next is drawn.
        let io = Arc::clone(&me.io);
        with_writer(&*io, false, |writer| {
            let mut rng = SmallRng::seed_from_u64(me.cfg.model.seed ^ 0x9E37_79B9);
            let bound = 6.0 / (d as f64).sqrt();
            for k in 0..me.parts.len() {
                let n = me.parts[k].1 as usize * d;
                let mut ent = vec![0.0f32; n];
                for x in ent.iter_mut() {
                    *x = rng.gen_range(-bound..bound) as f32;
                }
                let zeros = vec![0.0f32; n];
                writer.wait()?;
                me.frame_partition(writer, k, 0, &ent, &zeros, &zeros);
                writer.hand_over()?;
            }
            me.rel = (0..n_relations as usize * d)
                .map(|_| rng.gen_range(-bound..bound) as f32)
                .collect();
            if me.cfg.model.relation_module {
                let nr = n_relations as usize;
                let mut m = vec![0.0f32; nr * d * d];
                for r in 0..nr {
                    for i in 0..d {
                        for j in 0..d {
                            let noise = rng
                                .gen_range(-me.cfg.model.init_noise..me.cfg.model.init_noise)
                                as f32;
                            m[r * d * d + i * d + j] = noise + if i == j { 1.0 } else { 0.0 };
                        }
                    }
                }
                me.mats = m;
                me.m_mat = vec![0.0; nr * d * d];
                me.v_mat = vec![0.0; nr * d * d];
            }
            writer.wait()?;
            me.frame_manifest(writer)?;
            writer.hand_over()?;
            writer.wait()?;
            me.frame_resident(writer);
            writer.hand_over()
        })?;
        Ok(me)
    }

    /// Reopen existing out-of-core state for a warm-start resume. Partition
    /// generation stamps are validated lazily as blocks load them.
    pub fn resume(dir: &Path) -> Result<Self, OocError> {
        let payload =
            artifact::read_artifact(&StdIo, &dir.join(MANIFEST_FILE), ArtifactKind::Checkpoint)?;
        let manifest: Manifest = serde_json::from_slice(&payload)
            .map_err(|e| OocError::State(format!("bad manifest: {e}")))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(OocError::State(format!(
                "manifest version {} (expected {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        let d = manifest.model.dim;
        let nr = manifest.n_relations as usize;
        let mat_len = if manifest.model.relation_module {
            nr * d * d
        } else {
            0
        };

        let resident_path = dir.join(RESIDENT_FILE);
        let bytes = StdIo.read(&resident_path)?;
        let payload = artifact::decode(&resident_path, ArtifactKind::Checkpoint, &bytes)?;
        let mut r = Reader::new(payload, &resident_path);
        let gen = r.u64()?;
        let t = r.u64()?;
        let epochs_done = r.u64()? as usize;
        let blocks_done = r.u64()? as usize;
        let rel = r.f32s(nr * d)?;
        let mats = r.f32s(mat_len)?;
        let m_rel = r.f32s(nr * d)?;
        let v_rel = r.f32s(nr * d)?;
        let m_mat = r.f32s(mat_len)?;
        let v_mat = r.f32s(mat_len)?;
        r.done()?;

        Ok(Self {
            cfg: OocConfig {
                model: manifest.model,
                train: manifest.train,
                mem_budget: manifest.mem_budget as usize,
                dir: dir.to_path_buf(),
            },
            n_entities: manifest.n_entities,
            n_relations: manifest.n_relations,
            written: vec![None; manifest.partitions.len()],
            parts: manifest.partitions,
            gen,
            t,
            epochs_done,
            blocks_done,
            rel,
            mats,
            m_rel,
            v_rel,
            m_mat,
            v_mat,
            scratches: Vec::new(),
            io: Arc::new(StdIo),
            clock: PhaseClock::default(),
            block_clock: PhaseClock::default(),
            records: Vec::new(),
        })
    }

    /// Record one [`TrainRecord`] per block and one per epoch that
    /// [`OocTrainer::train`] runs from now on (read them with
    /// [`OocTrainer::take_records`]). Without this call no clock is read.
    pub fn record_telemetry(&mut self) {
        self.clock = PhaseClock::on();
        self.block_clock = PhaseClock::on();
    }

    /// The telemetry records so far, in the order they closed (an epoch's
    /// blocks, then the epoch), leaving none behind.
    pub fn take_records(&mut self) -> Vec<TrainRecord> {
        mem::take(&mut self.records)
    }

    /// Partition plan: `(row_start, n_rows)` per partition.
    pub fn partitions(&self) -> &[(u64, u64)] {
        &self.parts
    }

    /// Number of entity-range partitions.
    pub fn n_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Epochs fully completed so far (across resumes).
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Training configuration.
    pub fn config(&self) -> &OocConfig {
        &self.cfg
    }

    /// Train until `cfg.train.epochs` epochs are done, resuming from the
    /// persisted epoch/block cursor. Every block commits its partitions and
    /// then the resident state, on a writer thread while the next block
    /// trains; each epoch waits for its last commits before it closes, and
    /// `train` returns only once the writer has drained, with the first
    /// failed write if there was one. A kill outside the commit window
    /// loses at most two blocks — the one training and the one being
    /// committed — which resume replays; a kill inside it (a partition
    /// already renamed into place, the resident file not yet) leaves a
    /// partition a generation ahead, and resume refuses the state:
    /// training restarts from init (see the module docs).
    pub fn train<S: TripleSource + ?Sized>(&mut self, source: &S) -> Result<OocReport, OocError> {
        if source.n_entities() as u64 != self.n_entities
            || source.n_relations() as u64 != self.n_relations
        {
            return Err(OocError::State(format!(
                "source id spaces ({} entities, {} relations) do not match the trained state ({}, {})",
                source.n_entities(),
                source.n_relations(),
                self.n_entities,
                self.n_relations
            )));
        }
        let start = Instant::now();
        let total = self.cfg.train.epochs;
        let mut epochs = Vec::new();
        let mut halted = None;
        let mut best_loss = f32::INFINITY;
        let mut blocks_run = 0usize;
        // A mid-epoch resume reports partial stats for its first epoch —
        // they cover only the remaining blocks, so the divergence guard
        // (which compares full-epoch means) skips that epoch.
        let mut partial_epoch = self.blocks_done > 0;
        let io = Arc::clone(&self.io);
        with_writer(&*io, self.clock.is_on(), |writer| {
            while self.epochs_done < total {
                let epoch = self.epochs_done;
                self.clock.reopen();
                let stats = self.train_epoch(source, writer, epoch as u64, &mut blocks_run)?;
                // The epoch's last block lands before its record closes.
                let mut written = writer.wait()?;
                if !partial_epoch {
                    if let Some(reason) = diverged(stats.mean_loss, best_loss) {
                        halted = Some(format!("epoch {}: {reason}", epoch + 1));
                        self.clock.lap(Phase::Commit);
                        self.clock.wrote(written);
                        self.records.extend(self.clock.close(epoch, None, &stats));
                        epochs.push(stats);
                        break;
                    }
                    best_loss = best_loss.min(stats.mean_loss.max(1e-3));
                }
                partial_epoch = false;
                self.epochs_done = epoch + 1;
                self.blocks_done = 0;
                self.frame_resident(writer);
                writer.hand_over()?;
                written += writer.wait()?;
                self.clock.lap(Phase::Commit);
                self.clock.wrote(written);
                self.records.extend(self.clock.close(epoch, None, &stats));
                epochs.push(stats);
            }
            Ok(())
        })?;
        Ok(OocReport {
            epochs,
            n_partitions: self.parts.len(),
            blocks: blocks_run,
            wall_secs: start.elapsed().as_secs_f64(),
            halted,
        })
    }

    fn part_of(&self, e: u32) -> usize {
        let g = e as u64;
        self.parts.partition_point(|&(start, len)| start + len <= g)
    }

    fn train_epoch<S: TripleSource + ?Sized>(
        &mut self,
        source: &S,
        writer: &mut Writer,
        epoch: u64,
        blocks_run: &mut usize,
    ) -> Result<EpochStats, OocError> {
        // Identical shuffle to the resident trainer; the bucket grouping
        // below is a *stable* partition of this order.
        let mut order: Vec<u32> = (0..source.len() as u32).collect();
        let mut rng = SmallRng::seed_from_u64(self.cfg.train.seed ^ (epoch << 32) ^ 0x5EED);
        order.shuffle(&mut rng);

        let p = self.parts.len();
        let groups: Vec<(usize, usize, Vec<u32>)> = if p == 1 {
            vec![(0, 0, order)]
        } else {
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); p * p];
            for idx in order {
                let t = source.triple(idx as usize);
                let bi = self.part_of(t.head.0);
                let bj = self.part_of(t.tail.0);
                buckets[bi * p + bj].push(idx);
            }
            buckets
                .into_iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .map(|(id, b)| (id / p, id % p, b))
                .collect()
        };
        self.clock.lap(Phase::Grads);

        let batch_size = self.cfg.train.batch_size.max(1);
        let mut total_loss = 0.0f64;
        let mut total_violations = 0usize;
        let mut total_pairs = 0usize;
        let mut batch_idx = 0u64;
        for (block_idx, (pi, pj, idxs)) in groups.iter().enumerate() {
            let n_batches = idxs.len().div_ceil(batch_size) as u64;
            if block_idx < self.blocks_done {
                // Already committed before a resume: keep the global batch
                // counter (and with it the per-batch seeds) aligned.
                batch_idx += n_batches;
                continue;
            }
            let next_gen = self.gen + 1;
            self.block_clock.reopen();
            let (loss, violations, pairs) =
                self.train_block(source, writer, *pi, *pj, idxs, epoch, batch_idx, next_gen)?;
            batch_idx += n_batches;
            total_loss += loss;
            total_violations += violations;
            total_pairs += pairs;
            *blocks_run += 1;
            self.gen = next_gen;
            self.blocks_done = block_idx + 1;
            self.frame_resident(writer);
            writer.hand_over()?;
            self.block_clock.lap(Phase::Commit);
            let stats = EpochStats::from_totals(loss, violations, pairs);
            if let Some(rec) = self
                .block_clock
                .close(epoch as usize, Some(block_idx), &stats)
            {
                self.clock.absorb(&rec);
                self.records.push(rec);
            }
        }
        Ok(EpochStats::from_totals(
            total_loss,
            total_violations,
            total_pairs,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn train_block<S: TripleSource + ?Sized>(
        &mut self,
        source: &S,
        writer: &mut Writer,
        pi: usize,
        pj: usize,
        idxs: &[u32],
        epoch: u64,
        batch_start: u64,
        next_gen: u64,
    ) -> Result<(f64, usize, usize), OocError> {
        let d = self.cfg.model.dim;
        let (si, li) = self.parts[pi];
        let space = if pi == pj {
            BlockSpace::one(si, li)
        } else {
            let (sj, lj) = self.parts[pj];
            BlockSpace::two(si, li, sj, lj)
        };

        let block_entities = space.n_local() as usize;
        let ni = li as usize * d;
        let mut ent = vec![0.0f32; block_entities * d];
        let mut m_ent = vec![0.0f32; block_entities * d];
        let mut v_ent = vec![0.0f32; block_entities * d];
        self.load_partition_into(
            pi,
            writer.in_flight_frame(pi),
            &mut ent[..ni],
            Some((&mut m_ent[..ni], &mut v_ent[..ni])),
        )?;
        if pj != pi {
            self.load_partition_into(
                pj,
                writer.in_flight_frame(pj),
                &mut ent[ni..],
                Some((&mut m_ent[ni..], &mut v_ent[ni..])),
            )?;
        }
        self.block_clock.lap(Phase::PageIn);

        let mut model = PkgmModel {
            cfg: self.cfg.model.clone(),
            n_entities: block_entities,
            n_relations: self.n_relations as usize,
            ent,
            rel: mem::take(&mut self.rel),
            mats: mem::take(&mut self.mats),
        };
        let mut bt = Trainer::without_state(self.cfg.train.clone());
        bt.m_ent = m_ent;
        bt.v_ent = v_ent;
        bt.m_rel = mem::take(&mut self.m_rel);
        bt.v_rel = mem::take(&mut self.v_rel);
        bt.m_mat = mem::take(&mut self.m_mat);
        bt.v_mat = mem::take(&mut self.v_mat);
        bt.t = self.t;
        bt.scratches = mem::take(&mut self.scratches);
        bt.clock = mem::take(&mut self.block_clock);

        let triples: Vec<Triple> = idxs
            .iter()
            .map(|&i| space.localize(source.triple(i as usize)))
            .collect();
        let sampler = OocSampler::new(block_entities as u32, self.n_relations as u32);
        let sample = |chunk: &[Triple], negatives, rng: &mut SmallRng, pairs: &mut Vec<_>| {
            pairs.clear();
            for &pos in chunk {
                for _ in 0..negatives {
                    let (neg, slot) = sampler.corrupt(pos, source, &space, rng);
                    pairs.push(CorruptedPair { pos, neg, slot });
                }
            }
        };

        bt.clock.lap(Phase::Grads);

        // The resident minibatch loop, on block-local ids: same per-batch
        // seeds, chunk layout, kernels and Adam step.
        let batch_size = bt.cfg.batch_size.max(1);
        let mut loss = 0.0f64;
        let mut violations = 0usize;
        let mut pairs = 0usize;
        for (k, batch) in triples.chunks(batch_size).enumerate() {
            let batch_idx = batch_start + k as u64;
            let (l, v, p) = bt.batch_step(&mut model, batch, epoch, batch_idx, &sample);
            loss += l;
            violations += v;
            pairs += p;
        }

        self.t = bt.t;
        self.scratches = mem::take(&mut bt.scratches);
        self.block_clock = mem::take(&mut bt.clock);
        self.m_rel = mem::take(&mut bt.m_rel);
        self.v_rel = mem::take(&mut bt.v_rel);
        self.m_mat = mem::take(&mut bt.m_mat);
        self.v_mat = mem::take(&mut bt.v_mat);
        self.rel = mem::take(&mut model.rel);
        self.mats = mem::take(&mut model.mats);

        // The block before hands its buffers back before this one frames.
        let written = writer.wait()?;
        self.block_clock.wrote(written);
        let (ent, m_ent, v_ent) = (&model.ent, &bt.m_ent, &bt.v_ent);
        self.frame_partition(writer, pi, next_gen, &ent[..ni], &m_ent[..ni], &v_ent[..ni]);
        if pj != pi {
            self.frame_partition(writer, pj, next_gen, &ent[ni..], &m_ent[ni..], &v_ent[ni..]);
        }
        Ok((loss, violations, pairs))
    }

    /// Load every partition and assemble the full resident model — for
    /// evaluation and tests; requires the whole table to fit in RAM.
    pub fn assemble_model(&self) -> Result<PkgmModel, OocError> {
        let d = self.cfg.model.dim;
        let mut ent = vec![0.0f32; self.n_entities as usize * d];
        for (k, &(start, len)) in self.parts.iter().enumerate() {
            let rows = start as usize * d..(start + len) as usize * d;
            self.load_partition_into(k, None, &mut ent[rows], None)?;
        }
        Ok(PkgmModel {
            cfg: self.cfg.model.clone(),
            n_entities: self.n_entities as usize,
            n_relations: self.n_relations as usize,
            ent,
            rel: self.rel.clone(),
            mats: self.mats.clone(),
        })
    }

    /// Stream one PKGMSS3 dense snapshot per partition to
    /// `{base}.shard{K}of{N}` (or `base` when `N = 1`), never holding more
    /// than one partition of entity rows. Row values are bit-identical to a
    /// resident [`crate::snapshot::ServiceSnapshot::build`] +
    /// `shard_slice` over the assembled model: both run
    /// `snapshot::condensed_rows_into`.
    pub fn write_snapshots(
        &self,
        selector: &KeyRelationSelector,
        base: &Path,
    ) -> Result<Vec<PathBuf>, OocError> {
        if !self.cfg.model.relation_module {
            return Err(OocError::State(
                "service snapshots require the relation module".into(),
            ));
        }
        let d = self.cfg.model.dim;
        let n_shards = self.parts.len() as u32;
        let mut out_paths = Vec::with_capacity(self.parts.len());
        let mut block = PkgmModel {
            cfg: self.cfg.model.clone(),
            n_entities: 0,
            n_relations: self.n_relations as usize,
            ent: Vec::new(),
            rel: self.rel.clone(),
            mats: self.mats.clone(),
        };
        let mats_t = block.transposed_mats();
        // One partition's condensed rows: with its entity rows, the whole
        // resident partition state during emission.
        let mut rows: Vec<f32> = Vec::new();
        for (k, &(start, len)) in self.parts.iter().enumerate() {
            block.ent.resize(len as usize * d, 0.0);
            self.load_partition_into(k, None, &mut block.ent, None)?;
            block.n_entities = len as usize;
            rows.clear();
            rows.resize(len as usize * 2 * d, 0.0);
            let table = crate::simd::active();
            condensed_rows_into(table, &block, &mats_t, selector, start as u32, &mut rows);
            let path = shard_file_path(base, k as u32, n_shards);
            let spec = ShardSpec {
                n_shards,
                shard_id: k as u32,
                row_start: start,
            };
            let mut w = Ss3DenseWriter::create(&path, d, selector.k(), len, spec)?;
            w.write_rows(&rows)?;
            w.finish()?;
            out_paths.push(path);
        }
        Ok(out_paths)
    }

    fn partition_path(&self, k: usize) -> PathBuf {
        self.cfg
            .dir
            .join(format!("ooc-part-{:05}of{:05}.pkgm", k, self.parts.len()))
    }

    /// Frame partition `k` at generation `gen` into the writer's next set.
    fn frame_partition(
        &mut self,
        writer: &mut Writer,
        k: usize,
        gen: u64,
        ent: &[f32],
        m: &[f32],
        v: &[f32],
    ) {
        let (start, len) = self.parts[k];
        let dim = self.cfg.model.dim as u64;
        self.written[k] = Some(gen);
        let payload_len = 32 + (ent.len() + m.len() + v.len()) * 4;
        writer.frame(self.partition_path(k), Some(k), payload_len, |buf| {
            for stamp in [gen, start, len, dim] {
                buf.extend_from_slice(&stamp.to_le_bytes());
            }
            le::extend(buf, ent);
            le::extend(buf, m);
            le::extend(buf, v);
        });
    }

    /// Verify partition `k`'s frame — `frame` when its newest frame is in
    /// flight, else the file — its plan stamps and generation, and decode
    /// its entity rows into `ent` and its Adam moments into `moments` when
    /// given (evaluation and snapshot emission need only the rows). The
    /// checksum covers the whole frame either way, and is verified before
    /// a single value is decoded.
    fn load_partition_into(
        &self,
        k: usize,
        frame: Option<&[u8]>,
        ent: &mut [f32],
        moments: Option<(&mut [f32], &mut [f32])>,
    ) -> Result<(), OocError> {
        let path = self.partition_path(k);
        let read;
        let bytes = match frame {
            Some(frame) => frame,
            None => {
                read = self.io.read(&path)?;
                &read
            }
        };
        let payload = artifact::decode(&path, ArtifactKind::Checkpoint, bytes)?;
        let mut r = Reader::new(payload, &path);
        let gen = r.u64()?;
        let start = r.u64()?;
        let len = r.u64()?;
        let dim = r.u64()?;
        let (want_start, want_len) = self.parts[k];
        if (start, len, dim as usize) != (want_start, want_len, self.cfg.model.dim) {
            return Err(OocError::State(format!(
                "{}: partition covers rows {start}+{len} dim {dim}, plan expects {want_start}+{want_len} dim {}",
                path.display(),
                self.cfg.model.dim
            )));
        }
        if gen > self.gen {
            return Err(OocError::State(format!(
                "{}: partition generation {gen} is ahead of the committed state ({}) — \
                 an interrupted block left mixed state; restart training from init",
                path.display(),
                self.gen
            )));
        }
        if let Some(want) = self.written[k].filter(|&want| want != gen) {
            return Err(OocError::State(format!(
                "{}: partition generation {gen}, but this trainer last wrote generation {want} — \
                 the file was replaced by a stale copy",
                path.display()
            )));
        }
        assert_eq!(
            ent.len(),
            len as usize * self.cfg.model.dim,
            "destination must hold exactly the partition's rows"
        );
        r.f32s_into(ent)?;
        match moments {
            Some((m, v)) => {
                r.f32s_into(m)?;
                r.f32s_into(v)?;
            }
            None => {
                r.take(ent.len().saturating_mul(8))?;
            }
        }
        r.done()
    }

    fn frame_manifest(&self, writer: &mut Writer) -> Result<(), OocError> {
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            n_entities: self.n_entities,
            n_relations: self.n_relations,
            model: self.cfg.model.clone(),
            train: self.cfg.train.clone(),
            mem_budget: self.cfg.mem_budget as u64,
            partitions: self.parts.clone(),
        };
        let json = serde_json::to_vec(&manifest)
            .map_err(|e| OocError::State(format!("manifest encode: {e}")))?;
        let path = self.cfg.dir.join(MANIFEST_FILE);
        writer.frame(path, None, json.len(), |buf| buf.extend_from_slice(&json));
        Ok(())
    }

    /// Frame the resident state and the cursor into the writer's next set.
    fn frame_resident(&self, writer: &mut Writer) {
        let tables = [
            &self.rel,
            &self.mats,
            &self.m_rel,
            &self.v_rel,
            &self.m_mat,
            &self.v_mat,
        ];
        let cursor = [
            self.gen,
            self.t,
            self.epochs_done as u64,
            self.blocks_done as u64,
        ];
        let payload_len = 32 + tables.iter().map(|t| t.len() * 4).sum::<usize>();
        let path = self.cfg.dir.join(RESIDENT_FILE);
        writer.frame(path, None, payload_len, |buf| {
            for c in cursor {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            for table in tables {
                le::extend(buf, table);
            }
        });
    }
}

/// A sealed checkpoint frame and the file it replaces.
struct Frame {
    path: PathBuf,
    /// The partition it holds; `None` for the resident file and the
    /// manifest.
    part: Option<usize>,
    bytes: Vec<u8>,
}

/// One commit, in the order it is written.
type FrameSet = Arc<Vec<Frame>>;

/// The writer's reply to a set: its busy seconds (0 when untimed), or the
/// failed write it stopped at.
type Written = Result<f64, ArtifactError>;

/// The loop's end of the writer thread (see the module docs): the set
/// being framed, the one set in flight, and the buffers of the set before.
struct Writer {
    sets: mpsc::Sender<FrameSet>,
    replies: mpsc::Receiver<Written>,
    next: Vec<Frame>,
    in_flight: Option<FrameSet>,
    spare_parts: Vec<Vec<u8>>,
    spare_resident: Vec<u8>,
}

impl Writer {
    /// Wait until the set in flight is on disk and take its buffers back.
    /// Returns the writer's busy seconds on it, or its first failed write.
    fn wait(&mut self) -> Result<f64, OocError> {
        let Some(set) = self.in_flight.take() else {
            return Ok(0.0);
        };
        let written = self
            .replies
            .recv()
            .map_err(|_| OocError::State("the commit writer stopped".into()))?;
        let frames = Arc::into_inner(set).expect("the writer drops a set before replying");
        for frame in frames {
            match frame.part {
                Some(_) => self.spare_parts.push(frame.bytes),
                None => self.spare_resident = frame.bytes,
            }
        }
        Ok(written?)
    }

    /// Frame a `payload_len`-byte checkpoint payload, written by `fill`,
    /// for `path` into the next set — into a buffer of its own kind.
    fn frame(
        &mut self,
        path: PathBuf,
        part: Option<usize>,
        payload_len: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut bytes = match part {
            Some(_) => self.spare_parts.pop().unwrap_or_default(),
            None => mem::take(&mut self.spare_resident),
        };
        artifact::frame_begin(&mut bytes, payload_len);
        fill(&mut bytes);
        artifact::frame_seal(ArtifactKind::Checkpoint, &mut bytes);
        self.next.push(Frame { path, part, bytes });
    }

    /// Hand the framed set to the writer thread; the set before must have
    /// been waited for.
    fn hand_over(&mut self) -> Result<(), OocError> {
        assert!(self.in_flight.is_none(), "one set in flight at a time");
        let set = Arc::new(mem::take(&mut self.next));
        self.sets
            .send(Arc::clone(&set))
            .map_err(|_| OocError::State("the commit writer stopped".into()))?;
        self.in_flight = Some(set);
        Ok(())
    }

    /// Partition `k`'s frame if the set in flight holds it.
    fn in_flight_frame(&self, k: usize) -> Option<&[u8]> {
        let set = self.in_flight.as_ref()?;
        set.iter().find(|f| f.part == Some(k)).map(|f| &f.bytes[..])
    }
}

/// Run `body` beside a writer thread that commits its frame sets through
/// `io`, timing each set when `timed`. The thread is scoped: it is joined
/// on every path, after the set in flight has landed or failed. A failed
/// write is the error returned, over any error `body` met after it.
fn with_writer<T>(
    io: &(dyn ArtifactIo + Send + Sync),
    timed: bool,
    body: impl FnOnce(&mut Writer) -> Result<T, OocError>,
) -> Result<T, OocError> {
    let (sets, to_write) = mpsc::channel();
    let (written, replies) = mpsc::channel();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("pkgm-ooc-writer".into())
            .spawn_scoped(scope, move || write_sets(io, to_write, written, timed))?;
        let mut writer = Writer {
            sets,
            replies,
            next: Vec::new(),
            in_flight: None,
            spare_parts: Vec::new(),
            spare_resident: Vec::new(),
        };
        let out = body(&mut writer);
        writer.wait()?;
        out
    })
}

/// The writer thread: commit each set's frames in order, reply, and stop
/// at the first failed write, writing nothing after it.
fn write_sets(
    io: &dyn ArtifactIo,
    sets: mpsc::Receiver<FrameSet>,
    replies: mpsc::Sender<Written>,
    timed: bool,
) {
    for set in sets {
        let started = timed.then(Instant::now);
        let done = set
            .iter()
            .try_for_each(|f| io.write_atomic(&f.path, &f.bytes));
        drop(set);
        let failed = done.is_err();
        let reply = done.map(|()| started.map_or(0.0, |t| t.elapsed().as_secs_f64()));
        if replies.send(reply).is_err() || failed {
            return;
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Self { buf, off: 0, path }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], OocError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                OocError::State(format!(
                    "{}: truncated payload ({} bytes, {n} more wanted at {})",
                    self.path.display(),
                    self.buf.len(),
                    self.off
                ))
            })?;
        let s = &self.buf[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, OocError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, OocError> {
        Ok(le::to_vec(self.take(n.saturating_mul(4))?))
    }

    fn f32s_into(&mut self, dst: &mut [f32]) -> Result<(), OocError> {
        le::copy_from(dst, self.take(dst.len().saturating_mul(4))?);
        Ok(())
    }

    fn done(&self) -> Result<(), OocError> {
        if self.off != self.buf.len() {
            return Err(OocError::State(format!(
                "{}: {} trailing bytes",
                self.path.display(),
                self.buf.len() - self.off
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan, FaultyIo};
    use pkgm_store::StoreBuilder;

    fn store(n_items: u32, n_rel: u32) -> TripleStore {
        let mut b = StoreBuilder::new();
        for i in 0..n_items {
            for r in 0..n_rel {
                b.add_raw(i, r, n_items + (i * 7 + r * 3) % (n_items / 2).max(1));
            }
        }
        b.build()
    }

    fn train_cfg() -> TrainConfig {
        TrainConfig {
            lr: 5e-3,
            margin: 2.0,
            batch_size: 16,
            epochs: 3,
            negatives: 2,
            seed: 42,
            normalize_entities: true,
            parallel: false,
            chunk_size: Some(8),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pkgm-ooc-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn plan_keeps_one_partition_when_budget_fits() {
        let parts = plan_partitions(1000, 16, usize::MAX as u64).unwrap();
        assert_eq!(parts, vec![(0, 1000)]);
    }

    #[test]
    fn plan_splits_and_blocks_fit_budget() {
        let dim = 16;
        let bpe = (3 * dim * 4) as u64;
        let n = 1000u64;
        let budget = n * bpe / 3; // forces >= 2 partitions
        let parts = plan_partitions(n, dim, budget).unwrap();
        assert!(parts.len() >= 2, "expected a split, got {parts:?}");
        // contiguous cover
        let mut next = 0u64;
        for &(start, len) in &parts {
            assert_eq!(start, next);
            assert!(len > 0);
            next += len;
        }
        assert_eq!(next, n);
        // any two partitions fit the budget
        let max_len = parts.iter().map(|&(_, l)| l).max().unwrap();
        assert!(2 * max_len * bpe <= budget);
    }

    #[test]
    fn plan_rejects_impossible_budget() {
        assert!(matches!(
            plan_partitions(10, 64, 16),
            Err(OocError::Budget(_))
        ));
    }

    #[test]
    fn synthetic_triples_are_deterministic_and_in_range() {
        let s = SyntheticTriples {
            n_entities: 50,
            n_relations: 7,
            n_triples: 500,
            seed: 9,
        };
        for i in 0..s.len() {
            let t = s.triple(i);
            assert!(t.head.0 < 50 && t.tail.0 < 50 && t.relation.0 < 7);
            assert_eq!(t, s.triple(i));
        }
    }

    #[test]
    fn streamed_init_is_bit_identical_to_resident_init() {
        let s = store(40, 4);
        let model_cfg = PkgmConfig::new(8).with_seed(7);
        let dir = tmp_dir("init");
        let ooc = OocTrainer::new(
            &s,
            OocConfig {
                model: model_cfg.clone(),
                train: train_cfg(),
                mem_budget: 3 * 8 * 4 * 12, // ~12 rows per block -> several partitions
                dir: dir.clone(),
            },
        )
        .unwrap();
        assert!(ooc.n_partitions() >= 2);
        let assembled = ooc.assemble_model().unwrap();
        let resident = PkgmModel::new(
            TripleSource::n_entities(&s) as usize,
            TripleSource::n_relations(&s) as usize,
            model_cfg,
        );
        assert_eq!(bits(&assembled.ent), bits(&resident.ent));
        assert_eq!(bits(&assembled.rel), bits(&resident.rel));
        assert_eq!(bits(&assembled.mats), bits(&resident.mats));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn single_block_training_is_bit_identical_to_resident() {
        let s = store(40, 4);
        let model_cfg = PkgmConfig::new(8).with_seed(7);
        let tcfg = train_cfg();

        let mut resident = PkgmModel::new(
            TripleSource::n_entities(&s) as usize,
            TripleSource::n_relations(&s) as usize,
            model_cfg.clone(),
        );
        let mut rt = Trainer::new(&resident, tcfg.clone());
        let r_report = rt.train(&mut resident, &s);

        let dir = tmp_dir("p1");
        let mut ooc = OocTrainer::new(
            &s,
            OocConfig {
                model: model_cfg,
                train: tcfg,
                mem_budget: usize::MAX,
                dir: dir.clone(),
            },
        )
        .unwrap();
        assert_eq!(ooc.n_partitions(), 1);
        let o_report = ooc.train(&s).unwrap();
        let assembled = ooc.assemble_model().unwrap();

        assert_eq!(bits(&assembled.ent), bits(&resident.ent));
        assert_eq!(bits(&assembled.rel), bits(&resident.rel));
        assert_eq!(bits(&assembled.mats), bits(&resident.mats));
        for (a, b) in r_report.epochs.iter().zip(&o_report.epochs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            assert_eq!(a.pairs, b.pairs);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_block_training_is_deterministic_across_resume() {
        let s = store(60, 3);
        let model_cfg = PkgmConfig::new(8).with_seed(11);
        let budget = 3 * 8 * 4 * 40; // 2 partitions x 20 rows per block
        let mut straight_cfg = train_cfg();
        straight_cfg.epochs = 2;

        let dir_a = tmp_dir("straight");
        let mut a = OocTrainer::new(
            &s,
            OocConfig {
                model: model_cfg.clone(),
                train: straight_cfg.clone(),
                mem_budget: budget,
                dir: dir_a.clone(),
            },
        )
        .unwrap();
        assert!(a.n_partitions() >= 2);
        a.train(&s).unwrap();
        let straight = a.assemble_model().unwrap();

        // Same run split into 1 epoch + resume for the second.
        let dir_b = tmp_dir("resumed");
        let mut first_cfg = straight_cfg.clone();
        first_cfg.epochs = 1;
        let mut b = OocTrainer::new(
            &s,
            OocConfig {
                model: model_cfg,
                train: first_cfg,
                mem_budget: budget,
                dir: dir_b.clone(),
            },
        )
        .unwrap();
        b.train(&s).unwrap();
        drop(b);
        let mut b = OocTrainer::resume(&dir_b).unwrap();
        b.cfg.train.epochs = straight_cfg.epochs;
        assert_eq!(b.epochs_done(), 1);
        b.train(&s).unwrap();
        let resumed = b.assemble_model().unwrap();

        assert_eq!(bits(&straight.ent), bits(&resumed.ent));
        assert_eq!(bits(&straight.rel), bits(&resumed.rel));
        assert_eq!(bits(&straight.mats), bits(&resumed.mats));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn telemetry_records_every_block_and_moves_no_byte() {
        let s = store(60, 3);
        let budget = 3 * 8 * 4 * 40; // 2 partitions x 20 rows per block
        let run = |tag: &str, telemetry: bool| {
            let dir = tmp_dir(tag);
            let mut tr = OocTrainer::new(
                &s,
                OocConfig {
                    model: PkgmConfig::new(8).with_seed(11),
                    train: TrainConfig {
                        epochs: 2,
                        ..train_cfg()
                    },
                    mem_budget: budget,
                    dir: dir.clone(),
                },
            )
            .unwrap();
            if telemetry {
                tr.record_telemetry();
            }
            let report = tr.train(&s).unwrap();
            let model = tr.assemble_model().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            (report, tr.take_records(), model)
        };
        let (report, records, on) = run("telemetry-on", true);
        let (_, silent, off) = run("telemetry-off", false);
        assert!(silent.is_empty());
        assert_eq!(bits(&on.ent), bits(&off.ent));
        assert_eq!(bits(&on.mats), bits(&off.mats));

        let (blocks, epochs): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.block.is_some());
        assert!(report.n_partitions >= 2);
        assert_eq!(blocks.len(), report.blocks, "one record per block");
        assert_eq!(epochs.len(), 2, "one record per epoch");
        for b in &blocks {
            assert!(b.commit_s > 0.0 && b.page_in_s > 0.0, "{b:?}");
            assert!(b.grads_s > 0.0 && b.adam_s > 0.0, "{b:?}");
            assert!(b.phases_s().iter().sum::<f64>() <= b.wall_s, "{b:?}");
        }
        for (e, stats) in epochs.iter().zip(&report.epochs) {
            let mine: Vec<_> = blocks.iter().filter(|b| b.epoch == e.epoch).collect();
            let pairs: usize = mine.iter().map(|b| b.pairs).sum();
            assert_eq!((pairs, e.pairs), (stats.pairs, stats.pairs));
            let commit: f64 = mine.iter().map(|b| b.commit_s).sum();
            assert!(e.commit_s > commit, "the epoch's own resident commit adds");
            assert!(e.phases_s().iter().sum::<f64>() <= e.wall_s, "{e:?}");
            // A block waits for the commit of the block before it; the
            // epoch for its last block's and its own resident commit.
            assert_eq!(mine[0].write_s, 0.0, "{:?}", mine[0]);
            assert!(mine[1..].iter().all(|b| b.write_s > 0.0), "{mine:?}");
            let written: f64 = mine.iter().map(|b| b.write_s).sum();
            assert!(e.write_s > written, "{e:?}");
        }
    }

    #[test]
    fn stale_generation_is_detected() {
        let s = store(30, 3);
        let dir = tmp_dir("gen");
        let mut ooc = OocTrainer::new(
            &s,
            OocConfig {
                model: PkgmConfig::new(8).with_seed(3),
                train: train_cfg(),
                mem_budget: usize::MAX,
                dir: dir.clone(),
            },
        )
        .unwrap();
        // Forge a partition stamped one generation ahead of the resident
        // commit — the signature of a block interrupted mid-commit.
        let n = ooc.parts[0].1 as usize * 8;
        let (mut ent, mut m, mut v) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        ooc.load_partition_into(0, None, &mut ent, Some((&mut m, &mut v)))
            .unwrap();
        let io = Arc::clone(&ooc.io);
        with_writer(&*io, false, |w| {
            ooc.frame_partition(w, 0, ooc.gen + 1, &ent, &m, &v);
            w.hand_over()
        })
        .unwrap();
        let err = ooc
            .load_partition_into(0, None, &mut ent, None)
            .unwrap_err();
        assert!(err.to_string().contains("ahead"), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 60-item store over two or more partitions, trained for two epochs.
    fn paged(tag: &str) -> (TripleStore, OocTrainer, PathBuf) {
        let s = store(60, 3);
        let dir = tmp_dir(tag);
        let tr = OocTrainer::new(
            &s,
            OocConfig {
                model: PkgmConfig::new(8).with_seed(11),
                train: TrainConfig {
                    epochs: 2,
                    ..train_cfg()
                },
                mem_budget: 3 * 8 * 4 * 40, // 2 partitions x 20 rows per block
                dir: dir.clone(),
            },
        )
        .unwrap();
        assert!(tr.n_partitions() >= 2);
        (s, tr, dir)
    }

    /// The epoch's blocks as `(pi, pj)`, in schedule order.
    fn schedule(tr: &OocTrainer, s: &TripleStore) -> Vec<(usize, usize)> {
        let buckets: std::collections::BTreeSet<_> = s
            .triples()
            .iter()
            .map(|t| (tr.part_of(t.head.0), tr.part_of(t.tail.0)))
            .collect();
        buckets.into_iter().collect()
    }

    /// File names in the order they were committed.
    #[derive(Default)]
    struct Recorded(std::sync::Mutex<Vec<String>>);

    impl ArtifactIo for Recorded {
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            self.0.lock().unwrap().push(name);
            StdIo.write_atomic(path, bytes)
        }
        fn read(&self, path: &Path) -> Result<Vec<u8>, ArtifactError> {
            StdIo.read(path)
        }
        fn remove(&self, path: &Path) -> Result<(), ArtifactError> {
            StdIo.remove(path)
        }
        fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, ArtifactError> {
            StdIo.list(dir)
        }
    }

    #[test]
    fn commits_land_block_by_block_partitions_first() {
        let (s, mut tr, dir) = paged("order");
        let log = Arc::new(Recorded::default());
        tr.io = log.clone();
        tr.train(&s).unwrap();
        let part = |k: usize| format!("ooc-part-{k:05}of{:05}.pkgm", tr.n_partitions());
        let mut want = Vec::new();
        for _ in 0..2 {
            for (pi, pj) in schedule(&tr, &s) {
                want.push(part(pi));
                if pj != pi {
                    want.push(part(pj));
                }
                want.push(RESIDENT_FILE.to_string());
            }
            want.push(RESIDENT_FILE.to_string());
        }
        assert_eq!(*log.0.lock().unwrap(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_partition_put_back_mid_run_is_refused() {
        let (s, mut tr, dir) = paged("stale");
        let path = tr.partition_path(0);
        let init = std::fs::read(&path).unwrap();
        tr.cfg.train.epochs = 1;
        tr.train(&s).unwrap();
        // Generation 0 is at most the committed generation: only the
        // generation this trainer wrote tells the old file from the new.
        std::fs::write(&path, &init).unwrap();
        tr.cfg.train.epochs = 2;
        let err = tr.train(&s).unwrap_err();
        assert!(
            matches!(&err, OocError::State(m) if m.contains("stale")),
            "got {err}"
        );
        assert!(tr.assemble_model().is_err());
        // A resumed trainer has written nothing, so it can only check `≤`.
        assert!(OocTrainer::resume(&dir).unwrap().assemble_model().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Train [`paged`] with block 3's first partition write (`resident:
    /// false`) or its resident write failing, after which more blocks
    /// train. Returns the error's directory, the failed write's index and
    /// the writes attempted.
    fn fail_block_write(tag: &str, resident: bool) -> (PathBuf, u64, u64) {
        let (s, mut tr, dir) = paged(tag);
        let blocks = schedule(&tr, &s);
        assert!(blocks.len() > 4, "a block trains after the failed one");
        let writes = |&(pi, pj): &(usize, usize)| if pi == pj { 2 } else { 3 };
        let first: u64 = blocks[..3].iter().map(writes).sum();
        let nth = if resident {
            first + writes(&blocks[3]) - 1
        } else {
            first
        };
        let faulty = Arc::new(FaultyIo::new(
            FaultPlan::new().with_fault(nth, Fault::FailWrite),
        ));
        tr.io = faulty.clone();
        let err = tr.train(&s).unwrap_err();
        assert!(
            matches!(err, OocError::Artifact(ArtifactError::Injected { .. })),
            "got {err}"
        );
        assert_eq!(faulty.injected(), 1);
        (dir, nth, faulty.writes())
    }

    #[test]
    fn a_failed_partition_write_stops_the_writer_and_resume_replays_the_block() {
        let (s, mut straight, dir_a) = paged("straight-run");
        straight.train(&s).unwrap();
        let want = straight.assemble_model().unwrap();

        let (dir_b, nth, writes) = fail_block_write("fail-part", false);
        assert_eq!(writes, nth + 1, "no write after the failed one");
        let mut resumed = OocTrainer::resume(&dir_b).unwrap();
        assert_eq!((resumed.epochs_done, resumed.blocks_done), (0, 3));
        resumed.train(&s).unwrap();
        let got = resumed.assemble_model().unwrap();
        assert_eq!(bits(&got.ent), bits(&want.ent));
        assert_eq!(bits(&got.rel), bits(&want.rel));
        assert_eq!(bits(&got.mats), bits(&want.mats));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn a_failed_resident_write_leaves_the_block_ahead_of_the_committed_state() {
        let (dir, nth, writes) = fail_block_write("fail-resident", true);
        assert_eq!(writes, nth + 1, "no write after the failed one");
        let mut resumed = OocTrainer::resume(&dir).unwrap();
        assert_eq!((resumed.epochs_done, resumed.blocks_done), (0, 3));
        let err = resumed.train(&store(60, 3)).unwrap_err();
        assert!(
            matches!(&err, OocError::State(m) if m.contains("ahead of the committed state")),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
