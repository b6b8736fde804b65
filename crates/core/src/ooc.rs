//! Out-of-core pre-training: train a knowledge-graph table **larger than
//! RAM** by partitioning the entity embedding table into contiguous
//! entity-range shards on disk and paging at most two partitions in at a
//! time.
//!
//! ## The block schedule
//!
//! The out-of-core trainer is not a second trainer: it holds one resident
//! [`Trainer`] (Adam moments, step counter `t`, scratches) and one block
//! [`PkgmModel`] for its whole run. An epoch shuffles all triple indices
//! with the `Trainer`'s shuffle, then stable-partitions them by the
//! *bucket* `(part(head), part(tail))` — a counting sort that preserves the
//! shuffled order within each bucket. Buckets run in ascending order; each
//! bucket is one **block**: its two partitions (entity rows + Adam moments)
//! are paged into the held model's and `Trainer`'s entity buffers, the
//! `Trainer` runs the resident block loop (`Trainer::train_block`) over
//! the bucket's indices on the block's view of the source (entity ids local
//! to the two partitions, batches numbered on from the blocks before), and
//! the partitions the next block does not use are paged back out.
//!
//! ## Equivalence contract
//!
//! * **One block** (the budget fits the whole table, `P = 1`): the bucket
//!   sort is the identity, the block-local id space *is* the global id
//!   space, and the one [`crate::NegativeSampler`] draws the identical RNG
//!   stream — training is **bit-for-bit identical** to the resident
//!   [`Trainer`] (asserted by
//!   `single_block_training_is_bit_identical_to_resident`).
//! * **Multiple blocks**: the schedule reorders minibatches across buckets
//!   and corruption draws block-local negatives, so parameters differ from
//!   resident training — but the run is **seed-deterministic** (same seeds
//!   → same bits, including across kill/resume cycles) and gated on eval
//!   parity with the resident trainer in `crates/core/tests/ooc_equivalence.rs`.
//!
//! ## On-disk state
//!
//! Everything lives in `OocConfig::dir` as atomic, CRC-checked
//! [`crate::artifact`] files (kind [`ArtifactKind::Checkpoint`]). Every
//! file but the manifest is named by a generation, and no write ever
//! touches a file a commit names:
//!
//! * `ooc-part-{K:05}of{N:05}.g{G:05}.pkgm` — partition `K` as generation
//!   `G` paged it out: entity rows + Adam `m`/`v` moments, stamped with
//!   `G`;
//! * `ooc-resident.g{G:05}.pkgm` — the commit at generation `G`: the small
//!   always-resident state (relation embeddings, transfer matrices, their
//!   moments), the Adam step counter, the epoch/block cursor and the
//!   **live table**, the generation of each partition's live file. Its
//!   rename plus the directory fsync is the only commit point;
//! * `ooc-manifest.pkgm` — static config (model/train hyper-parameters,
//!   the partition plan) as JSON, written last by [`OocTrainer::new`], so
//!   a directory without it holds no run.
//!
//! ## Commits at partition swaps
//!
//! A partition that the next block also uses stays in memory (moved within
//! the block's buffers at most): no page-out, no page-in. When a partition
//! leaves:
//!
//! * if it is not the **anchor** — the loaded partition in memory longest
//!   (the block's first on a tie) — it is paged out to a shadow file, and
//!   nothing commits;
//! * when the anchor leaves, the block commits: every loaded partition is
//!   paged out, then the resident file (cursor and live table) is written;
//! * the epoch's last block commits with the epoch close, in one resident
//!   write. A divergence halt commits nothing: the last commit (at `P > 1`
//!   maybe one inside the halted epoch) stays the recovery point. No
//!   commit frames a non-finite value: framing checks every value it
//!   copies, and once one is not finite the run halts, its page-outs land
//!   as shadows and its resident file is never written.
//!
//! **Every commit keeps its predecessor.** Once commit `n + 1` lands, the
//! writer deletes the files commit `n` superseded and commit `n − 1`'s
//! resident file; until then commit `n`'s files stay whole on disk.
//! [`OocTrainer::resume`] opens the newest commit whose resident file and
//! every partition file it names pass the page-in checks (checksum, kind,
//! exact generation), else its predecessor, and deletes every file the
//! chosen commit does not name. A stale file put back is refused.
//!
//! **What a kill loses:** the blocks since the last commit, plus the commit
//! in flight — never the run. The blocks since a commit all hold its
//! anchor, so they are at most that partition's row and column buckets:
//! ≤ 2P − 1 blocks, and 3 at the benchmark's `pretrain-ooc` schedule (one
//! epoch at `P = 1`, the whole table under the budget). A commit whose files are torn or flipped costs one
//! commit more: resume falls back to its predecessor. Resume replays what
//! was lost bit for bit.
//!
//! ## Write-behind commits
//!
//! One writer thread, scoped to [`OocTrainer::new`] and
//! [`OocTrainer::train`] (joined on every path), writes every file. The
//! loop frames a page-out or a commit **in place** — each payload
//! serialized straight behind a reserved artifact header
//! ([`artifact::frame_begin`]) and checksummed where it lies
//! ([`artifact::frame_seal`]), the same bytes [`artifact::encode`] would
//! produce — and hands the set over: a shadow partition file, or a commit's
//! partition files and then the resident file. The writer replaces them in
//! that order with `write_atomic` (create, write, fsync, rename, directory
//! fsync), then deletes what the commit before it superseded, while the
//! next block trains.
//!
//! * **One set in flight.** Before the loop frames the next set it waits
//!   for the set in flight and reuses its buffers: two partition frames
//!   and a resident frame, never one pool (a partition frame would grow to
//!   the resident's size). So every file outside the set in flight is
//!   complete on disk, and a block reads it from there; a partition whose
//!   newest frame is still in flight is decoded from that frame, through
//!   the same [`artifact::decode`] checks.
//! * **Failure.** The writer stops at the first failed write and writes
//!   nothing after it; `train` returns that error once the writer is
//!   drained. The state on disk is then the last commit that landed.

use std::fmt;
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::artifact::{self, ArtifactError, ArtifactIo, ArtifactKind, StdIo};
use crate::le;
use crate::model::{PkgmConfig, PkgmModel};
use crate::obs::{Phase, PhaseClock, TrainRecord};
use crate::snapshot::{condensed_rows_into, ShardSpec};
use crate::snapshot3::{shard_ranges, Ss3DenseWriter};
use crate::trainer::{drive, EpochStats, Totals, TrainConfig, TrainReport, Trainer};
use pkgm_store::{KeyRelationSelector, Triple, TripleStore};

const MANIFEST_FILE: &str = "ooc-manifest.pkgm";
/// 3: generation-named resident files, each commit keeping its predecessor.
const MANIFEST_VERSION: u32 = 3;

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

/// A block's view of the source: its triples with entity ids local to the
/// block's (up to) two partitions — `0..len_0` for the first segment,
/// `len_0..len_0 + len_1` for the second — and membership checked on the
/// global ids. The resident [`crate::negative::NegativeSampler`] over this
/// view draws block-local negatives.
struct BlockView<'a, S: ?Sized> {
    source: &'a S,
    segs: [(u64, u64); 2],
}

impl<S: ?Sized> BlockView<'_, S> {
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
}

impl<S: TripleSource + ?Sized> TripleSource for BlockView<'_, S> {
    fn n_entities(&self) -> u32 {
        (self.segs[0].1 + self.segs[1].1) as u32
    }
    fn n_relations(&self) -> u32 {
        self.source.n_relations()
    }
    fn len(&self) -> usize {
        self.source.len()
    }
    fn triple(&self, idx: usize) -> Triple {
        map_entities(self.source.triple(idx), |e| self.to_local(e))
    }
    fn contains(&self, t: Triple) -> bool {
        self.source.contains(map_entities(t, |e| self.to_global(e)))
    }
}

/// `t` with both entity ids mapped through `f`.
fn map_entities(t: Triple, f: impl Fn(u32) -> u32) -> Triple {
    Triple::from_raw(f(t.head.0), t.relation.0, f(t.tail.0))
}

/// The partitions in memory — the last block's, until the next one lays
/// its own out — in layout order: their rows and Adam moments sit back to
/// back, the block-local id space, in the held model's and `Trainer`'s
/// entity buffers.
#[derive(Default)]
struct Paged {
    parts: Vec<usize>,
    /// The loaded partition in memory longest; its leaving commits.
    anchor: Option<usize>,
}

/// Partition `k`'s live file: its path and the stamps its payload opens
/// with, `[generation, first row, rows, dim]`.
struct PartFile {
    path: PathBuf,
    stamps: [u64; 4],
}

/// The out-of-core trainer: an entity-range partitioned embedding table on
/// disk, block-scheduled training under [`OocConfig::mem_budget`], and
/// commits at partition swaps. See the module docs for the equivalence
/// contract and for what a kill can lose.
pub struct OocTrainer {
    cfg: OocConfig,
    n_entities: u64,
    parts: Vec<(u64, u64)>,
    /// Monotone block counter: a partition paged out after a block is
    /// written under, and stamped with, that block's generation.
    gen: u64,
    /// The generation of each partition's live file: the newest framed.
    live: Vec<u64>,
    /// The generation of the last commit: its resident file's.
    committed: u64,
    /// Partition files superseded since the last commit.
    superseded: Vec<PathBuf>,
    /// The files the last commit superseded, and its predecessor's resident
    /// file: deleted once the next commit lands.
    retired: Vec<PathBuf>,
    /// The commits [`OocTrainer::resume`] skipped, and why.
    skipped: Vec<(PathBuf, OocError)>,
    paged: Paged,
    epochs_done: usize,
    blocks_done: usize,
    /// The run's one optimizer: the paged entity moments, the resident
    /// relation and matrix moments, the step counter, the scratches, the
    /// open block telemetry record and every record closed.
    trainer: Trainer,
    /// The block model: the paged entity rows, the resident relations and
    /// transfer matrices.
    model: PkgmModel,
    /// Where the writer commits and pages read: the filesystem, or a fault
    /// plan in tests.
    io: Arc<dyn ArtifactIo + Send + Sync>,
    /// The open epoch telemetry record (off unless
    /// [`OocTrainer::record_telemetry`]).
    clock: PhaseClock,
}

impl OocTrainer {
    /// Initialize fresh out-of-core state in `cfg.dir`: plan the partition
    /// layout, stream the model init partition-by-partition to disk (one
    /// RNG, identical draw order to [`PkgmModel::new`] — the assembled
    /// table is bit-identical to a resident init with the same seed), and
    /// persist the resident state, then the manifest.
    pub fn new<S: TripleSource + ?Sized>(source: &S, cfg: OocConfig) -> Result<Self, OocError> {
        Self::new_with_io(source, cfg, Arc::new(StdIo))
    }

    pub(crate) fn new_with_io<S: TripleSource + ?Sized>(
        source: &S,
        cfg: OocConfig,
        io: Arc<dyn ArtifactIo + Send + Sync>,
    ) -> Result<Self, OocError> {
        let n_entities = TripleSource::n_entities(source) as u64;
        let n_relations = TripleSource::n_relations(source) as usize;
        if n_entities == 0 || n_relations == 0 || source.is_empty() {
            return Err(OocError::State("empty triple source".into()));
        }
        let d = cfg.model.dim;
        let parts = plan_partitions(n_entities, d, cfg.mem_budget as u64)?;
        std::fs::create_dir_all(&cfg.dir)?;

        let mut me = Self {
            io,
            ..Self::empty(cfg, n_entities, n_relations, parts)
        };

        // Streamed init: same single RNG and draw order as PkgmModel::new.
        // Each partition is one set, written while the next is drawn.
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
                me.frame_partition(writer, k, &ent, &zeros, &zeros);
                writer.hand_over(Vec::new())?;
            }
            me.model.rel = (0..n_relations * d)
                .map(|_| rng.gen_range(-bound..bound) as f32)
                .collect();
            if me.cfg.model.relation_module {
                let mut m = vec![0.0f32; n_relations * d * d];
                for r in 0..n_relations {
                    for i in 0..d {
                        for j in 0..d {
                            let noise = rng
                                .gen_range(-me.cfg.model.init_noise..me.cfg.model.init_noise)
                                as f32;
                            m[r * d * d + i * d + j] = noise + if i == j { 1.0 } else { 0.0 };
                        }
                    }
                }
                me.model.mats = m;
            }
            me.trainer = Trainer::new(&me.model, me.cfg.train.clone());
            writer.wait()?;
            me.frame_resident(writer);
            writer.hand_over(Vec::new())?;
            writer.wait()?;
            me.frame_manifest(writer)?;
            writer.hand_over(Vec::new()).map(drop)
        })?;
        Ok(me)
    }

    /// A trainer over `parts` at generation 0, with nothing paged in and
    /// no resident parameters.
    fn empty(cfg: OocConfig, n_entities: u64, n_relations: usize, parts: Vec<(u64, u64)>) -> Self {
        let model = PkgmModel {
            cfg: cfg.model.clone(),
            n_entities: 0,
            n_relations,
            ent: Vec::new(),
            rel: Vec::new(),
            mats: Vec::new(),
        };
        Self {
            trainer: Trainer::new(&model, cfg.train.clone()),
            model,
            cfg,
            n_entities,
            live: vec![0; parts.len()],
            parts,
            gen: 0,
            committed: 0,
            superseded: Vec::new(),
            retired: Vec::new(),
            skipped: Vec::new(),
            paged: Paged::default(),
            epochs_done: 0,
            blocks_done: 0,
            io: Arc::new(StdIo),
            clock: PhaseClock::default(),
        }
    }

    /// Reopen existing out-of-core state for a warm-start resume: the
    /// newest commit whose resident file and every partition file its live
    /// table names pass the page-in checks, else its predecessor (the
    /// commits skipped, and why, are in [`OocTrainer::take_skipped`]).
    /// Every file the chosen commit does not name is deleted.
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
        let files = StdIo.list(dir)?;
        let mut gens: Vec<u64> = files.iter().filter_map(|p| resident_gen(p)).collect();
        gens.sort_unstable();
        let mut skipped = Vec::new();
        for gen in gens.into_iter().rev() {
            match Self::open_commit(&manifest, dir, gen) {
                Err(e) => skipped.push((resident_path(dir, gen), e)),
                Ok(mut me) => {
                    // Every file of ours the commit does not name goes: the
                    // later commit skipped, the predecessor, shadows and
                    // temporaries.
                    let mut named: Vec<PathBuf> = (0..me.parts.len())
                        .map(|k| me.partition_path(k, me.live[k]))
                        .collect();
                    named.push(resident_path(dir, gen));
                    for path in files {
                        let name = path.file_name().unwrap_or_default().to_string_lossy();
                        let ours = ["ooc-part-", "ooc-resident.", ".ooc-"];
                        if ours.iter().any(|p| name.starts_with(p)) && !named.contains(&path) {
                            StdIo.remove(&path)?;
                        }
                    }
                    me.skipped = skipped;
                    return Ok(me);
                }
            }
        }
        // Nothing is deleted: the newest commit's error says why.
        Err(skipped.into_iter().next().map_or_else(
            || OocError::State(format!("{}: no commit", dir.display())),
            |(_, e)| e,
        ))
    }

    /// The state commit `gen` left in `dir`, once its resident file and
    /// every partition file it names have passed the page-in checks.
    fn open_commit(manifest: &Manifest, dir: &Path, gen: u64) -> Result<Self, OocError> {
        let d = manifest.model.dim;
        let nr = manifest.n_relations as usize;
        let mat_len = nr * d * d * manifest.model.relation_module as usize;
        let cfg = OocConfig {
            model: manifest.model.clone(),
            train: manifest.train.clone(),
            mem_budget: manifest.mem_budget as usize,
            dir: dir.to_path_buf(),
        };
        let mut me = Self::empty(cfg, manifest.n_entities, nr, manifest.partitions.clone());
        let path = resident_path(dir, gen);
        let bytes = StdIo.read(&path)?;
        let payload = artifact::decode(&path, ArtifactKind::Checkpoint, &bytes)?;
        let mut r = Reader::new(payload, &path);
        let stamp = r.u64()?;
        if stamp != gen {
            return Err(OocError::State(format!(
                "{}: stamped g{stamp}",
                path.display()
            )));
        }
        (me.gen, me.committed) = (gen, gen);
        me.trainer.t = r.u64()?;
        me.epochs_done = r.u64()? as usize;
        me.blocks_done = r.u64()? as usize;
        for live in me.live.iter_mut() {
            *live = r.u64()?;
        }
        // The tables in `frame_resident`'s order.
        let (model, tr) = (&mut me.model, &mut me.trainer);
        let tables = [
            (&mut model.rel, nr * d),
            (&mut model.mats, mat_len),
            (&mut tr.m_rel, nr * d),
            (&mut tr.v_rel, nr * d),
            (&mut tr.m_mat, mat_len),
            (&mut tr.v_mat, mat_len),
        ];
        for (table, len) in tables {
            *table = r.f32s(len)?;
        }
        r.done()?;
        for k in 0..me.parts.len() {
            let file = me.live_file(k);
            let bytes = me.io.read(&file.path)?;
            let mut r = file.open(&bytes)?;
            r.take(me.parts[k].1 as usize * d * 12)?;
            r.done()?;
        }
        Ok(me)
    }

    /// The commits [`OocTrainer::resume`] skipped, newest first: each one's
    /// resident file and the check it failed, leaving none behind.
    pub fn take_skipped(&mut self) -> Vec<(PathBuf, OocError)> {
        mem::take(&mut self.skipped)
    }

    /// Set the epoch target. Everything else a resumed trainer runs with
    /// comes from its manifest.
    pub fn set_epochs(&mut self, epochs: usize) {
        self.cfg.train.epochs = epochs;
    }

    /// Record one [`TrainRecord`] per block and one per epoch that
    /// [`OocTrainer::train`] runs from now on (read them with
    /// [`OocTrainer::take_records`]). Without this call no clock is read.
    pub fn record_telemetry(&mut self) {
        self.clock = PhaseClock::on();
        self.trainer.record_telemetry();
    }

    /// The telemetry records so far, in the order they closed (an epoch's
    /// blocks, then the epoch), leaving none behind.
    pub fn take_records(&mut self) -> Vec<TrainRecord> {
        self.trainer.take_records()
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
    /// persisted epoch/block cursor. Blocks commit at partition swaps (when
    /// the anchor leaves; see the module docs), on a writer thread while
    /// the next block trains; each epoch closes with a commit of its last
    /// block and waits for it, and `train` returns only once the writer has
    /// drained, with the first failed write if there was one. A kill loses
    /// at most the blocks since the last commit plus the commit in flight,
    /// which resume replays bit for bit.
    pub fn train<S: TripleSource + ?Sized>(&mut self, source: &S) -> Result<TrainReport, OocError> {
        let n_relations = self.model.n_relations as u32;
        if source.n_entities() as u64 != self.n_entities || source.n_relations() != n_relations {
            return Err(OocError::State(format!(
                "source id spaces ({} entities, {} relations) do not match the trained state ({}, {})",
                source.n_entities(),
                source.n_relations(),
                self.n_entities,
                n_relations
            )));
        }
        // `cfg.train` may have changed since the last call (`set_epochs`).
        self.trainer.cfg.clone_from(&self.cfg.train);
        let epochs = self.epochs_done..self.cfg.train.epochs;
        let partial = self.blocks_done > 0;
        let mut blocks = 0;
        let io = Arc::clone(&self.io);
        let trained = with_writer(&*io, self.clock.is_on(), |writer| {
            drive(
                &mut (&mut *self, writer),
                epochs,
                partial,
                |(me, writer), epoch| me.train_epoch(source, writer, epoch as u64, &mut blocks),
                |(me, writer), epoch, stats, kept| {
                    me.close_epoch(writer, epoch, stats, kept && !writer.non_finite)?;
                    let why = "a commit would frame a non-finite value";
                    Ok((writer.non_finite).then(|| format!("epoch {}: {why}", epoch + 1)))
                },
            )
        });
        // Nothing stays paged in between calls: the next reads what the
        // last commit named.
        self.paged = Paged::default();
        self.model.ent = Vec::new();
        self.trainer.m_ent = Vec::new();
        self.trainer.v_ent = Vec::new();
        Ok(TrainReport {
            n_partitions: self.parts.len(),
            blocks,
            ..trained?
        })
    }

    fn part_of(&self, e: u32) -> usize {
        let g = e as u64;
        self.parts.partition_point(|&(start, len)| start + len <= g)
    }

    /// One epoch's blocks, from the persisted block cursor, each closing
    /// its own telemetry record into the epoch's.
    fn train_epoch<S: TripleSource + ?Sized>(
        &mut self,
        source: &S,
        writer: &mut Writer,
        epoch: u64,
        blocks_run: &mut usize,
    ) -> Result<EpochStats, OocError> {
        self.clock.reopen();
        // The resident shuffle; the bucket grouping below is a *stable*
        // partition of this order.
        let order = self.trainer.epoch_order(source.len(), epoch);
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
        let mut totals = Totals::default();
        let mut batch_idx = 0u64;
        for (block_idx, (pi, pj, idxs)) in groups.iter().enumerate() {
            let n_batches = idxs.len().div_ceil(batch_size) as u64;
            if block_idx < self.blocks_done {
                // Already committed before a resume: keep the global batch
                // counter (and with it the per-batch seeds) aligned.
                batch_idx += n_batches;
                continue;
            }
            self.trainer.clock.reopen();
            self.gen += 1;
            self.page_in(writer, *pi, *pj)?;
            self.trainer.clock.lap(Phase::PageIn);
            let (first, rows) = self.parts[*pi];
            let second = if pi == pj {
                (first + rows, 0)
            } else {
                self.parts[*pj]
            };
            let view = BlockView {
                source,
                segs: [(first, rows), second],
            };
            let block = (self.trainer).train_block(&mut self.model, &view, idxs, epoch, batch_idx);
            batch_idx += n_batches;
            totals += block;
            *blocks_run += 1;
            self.blocks_done = block_idx + 1;
            if let Some((ni, nj, _)) = groups.get(block_idx + 1) {
                let (waited, bytes) = self.swap_out(writer, Some([*ni, *nj]))?;
                self.trainer.clock.wrote(waited, bytes);
            }
            self.trainer.clock.lap(Phase::Commit);
            let stats = block.into();
            if let Some(rec) = (self.trainer.clock).close(epoch as usize, Some(block_idx), &stats) {
                self.clock.absorb(&rec);
                self.trainer.records.push(rec);
            }
            if writer.non_finite {
                break;
            }
        }
        Ok(totals.into())
    }

    /// Close epoch `epoch`: advance the cursor and commit its last block,
    /// landed before the record closes, unless the guard halted it. A halt
    /// commits nothing: the last commit (at `P > 1` maybe one inside the
    /// halted epoch) stays the recovery point.
    fn close_epoch(
        &mut self,
        writer: &mut Writer,
        epoch: usize,
        stats: &EpochStats,
        kept: bool,
    ) -> Result<(), OocError> {
        if kept {
            self.epochs_done = epoch + 1;
            self.blocks_done = 0;
            let (waited, bytes) = self.swap_out(writer, None)?;
            let landed = writer.wait()?;
            self.clock.lap(Phase::Commit);
            self.clock.wrote(waited + landed, bytes);
        }
        let closed = self.clock.close(epoch, None, stats);
        self.trainer.records.extend(closed);
        Ok(())
    }

    /// Lay block `(pi, pj)`'s partitions out in memory, `pi`'s rows first:
    /// a partition the last block held stays (moved at most), the others
    /// page in. A partition the last block held and this one does not was
    /// paged out or committed when that block ended.
    fn page_in(&mut self, writer: &Writer, pi: usize, pj: usize) -> Result<(), OocError> {
        let want = if pi == pj { vec![pi] } else { vec![pi, pj] };
        let old = mem::replace(&mut self.paged.parts, want.clone());
        let kept: Vec<usize> = want.iter().copied().filter(|k| old.contains(k)).collect();
        self.paged.anchor = (self.paged.anchor.filter(|a| kept.contains(a)))
            .or(kept.first().copied())
            .or(Some(pi));
        // Two kept partitions swap places; one kept moves to its new rows.
        let (swap, moved) = match kept[..] {
            [first, _] if first != old[0] => (Some(self.rows_of(&old, first).start), None),
            [k] => (None, Some((self.rows_of(&old, k), self.rows_of(&want, k)))),
            _ => (None, None),
        };
        let total = self.rows_of(&want, pj).end;
        let fresh: Vec<_> = (want.iter().filter(|k| !kept.contains(k)))
            .map(|&k| (k, self.rows_of(&want, k), self.live_file(k)))
            .collect();
        let (model, trainer) = (&mut self.model, &mut self.trainer);
        for buf in [&mut model.ent, &mut trainer.m_ent, &mut trainer.v_ent] {
            if let Some(mid) = swap {
                buf.rotate_left(mid);
            }
            if let Some((from, to)) = moved.clone() {
                buf.resize(buf.len().max(to.end), 0.0);
                buf.copy_within(from, to.start);
            }
            buf.resize(total, 0.0);
        }
        model.n_entities = total / model.cfg.dim;
        for (k, at, file) in fresh {
            file.load_into(
                &*self.io,
                writer.in_flight_frame(k),
                &mut model.ent[at.clone()],
                Some((&mut trainer.m_ent[at.clone()], &mut trainer.v_ent[at])),
            )?;
        }
        Ok(())
    }

    /// Where partition `k`'s rows sit in a block laid out as `layout`.
    fn rows_of(&self, layout: &[usize], k: usize) -> std::ops::Range<usize> {
        let rows = |k: usize| self.parts[k].1 as usize * self.cfg.model.dim;
        let at = if layout[0] == k { 0 } else { rows(layout[0]) };
        at..at + rows(k)
    }

    /// End a block: page out the loaded partitions that block `next` does
    /// not use, each to a shadow file — or commit, when the anchor is among
    /// them or no block follows in the epoch (`None`): page out every
    /// loaded partition, then the resident state with the cursor and the
    /// live table, after which the writer deletes the files the last commit
    /// superseded and its predecessor's resident file.
    /// Returns the writer's seconds waited for and the bytes handed to it.
    fn swap_out(
        &mut self,
        writer: &mut Writer,
        next: Option<[usize; 2]>,
    ) -> Result<(f64, u64), OocError> {
        let stays = |k: &usize| next.is_some_and(|n| n.contains(k));
        let commit = !self.paged.anchor.is_some_and(|a| stays(&a));
        let leaving: Vec<usize> = (self.paged.parts.iter().copied())
            .filter(|k| commit || !stays(k))
            .collect();
        if leaving.is_empty() && !commit {
            return Ok((0.0, 0));
        }
        let waited = writer.wait()?;
        for k in leaving {
            self.page_out(writer, k);
        }
        let mut retired = Vec::new();
        if commit {
            assert!(
                self.gen > self.committed,
                "a commit never rewrites a live file"
            );
            self.frame_resident(writer);
            if writer.non_finite {
                // Refused: the page-outs land as shadows no commit names.
                writer.spare_resident = writer.next.pop().expect("framed").bytes;
            } else {
                let last = mem::replace(&mut self.committed, self.gen);
                self.superseded.push(resident_path(&self.cfg.dir, last));
                retired = mem::replace(&mut self.retired, mem::take(&mut self.superseded));
            }
        }
        Ok((waited, writer.hand_over(retired)?))
    }

    /// Frame loaded partition `k` as generation `self.gen`'s file, the new
    /// live one.
    fn page_out(&mut self, writer: &mut Writer, k: usize) {
        let old = mem::replace(&mut self.live[k], self.gen);
        assert!(old < self.gen, "a page-out never rewrites a live file");
        self.superseded.push(self.partition_path(k, old));
        let at = self.rows_of(&self.paged.parts, k);
        let tr = &self.trainer;
        let [ent, m, v] = [&self.model.ent, &tr.m_ent, &tr.v_ent].map(|b| &b[at.clone()]);
        self.frame_partition(writer, k, ent, m, v);
    }

    /// Load every partition and assemble the full resident model — for
    /// evaluation and tests; requires the whole table to fit in RAM.
    pub fn assemble_model(&self) -> Result<PkgmModel, OocError> {
        let d = self.cfg.model.dim;
        let mut ent = vec![0.0f32; self.n_entities as usize * d];
        for (k, &(start, len)) in self.parts.iter().enumerate() {
            let rows = start as usize * d..(start + len) as usize * d;
            self.live_file(k)
                .load_into(&*self.io, None, &mut ent[rows], None)?;
        }
        Ok(PkgmModel {
            n_entities: self.n_entities as usize,
            ent,
            ..self.model.clone()
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
            ent: Vec::new(),
            ..self.model.clone()
        };
        let mats_t = block.transposed_mats();
        // One partition's condensed rows: with its entity rows, the whole
        // resident partition state during emission.
        let mut rows: Vec<f32> = Vec::new();
        for (k, &(start, len)) in self.parts.iter().enumerate() {
            block.ent.resize(len as usize * d, 0.0);
            self.live_file(k)
                .load_into(&*self.io, None, &mut block.ent, None)?;
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

    /// Partition `k`'s file as generation `gen` wrote it.
    fn partition_path(&self, k: usize, gen: u64) -> PathBuf {
        let n = self.parts.len();
        self.cfg
            .dir
            .join(format!("ooc-part-{k:05}of{n:05}.g{gen:05}.pkgm"))
    }

    /// Partition `k`'s live file.
    fn live_file(&self, k: usize) -> PartFile {
        let (start, len) = self.parts[k];
        PartFile {
            path: self.partition_path(k, self.live[k]),
            stamps: [self.live[k], start, len, self.cfg.model.dim as u64],
        }
    }

    /// Frame partition `k` as its live generation's file into the writer's
    /// next set.
    fn frame_partition(&self, writer: &mut Writer, k: usize, ent: &[f32], m: &[f32], v: &[f32]) {
        let PartFile { path, stamps } = self.live_file(k);
        let payload_len = 32 + (ent.len() + m.len() + v.len()) * 4;
        writer.frame(path, Some(k), payload_len, |buf| {
            for stamp in stamps {
                buf.extend_from_slice(&stamp.to_le_bytes());
            }
            [ent, m, v]
                .into_iter()
                .fold(true, |ok, xs| extend_finite(buf, xs) & ok)
        });
    }

    fn frame_manifest(&self, writer: &mut Writer) -> Result<(), OocError> {
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            n_entities: self.n_entities,
            n_relations: self.model.n_relations as u64,
            model: self.cfg.model.clone(),
            train: self.cfg.train.clone(),
            mem_budget: self.cfg.mem_budget as u64,
            partitions: self.parts.clone(),
        };
        let json = serde_json::to_vec(&manifest)
            .map_err(|e| OocError::State(format!("manifest encode: {e}")))?;
        let path = self.cfg.dir.join(MANIFEST_FILE);
        writer.frame(path, None, json.len(), |buf| {
            buf.extend_from_slice(&json);
            true
        });
        Ok(())
    }

    /// Frame the resident state, the cursor and the live table into the
    /// writer's next set.
    fn frame_resident(&self, writer: &mut Writer) {
        let tr = &self.trainer;
        let tables = [
            &self.model.rel,
            &self.model.mats,
            &tr.m_rel,
            &tr.v_rel,
            &tr.m_mat,
            &tr.v_mat,
        ];
        let cursor = [
            self.gen,
            tr.t,
            self.epochs_done as u64,
            self.blocks_done as u64,
        ];
        let payload_len = 8 * (cursor.len() + self.live.len())
            + tables.iter().map(|t| t.len() * 4).sum::<usize>();
        let path = resident_path(&self.cfg.dir, self.gen);
        writer.frame(path, None, payload_len, |buf| {
            for c in cursor.iter().chain(&self.live) {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            tables
                .into_iter()
                .fold(true, |ok, xs| extend_finite(buf, xs) & ok)
        });
    }
}

/// Append `xs` to `buf` as little-endian bytes, and say whether every value
/// is finite: checked a cache-sized piece at a time, right after its copy.
fn extend_finite(buf: &mut Vec<u8>, xs: &[f32]) -> bool {
    xs.chunks(4096).fold(true, |ok, piece| {
        le::extend(buf, piece);
        piece.iter().fold(ok, |ok, x| ok & x.is_finite())
    })
}

/// The resident file of the commit at generation `gen`.
fn resident_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("ooc-resident.g{gen:05}.pkgm"))
}

/// The generation of a resident file, from its name.
fn resident_gen(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?.strip_prefix("ooc-resident.g")?;
    name.strip_suffix(".pkgm")?.parse().ok()
}

impl PartFile {
    /// Check `bytes`, this file's: the frame, the plan stamps and the
    /// generation, which must be exactly the live table's. Returns a reader
    /// at its rows. The checksum covers the whole frame, and is verified
    /// before a single value is decoded.
    fn open<'a>(&'a self, bytes: &'a [u8]) -> Result<Reader<'a>, OocError> {
        let path = &self.path;
        let payload = artifact::decode(path, ArtifactKind::Checkpoint, bytes)?;
        let mut r = Reader::new(payload, path);
        let [gen, start, len, dim] = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let [live, want_start, want_len, want_dim] = self.stamps;
        if (start, len, dim) != (want_start, want_len, want_dim) {
            return Err(OocError::State(format!(
                "{}: partition covers rows {start}+{len} dim {dim}, plan expects {want_start}+{want_len} dim {want_dim}",
                path.display(),
            )));
        }
        if gen != live {
            return Err(OocError::State(format!(
                "{}: partition generation {gen}, but the live table names generation {live} — \
                 the file was replaced by a stale copy",
                path.display(),
            )));
        }
        Ok(r)
    }

    /// Verify this file through `io` — or `frame` when its newest frame is
    /// in flight — and decode its entity rows into `ent` and its Adam
    /// moments into `moments` when given (evaluation and snapshot emission
    /// need only the rows).
    fn load_into(
        &self,
        io: &dyn ArtifactIo,
        frame: Option<&[u8]>,
        ent: &mut [f32],
        moments: Option<(&mut [f32], &mut [f32])>,
    ) -> Result<(), OocError> {
        let read;
        let bytes = match frame {
            Some(frame) => frame,
            None => {
                read = io.read(&self.path)?;
                &read
            }
        };
        let mut r = self.open(bytes)?;
        assert_eq!(
            ent.len() as u64,
            self.stamps[2] * self.stamps[3],
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
}

/// A sealed checkpoint frame and the file it replaces.
struct Frame {
    path: PathBuf,
    /// The partition it holds; `None` for the resident file and the
    /// manifest.
    part: Option<usize>,
    bytes: Vec<u8>,
}

/// One set, in the order it is written.
type FrameSet = Arc<Vec<Frame>>;

/// What the loop hands the writer: a set, and the files to delete once it
/// has landed (those a commit supersedes).
type Handed = (FrameSet, Vec<PathBuf>);

/// The writer's reply to a set: its busy seconds (0 when untimed), or the
/// failed write it stopped at.
type Written = Result<f64, ArtifactError>;

/// The loop's end of the writer thread (see the module docs): the set
/// being framed, the one set in flight, and the buffers of the set before.
struct Writer {
    sets: mpsc::Sender<Handed>,
    replies: mpsc::Receiver<Written>,
    next: Vec<Frame>,
    in_flight: Option<FrameSet>,
    spare_parts: Vec<Vec<u8>>,
    spare_resident: Vec<u8>,
    /// Whether a frame of this run held a non-finite value. Sticky: a
    /// commit would name it, so none may land after it.
    non_finite: bool,
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
    /// `fill` returns whether every value it wrote is finite.
    fn frame(
        &mut self,
        path: PathBuf,
        part: Option<usize>,
        payload_len: usize,
        fill: impl FnOnce(&mut Vec<u8>) -> bool,
    ) {
        let mut bytes = match part {
            Some(_) => self.spare_parts.pop().unwrap_or_default(),
            None => mem::take(&mut self.spare_resident),
        };
        artifact::frame_begin(&mut bytes, payload_len);
        self.non_finite |= !fill(&mut bytes);
        artifact::frame_seal(ArtifactKind::Checkpoint, &mut bytes);
        self.next.push(Frame { path, part, bytes });
    }

    /// Hand the framed set to the writer thread, with the files to delete
    /// once it lands; the set before must have been waited for. Returns
    /// the set's bytes.
    fn hand_over(&mut self, superseded: Vec<PathBuf>) -> Result<u64, OocError> {
        assert!(self.in_flight.is_none(), "one set in flight at a time");
        let set = Arc::new(mem::take(&mut self.next));
        let bytes = set.iter().map(|f| f.bytes.len() as u64).sum();
        self.sets
            .send((Arc::clone(&set), superseded))
            .map_err(|_| OocError::State("the commit writer stopped".into()))?;
        self.in_flight = Some(set);
        Ok(bytes)
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
            non_finite: false,
        };
        let out = body(&mut writer);
        writer.wait()?;
        out
    })
}

/// The writer thread: write each set's frames in order, delete what it
/// superseded, reply, and stop at the first failure, writing nothing after
/// it.
fn write_sets(
    io: &dyn ArtifactIo,
    sets: mpsc::Receiver<Handed>,
    replies: mpsc::Sender<Written>,
    timed: bool,
) {
    for (set, superseded) in sets {
        let started = timed.then(Instant::now);
        let done = (set.iter())
            .try_for_each(|f| io.write_atomic(&f.path, &f.bytes))
            .and_then(|()| superseded.iter().try_for_each(|p| io.remove(p)));
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
        let base = train_cfg();
        let cases = [
            ("two negatives", PkgmConfig::new(8), base.clone()),
            (
                "one negative",
                PkgmConfig::new(8),
                TrainConfig {
                    negatives: 1,
                    ..base.clone()
                },
            ),
            ("TransE", PkgmConfig::transe(8), base.clone()),
            (
                "adaptive parallel chunks",
                PkgmConfig::new(8),
                TrainConfig {
                    chunk_size: None,
                    parallel: true,
                    ..base.clone()
                },
            ),
        ];
        for (what, model_cfg, tcfg) in cases {
            let model_cfg = model_cfg.with_seed(7);
            let mut resident = PkgmModel::new(
                TripleSource::n_entities(&s) as usize,
                TripleSource::n_relations(&s) as usize,
                model_cfg.clone(),
            );
            let mut rt = Trainer::new(&resident, tcfg.clone());
            let r_report = rt.train(&mut resident, &s);

            let dir = tmp_dir("p1");
            let cfg = OocConfig {
                model: model_cfg,
                train: tcfg.clone(),
                mem_budget: usize::MAX,
                dir: dir.clone(),
            };
            let mut ooc = OocTrainer::new(&s, cfg).unwrap();
            assert_eq!(ooc.n_partitions(), 1);
            let o_report = ooc.train(&s).unwrap();
            let assembled = ooc.assemble_model().unwrap();
            let _ = std::fs::remove_dir_all(&dir);

            assert_same_model(&assembled, &resident, what);
            let stats = |r: &TrainReport| -> Vec<(u32, u32, usize)> {
                let bits = |e: &EpochStats| (e.mean_loss.to_bits(), e.violation_rate.to_bits());
                r.epochs
                    .iter()
                    .map(|e| (bits(e).0, bits(e).1, e.pairs))
                    .collect()
            };
            assert_eq!(r_report.epochs.len(), tcfg.epochs, "{what}");
            assert_eq!(stats(&r_report), stats(&o_report), "{what}");
            let shape = |r: &TrainReport| (r.n_partitions, r.blocks);
            assert_eq!(shape(&r_report), (1, tcfg.epochs), "{what}");
            assert_eq!(shape(&o_report), shape(&r_report), "{what}");
        }
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

    /// A 60-item store over four partitions — blocks (0,2), (0,3), (1,2),
    /// (1,3), (2,2), (2,3): shadow page-outs, commits, and a partition
    /// kept across blocks and epochs — trained for two epochs.
    fn paged(tag: &str) -> (TripleStore, OocTrainer, PathBuf) {
        let s = store(60, 3);
        let dir = tmp_dir(tag);
        let tr = OocTrainer::new(&s, paged_cfg(&dir)).unwrap();
        assert_eq!(tr.n_partitions(), 4);
        (s, tr, dir)
    }

    fn paged_cfg(dir: &Path) -> OocConfig {
        OocConfig {
            model: PkgmConfig::new(8).with_seed(11),
            train: TrainConfig {
                epochs: 2,
                ..train_cfg()
            },
            mem_budget: 3 * 8 * 4 * 46, // 4 partitions x 23 rows, 2 per block
            dir: dir.to_path_buf(),
        }
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

    /// Every file under `dir`, by name.
    fn files_in(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        (StdIo.list(dir).unwrap().into_iter())
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&p).unwrap())
            })
            .collect()
    }

    #[test]
    fn telemetry_records_every_block_and_moves_no_byte() {
        let run = |tag: &str, telemetry: bool| {
            let (s, mut tr, dir) = paged(tag);
            if telemetry {
                tr.record_telemetry();
            }
            let report = tr.train(&s).unwrap();
            let model = tr.assemble_model().unwrap();
            let resident = resident_path(&dir, tr.committed);
            let resident = std::fs::metadata(resident).unwrap().len();
            let blocks = schedule(&tr, &s);
            let frames: Vec<u64> = (tr.parts.iter())
                .map(|&(_, rows)| (artifact::HEADER_LEN + 32) as u64 + rows * 8 * 12)
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            (report, tr.take_records(), model, blocks, (frames, resident))
        };
        let (report, records, on, schedule, (frame, resident)) = run("telemetry-on", true);
        let (_, silent, off, _, _) = run("telemetry-off", false);
        assert!(silent.is_empty());
        assert_eq!(bits(&on.ent), bits(&off.ent));
        assert_eq!(bits(&on.mats), bits(&off.mats));

        let (blocks, epochs): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.block.is_some());
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
            // A block hands the writer bytes only when a partition leaves
            // (the last block's commit is the epoch's); the epoch waits
            // for every set.
            for (b, pair) in mine.iter().zip(schedule.windows(2)) {
                let [(pi, pj), (ni, nj)] = [pair[0], pair[1]];
                let leaves = [pi, pj].iter().any(|k| ![ni, nj].contains(k));
                assert_eq!(b.write_bytes > 0, leaves, "{b:?}");
            }
            assert_eq!(mine.last().unwrap().write_bytes, 0);
            let (pi, pj) = *schedule.last().unwrap();
            let closing = frame[pi] + frame[pj] + resident;
            let handed: u64 = mine.iter().map(|b| b.write_bytes).sum();
            assert_eq!(e.write_bytes, handed + closing, "{e:?}");
            let written: f64 = mine.iter().map(|b| b.write_s).sum();
            assert!(e.write_s > written, "{e:?}");
        }
    }

    #[test]
    fn stale_generation_is_detected() {
        let s = store(30, 3);
        let dir = tmp_dir("gen");
        let ooc = OocTrainer::new(
            &s,
            OocConfig {
                model: PkgmConfig::new(8).with_seed(3),
                train: train_cfg(),
                mem_budget: usize::MAX,
                dir: dir.clone(),
            },
        )
        .unwrap();
        // Restamp the live file one generation ahead: only the stamp
        // differs, and the checksum covers it.
        let path = ooc.partition_path(0, ooc.live[0]);
        let bytes = std::fs::read(&path).unwrap();
        let mut payload = artifact::decode(&path, ArtifactKind::Checkpoint, &bytes)
            .unwrap()
            .to_vec();
        payload[..8].copy_from_slice(&(ooc.live[0] + 1).to_le_bytes());
        std::fs::write(&path, artifact::encode(ArtifactKind::Checkpoint, &payload)).unwrap();
        let err = ooc.assemble_model().unwrap_err();
        assert!(err.to_string().contains("generation 1"), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// File names in the order they were written, and removed (`-name`).
    #[derive(Default)]
    struct Recorded(std::sync::Mutex<Vec<String>>);

    impl Recorded {
        fn log(&self, path: &Path, sign: &str) {
            let name = path.file_name().unwrap().to_string_lossy();
            self.0.lock().unwrap().push(format!("{sign}{name}"));
        }
    }

    impl ArtifactIo for Recorded {
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
            self.log(path, "");
            StdIo.write_atomic(path, bytes)
        }
        fn read(&self, path: &Path) -> Result<Vec<u8>, ArtifactError> {
            StdIo.read(path)
        }
        fn remove(&self, path: &Path) -> Result<(), ArtifactError> {
            self.log(path, "-");
            StdIo.remove(path)
        }
        fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, ArtifactError> {
            StdIo.list(dir)
        }
    }

    #[test]
    fn commits_land_at_partition_swaps_and_never_rewrite_a_live_file() {
        let (s, mut tr, dir) = paged("order");
        let log = Arc::new(Recorded::default());
        tr.io = log.clone();
        tr.train(&s).unwrap();
        let part = |k: usize, g: u64| format!("ooc-part-{k:05}of00004.g{g:05}.pkgm");
        let gone = |k: usize, g: u64| format!("-{}", part(k, g));
        let res = |g: u64| format!("ooc-resident.g{g:05}.pkgm");
        let gone_res = |g: u64| format!("-{}", res(g));
        #[rustfmt::skip]
        let want = [
            // (0,2): 2 leaves, and 0 is the anchor — a shadow file.
            part(2, 1),
            // (0,3): the anchor leaves — a commit. `new`'s commit is its
            // predecessor, and stays whole.
            part(0, 2), part(3, 2), res(2),
            // (1,2): a shadow; (1,3): a commit, and what the commit before
            // it superseded is deleted, with `new`'s resident file.
            part(2, 3),
            part(1, 4), part(3, 4), res(4), gone(2, 0), gone(0, 0), gone(3, 0), gone_res(0),
            // (2,2): 2 stays, nothing is written. (2,3): the epoch closes.
            part(2, 6), part(3, 6), res(6), gone(2, 1), gone(1, 0), gone(3, 2), gone_res(2),
            // Epoch 2. (0,2) keeps 2 from the close, in memory longest: it
            // anchors, and its leaving commits.
            part(0, 7), part(2, 7), res(7), gone(2, 3), gone(3, 4), gone_res(4),
            part(0, 8), part(3, 8), res(8), gone(0, 2), gone(2, 6), gone_res(6),
            part(2, 9),
            part(1, 10), part(3, 10), res(10), gone(0, 7), gone(3, 6), gone_res(7),
            part(2, 12), part(3, 12), res(12), gone(2, 7), gone(1, 4), gone(3, 8), gone_res(8),
        ];
        let got = log.0.lock().unwrap().clone();
        assert_eq!(got, want);
        // Every file is written once. The last commit names the four
        // partition files left and its resident file; its predecessor's
        // files stay beside them.
        let writes: Vec<_> = got.iter().filter(|n| !n.starts_with('-')).collect();
        let unique: std::collections::BTreeSet<_> = writes.iter().collect();
        assert_eq!(unique.len(), writes.len());
        let left: Vec<String> = files_in(&dir).into_keys().collect();
        let mut named: Vec<String> = (0..4).map(|k| part(k, tr.live[k])).collect();
        named.extend([MANIFEST_FILE.to_string(), res(12)]);
        named.extend([part(2, 9), part(3, 10), res(10)]);
        named.sort();
        assert_eq!(left, named);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_divergence_halt_commits_nothing() {
        // One partition: the epoch close is the only commit.
        let s = store(40, 4);
        let dir = tmp_dir("halt");
        let mut tr = OocTrainer::new(&s, one_part_cfg(&dir)).unwrap();
        tr.set_epochs(1);
        tr.train(&s).unwrap();
        let good = tr.assemble_model().unwrap();
        let committed = files_in(&dir);
        tr.cfg.train.lr = f32::INFINITY;
        tr.set_epochs(2);
        assert!(tr.train(&s).unwrap().halted.is_some());
        assert!(files_in(&dir) == committed, "the halted epoch wrote");
        let resumed = OocTrainer::resume(&dir).unwrap();
        assert_eq!(resumed.epochs_done, 1);
        assert_same_model(&resumed.assemble_model().unwrap(), &good, "halt");
        let _ = std::fs::remove_dir_all(&dir);

        // Four partitions: the first block's values are already non-finite,
        // so no commit of the halted epoch lands and resume opens `new`'s.
        let (s, mut tr, dir) = paged("halt-paged");
        tr.cfg.train.lr = f32::INFINITY;
        assert!(tr.train(&s).unwrap().halted.is_some());
        let resumed = OocTrainer::resume(&dir).unwrap();
        assert_eq!((resumed.epochs_done, resumed.blocks_done), (0, 0));
        let model = resumed.assemble_model().unwrap();
        for (name, xs) in [
            ("ent", &model.ent),
            ("rel", &model.rel),
            ("mats", &model.mats),
        ] {
            let bad = xs.iter().filter(|x| !x.is_finite()).count();
            assert_eq!(bad, 0, "{bad} non-finite {name} values");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_partition_put_back_mid_run_is_refused() {
        let (s, mut tr, dir) = paged("stale");
        let init = std::fs::read(tr.partition_path(0, 0)).unwrap();
        tr.cfg.train.epochs = 1;
        tr.train(&s).unwrap();
        // A well-formed file of the wrong generation at the live name.
        std::fs::write(tr.partition_path(0, tr.live[0]), &init).unwrap();
        tr.cfg.train.epochs = 2;
        let err = tr.train(&s).unwrap_err();
        assert!(
            matches!(&err, OocError::State(m) if m.contains("stale")),
            "got {err}"
        );
        assert!(tr.assemble_model().is_err());
        // Resume checks the generation each commit's live table names: the
        // last commit and its predecessor both name the replaced file.
        let err = OocTrainer::resume(&dir).err().expect("no commit opens");
        assert!(
            matches!(&err, OocError::State(m) if m.contains("stale")),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// [`paged_cfg`] with the whole table in one partition, for six
    /// epochs: one commit per epoch.
    fn one_part_cfg(dir: &Path) -> OocConfig {
        OocConfig {
            train: TrainConfig {
                epochs: 6,
                ..train_cfg()
            },
            mem_budget: usize::MAX,
            ..paged_cfg(dir)
        }
    }

    type Files = std::collections::BTreeMap<String, Vec<u8>>;

    /// Where a run ends: its model, the files it leaves, the files a
    /// resume of them keeps (the last commit's), and the commits skipped
    /// when it resumed after a fault.
    struct End {
        model: PkgmModel,
        files: Files,
        committed: Files,
        skipped: usize,
    }

    fn end(tr: &OocTrainer, dir: &Path) -> Result<End, OocError> {
        let (model, files) = (tr.assemble_model()?, files_in(dir));
        OocTrainer::resume(dir)?;
        let committed = files_in(dir);
        Ok(End {
            model,
            files,
            committed,
            skipped: 0,
        })
    }

    /// The straight run of `cfg` over the 60-item store: where it ends,
    /// and the number of writes, `OocTrainer::new`'s included.
    fn straight(tag: &str, cfg: fn(&Path) -> OocConfig) -> (End, u64) {
        let s = store(60, 3);
        let dir = tmp_dir(tag);
        let counted = Arc::new(FaultyIo::new(FaultPlan::new()));
        let mut tr = OocTrainer::new_with_io(&s, cfg(&dir), counted.clone()).unwrap();
        tr.train(&s).unwrap();
        let out = (end(&tr, &dir).unwrap(), counted.writes());
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    /// Run `cfg` with `fault` at write `nth` (`OocTrainer::new`'s writes
    /// first), then recover from disk as `pkgm train` does — resume when
    /// the manifest landed, else start over — on the real filesystem.
    /// Returns the first run's outcome and writes attempted, and where the
    /// recovered run ends.
    fn crash_and_recover(
        tag: &str,
        cfg: fn(&Path) -> OocConfig,
        nth: u64,
        fault: Fault,
    ) -> (Result<(), OocError>, u64, Result<End, OocError>) {
        let s = store(60, 3);
        let dir = tmp_dir(tag);
        let faulty = Arc::new(FaultyIo::new(FaultPlan::new().with_fault(nth, fault)));
        let first = OocTrainer::new_with_io(&s, cfg(&dir), faulty.clone())
            .and_then(|mut tr| tr.train(&s).map(drop));
        assert_eq!(faulty.injected(), 1, "write {nth}");
        let recovered = (|| {
            let mut tr = if dir.join(MANIFEST_FILE).exists() {
                OocTrainer::resume(&dir)?
            } else {
                OocTrainer::new(&s, cfg(&dir))?
            };
            let skipped = tr.take_skipped().len();
            tr.train(&s)?;
            Ok(End {
                skipped,
                ..end(&tr, &dir)?
            })
        })();
        let _ = std::fs::remove_dir_all(&dir);
        (first, faulty.writes(), recovered)
    }

    fn assert_same_model(got: &PkgmModel, want: &PkgmModel, what: &str) {
        assert_eq!(bits(&got.ent), bits(&want.ent), "{what}");
        assert_eq!(bits(&got.rel), bits(&want.rel), "{what}");
        assert_eq!(bits(&got.mats), bits(&want.mats), "{what}");
    }

    #[test]
    fn a_failed_write_anywhere_resumes_to_the_uninterrupted_bits() {
        let (want, n_writes) = straight("straight-sweep", paged_cfg);
        assert!(n_writes > 20, "{n_writes} writes");
        for nth in 0..n_writes {
            let (first, writes, recovered) =
                crash_and_recover("sweep", paged_cfg, nth, Fault::FailWrite);
            assert!(
                matches!(
                    first,
                    Err(OocError::Artifact(ArtifactError::Injected { .. }))
                ),
                "write {nth}: {first:?}"
            );
            assert_eq!(writes, nth + 1, "no write after the failed one");
            let got = recovered.unwrap_or_else(|e| panic!("write {nth}: {e}"));
            assert_same_model(&got.model, &want.model, &format!("write {nth}"));
            assert!(
                got.files == want.files,
                "write {nth}: the files left differ"
            );
        }
    }

    #[test]
    fn torn_and_flipped_writes_end_in_a_typed_error_or_the_same_bits() {
        let (want, n_writes) = straight("straight-torn", paged_cfg);
        let faults = [
            Fault::TornWrite { keep: 100 },
            Fault::FlipBit { byte: 100, bit: 3 },
        ];
        let mut refused = [0; 2];
        for nth in 0..n_writes {
            for (i, fault) in faults.into_iter().enumerate() {
                let what = format!("{fault:?} at write {nth}");
                match crash_and_recover("torn", paged_cfg, nth, fault).2 {
                    // A flipped file of the retained predecessor is never
                    // read again, and resume deletes it: compare the files
                    // the last commit names.
                    Ok(got) => {
                        assert_same_model(&got.model, &want.model, &what);
                        assert!(got.committed == want.committed, "{what}: the files differ");
                    }
                    Err(e) => {
                        assert!(matches!(e, OocError::Artifact(_)), "{what}: {e}");
                        refused[i] += 1;
                    }
                }
            }
        }
        // A file that both commits on disk name is refused when torn or
        // flipped (a partition no block has paged out since, say, or
        // `new`'s manifest); a torn shadow is deleted on resume, and a torn
        // newest commit falls back to its predecessor.
        eprintln!(
            "refused of {n_writes}: torn {}, flipped {}",
            refused[0], refused[1]
        );
        assert!(
            refused.iter().all(|&n| n > 0 && n < n_writes),
            "{refused:?}"
        );
    }

    #[test]
    fn every_fault_after_new_resumes_one_partition_to_the_uninterrupted_bits() {
        let (want, n_writes) = straight("straight-p1", one_part_cfg);
        // `new` writes the partition, the resident file and the manifest;
        // each epoch then commits the partition and a resident file. The
        // last commit and its predecessor are left.
        assert_eq!(n_writes, 3 + 2 * 6);
        let names: Vec<&str> = want.files.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "ooc-manifest.pkgm",
                "ooc-part-00000of00001.g00005.pkgm",
                "ooc-part-00000of00001.g00006.pkgm",
                "ooc-resident.g00005.pkgm",
                "ooc-resident.g00006.pkgm",
            ]
        );
        let faults = [
            Fault::FailWrite,
            Fault::TornWrite { keep: 100 },
            Fault::FlipBit { byte: 100, bit: 3 },
        ];
        for nth in 3..n_writes {
            for fault in faults {
                let what = format!("{fault:?} at write {nth}");
                let (first, _, got) = crash_and_recover("sweep-p1", one_part_cfg, nth, fault);
                let got = got.unwrap_or_else(|e| panic!("{what}: {e}"));
                // A failed or torn write stops the run, and resume skips a
                // torn resident file (each epoch writes its partition, then
                // its resident file).
                if !matches!(fault, Fault::FlipBit { .. }) {
                    assert!(first.is_err(), "{what}: the run went on");
                }
                if matches!(fault, Fault::TornWrite { .. }) {
                    assert_eq!(got.skipped as u64, (nth - 3) % 2, "{what}");
                }
                assert_same_model(&got.model, &want.model, &what);
                assert!(got.committed == want.committed, "{what}: the files differ");
            }
        }
    }

    #[test]
    fn a_failed_resident_write_resumes_to_identical_bits() {
        let (s, mut tr, dir) = paged("resident-order");
        let log = Arc::new(Recorded::default());
        tr.io = log.clone();
        tr.train(&s).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // `new` writes 4 partitions, the resident file and the manifest;
        // the first resident write after them is the first block commit.
        let log = log.0.lock().unwrap();
        let writes = log.iter().filter(|n| !n.starts_with('-'));
        let nth = 6 + writes
            .take_while(|n| !n.starts_with("ooc-resident."))
            .count() as u64;
        let (want, _) = straight("straight-resident", paged_cfg);
        let (first, _, recovered) =
            crash_and_recover("fail-resident", paged_cfg, nth, Fault::FailWrite);
        assert!(first.is_err());
        let got = recovered.unwrap();
        assert_same_model(&got.model, &want.model, "resident commit");
        assert!(got.files == want.files);
    }
}
