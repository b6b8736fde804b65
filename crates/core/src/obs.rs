//! Training telemetry: where an epoch's (or an out-of-core block's) wall
//! time goes, phase by phase.
//!
//! A trainer holds a `PhaseClock` per open record. Off (the default) the
//! clock is `None` and no method reads the time, so a run without
//! telemetry does exactly the work it did before the clock existed. On, it
//! runs in laps: `PhaseClock::lap` charges the time since the previous
//! lap (or the record's open) to one `Phase`, so the phases partition
//! the record's wall time up to its last lap and no stretch of the loop
//! goes unattributed. `PhaseClock::close` turns the sums into one
//! [`TrainRecord`]: the resident [`crate::Trainer`] closes one per epoch,
//! the [`crate::OocTrainer`] one per block and one per epoch. `pkgm train
//! --telemetry FILE` writes them as JSONL ([`to_jsonl`]).
//!
//! The out-of-core trainer's writer thread commits files while the loop
//! trains, so its busy time is not a phase of the loop: a record carries
//! it beside the phases as `write_s`, the writer's seconds for the commits
//! the record waited for, and `write_bytes`, the bytes of the frames the
//! record handed to the writer.
//!
//! Timing never changes what is computed: the clock is read between
//! phases, never inside a kernel, and the model bytes are the same with
//! telemetry on or off.

use crate::trainer::EpochStats;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Where a trainer's wall time goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The epoch shuffle (and out-of-core bucketing), corruption sampling
    /// and the fused gradient pass.
    Grads,
    /// The Adam step, entity normalization included.
    Adam,
    /// Framing page-outs and commits and waiting for the writer thread
    /// (out-of-core only: the resident trainer writes nothing).
    Commit,
    /// Partition reads (out-of-core only).
    PageIn,
}

const N_PHASES: usize = 4;

/// One line of `pkgm train --telemetry FILE`: an epoch (`block: None`) or
/// one out-of-core block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainRecord {
    /// 0-based epoch.
    pub epoch: usize,
    /// 0-based index of the block in its epoch's schedule; `None` for an
    /// epoch record.
    pub block: Option<usize>,
    /// Wall seconds from the record's open to its close.
    pub wall_s: f64,
    /// Seconds in the shuffle (and out-of-core bucketing), corruption
    /// sampling and the fused gradient pass.
    pub grads_s: f64,
    /// Seconds in the Adam step, entity normalization included.
    pub adam_s: f64,
    /// Seconds framing page-outs and commits and waiting for the writer
    /// thread (out-of-core only).
    pub commit_s: f64,
    /// Seconds reading partitions (out-of-core only).
    pub page_in_s: f64,
    /// Out-of-core only, and not a phase (the writer thread runs beside
    /// the loop): the writer's busy seconds on the commits this record
    /// waited for: a block, for the set in flight before it hands over its
    /// own; an epoch, for its blocks' and its closing commit.
    pub write_s: f64,
    /// Out-of-core only: the bytes of the frames this record handed to the
    /// writer — a block's page-outs or commit, an epoch's blocks plus its
    /// closing commit. A block that neither pages out nor commits reads 0.
    pub write_bytes: u64,
    /// Mean hinge loss per pair.
    pub mean_loss: f32,
    /// Fraction of pairs violating the margin.
    pub violation_rate: f32,
    /// Pairs processed.
    pub pairs: usize,
}

impl TrainRecord {
    /// The four phase times: gradients, Adam, commit, page-in.
    pub fn phases_s(&self) -> [f64; N_PHASES] {
        [self.grads_s, self.adam_s, self.commit_s, self.page_in_s]
    }
}

#[derive(Debug, Clone)]
struct Open {
    opened: Instant,
    last_lap: Instant,
    spent: [f64; N_PHASES],
    written: f64,
    bytes: u64,
}

/// The clock of one open record: `None` when telemetry is off, and then
/// no method reads the time.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseClock(Option<Open>);

impl PhaseClock {
    /// A running clock with an open record.
    pub(crate) fn on() -> Self {
        let now = Instant::now();
        PhaseClock(Some(Open {
            opened: now,
            last_lap: now,
            spent: [0.0; N_PHASES],
            written: 0.0,
            bytes: 0,
        }))
    }

    /// True when telemetry is on.
    pub(crate) fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Open a new record now, dropping the phase sums.
    pub(crate) fn reopen(&mut self) {
        if self.0.is_some() {
            *self = Self::on();
        }
    }

    /// Charge the time since the previous lap (or the open) to `phase`.
    pub(crate) fn lap(&mut self, phase: Phase) {
        if let Some(open) = &mut self.0 {
            let now = Instant::now();
            open.spent[phase as usize] += (now - open.last_lap).as_secs_f64();
            open.last_lap = now;
        }
    }

    /// Charge `secs` of the writer thread's time and `bytes` handed to it
    /// to the open record.
    pub(crate) fn wrote(&mut self, secs: f64, bytes: u64) {
        if let Some(open) = &mut self.0 {
            open.written += secs;
            open.bytes += bytes;
        }
    }

    /// Add a closed record's phase and writer times to this one (a block's
    /// to its epoch's) and start the next lap now: the closed record
    /// already accounts for the time since this clock's previous lap.
    pub(crate) fn absorb(&mut self, rec: &TrainRecord) {
        if let Some(open) = &mut self.0 {
            for (s, x) in open.spent.iter_mut().zip(rec.phases_s()) {
                *s += x;
            }
            open.written += rec.write_s;
            open.bytes += rec.write_bytes;
            open.last_lap = Instant::now();
        }
    }

    /// Close the open record with `stats` and open the next one; `None`
    /// when off.
    pub(crate) fn close(
        &mut self,
        epoch: usize,
        block: Option<usize>,
        stats: &EpochStats,
    ) -> Option<TrainRecord> {
        let open = self.0.as_ref()?;
        let [grads_s, adam_s, commit_s, page_in_s] = open.spent;
        let rec = TrainRecord {
            epoch,
            block,
            wall_s: open.opened.elapsed().as_secs_f64(),
            grads_s,
            adam_s,
            commit_s,
            page_in_s,
            write_s: open.written,
            write_bytes: open.bytes,
            mean_loss: stats.mean_loss,
            violation_rate: stats.violation_rate,
            pairs: stats.pairs,
        };
        self.reopen();
        Some(rec)
    }
}

/// `records` as JSON Lines: one object per record, each line ending in
/// `\n`.
pub fn to_jsonl(records: &[TrainRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("a record serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> EpochStats {
        EpochStats {
            mean_loss: 0.5,
            violation_rate: 0.25,
            pairs: 8,
        }
    }

    #[test]
    fn an_off_clock_records_nothing() {
        let mut clock = PhaseClock::default();
        clock.lap(Phase::Grads);
        clock.wrote(1.0, 8);
        clock.reopen();
        assert!(!clock.is_on());
        assert!(clock.close(0, None, &stats()).is_none());
    }

    #[test]
    fn laps_partition_the_record_and_reset_on_close() {
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        let mut clock = PhaseClock::on();
        nap();
        clock.lap(Phase::Adam);
        clock.lap(Phase::Commit);
        clock.wrote(0.5, 100);
        let rec = clock.close(3, Some(1), &stats()).expect("on");
        assert_eq!((rec.write_s, rec.write_bytes), (0.5, 100));
        assert!(rec.adam_s >= 0.002 && rec.wall_s >= rec.adam_s + rec.commit_s);
        assert!(rec.commit_s >= 0.0 && rec.grads_s == 0.0 && rec.page_in_s == 0.0);
        assert_eq!((rec.epoch, rec.block, rec.pairs), (3, Some(1), 8));

        let mut epoch = PhaseClock::on();
        nap();
        epoch.absorb(&rec);
        epoch.lap(Phase::Grads);
        epoch.wrote(0.25, 20);
        let next = clock.close(3, Some(2), &stats()).expect("on");
        assert_eq!(
            (next.adam_s, next.write_s, next.write_bytes),
            (0.0, 0.0, 0),
            "close reopens with zero sums"
        );
        let whole = epoch.close(3, None, &stats()).expect("on");
        assert_eq!(
            (whole.adam_s, whole.write_s, whole.write_bytes),
            (rec.adam_s, 0.75, 120)
        );
        assert!(whole.grads_s < 0.002, "absorb starts the next lap");
    }

    #[test]
    fn jsonl_is_one_parseable_line_per_record() {
        let mut clock = PhaseClock::on();
        let recs: Vec<TrainRecord> = (0..3)
            .map(|e| clock.close(e, None, &stats()).expect("on"))
            .collect();
        let text = to_jsonl(&recs);
        let back: Vec<TrainRecord> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("parses"))
            .collect();
        assert_eq!(back, recs);
    }
}
