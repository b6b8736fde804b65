//! Seeded key streams for the serve workloads.
//!
//! Keys are always *item* ids (`0..n_items`): only items have key
//! relations, so any other entity would be answered by the daemon's
//! zero-fallback path and the run would measure the wrong thing.

use pkgm_core::shard_ranges;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};

/// Zipf exponent of the hot-key law (the `qps_scale` regime).
pub const ZIPF_S: f64 = 1.05;
/// Size of the hot set `serve-hot` draws from.
pub const HOT_KEYS: usize = 512;

enum Law {
    /// Zipf-ranked draws from a fixed hot set of item ids.
    Hot { hot: Vec<u32>, zipf: Zipf },
    /// Uniform over every item id.
    Uniform { n_items: u32 },
}

pub struct KeyStream {
    rng: SmallRng,
    law: Law,
}

impl KeyStream {
    /// Zipf([`ZIPF_S`]) over [`HOT_KEYS`] item ids chosen by `seed`; every
    /// caller shares the hot set and draws its own sequence from it.
    pub fn hot(seed: u64, caller: u64, n_items: u32) -> Self {
        let mut pick = SmallRng::seed_from_u64(seed ^ 0x686f_745f_6b65_7973);
        let want = HOT_KEYS.min(n_items as usize);
        let mut hot: Vec<u32> = Vec::with_capacity(want);
        while hot.len() < want {
            let id = pick.gen_range(0..n_items);
            if !hot.contains(&id) {
                hot.push(id);
            }
        }
        let zipf = Zipf::new(hot.len() as u64, ZIPF_S).expect("hot set is non-empty");
        Self {
            rng: caller_rng(seed, caller),
            law: Law::Hot { hot, zipf },
        }
    }

    /// Uniform over all `n_items` item ids.
    pub fn uniform(seed: u64, caller: u64, n_items: u32) -> Self {
        Self {
            rng: caller_rng(seed, caller),
            law: Law::Uniform { n_items },
        }
    }

    pub fn fill(&mut self, batch: &mut [u32]) {
        for slot in batch {
            *slot = match &self.law {
                // 1-based Zipf rank → hot-set index: rank 1 is the hottest.
                Law::Hot { hot, zipf } => hot[zipf.sample(&mut self.rng) as usize - 1],
                Law::Uniform { n_items } => self.rng.gen_range(0..*n_items),
            };
        }
    }
}

fn caller_rng(seed: u64, caller: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (caller + 1))
}

/// How many of the `n_shards` entity-range shards of an `n_rows` table a
/// batch touches.
pub fn shards_touched(batch: &[u32], n_rows: u64, n_shards: u32) -> usize {
    let mut seen = vec![false; n_shards as usize];
    let ranges = shard_ranges(n_rows, n_shards);
    for &id in batch {
        let shard = ranges.partition_point(|(spec, _)| spec.row_start <= u64::from(id)) - 1;
        seen[shard] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(mut s: KeyStream, batches: usize, batch: usize) -> Vec<Vec<u32>> {
        (0..batches)
            .map(|_| {
                let mut b = vec![0u32; batch];
                s.fill(&mut b);
                b
            })
            .collect()
    }

    #[test]
    fn streams_are_reproducible_per_seed_and_caller() {
        let a = draw(KeyStream::uniform(11, 0, 60_000), 8, 256);
        assert_eq!(a, draw(KeyStream::uniform(11, 0, 60_000), 8, 256));
        assert_ne!(a, draw(KeyStream::uniform(11, 1, 60_000), 8, 256));
        assert_ne!(a, draw(KeyStream::uniform(12, 0, 60_000), 8, 256));
        let h = draw(KeyStream::hot(11, 0, 60_000), 8, 32);
        assert_eq!(h, draw(KeyStream::hot(11, 0, 60_000), 8, 32));
        assert_ne!(h, draw(KeyStream::hot(11, 1, 60_000), 8, 32));
    }

    #[test]
    fn keys_are_item_ids() {
        let n_items = 1_000;
        for b in draw(KeyStream::uniform(3, 0, n_items), 16, 256) {
            assert!(b.iter().all(|&id| id < n_items));
        }
        for b in draw(KeyStream::hot(3, 0, n_items), 16, 32) {
            assert!(b.iter().all(|&id| id < n_items));
        }
    }

    #[test]
    fn hot_stream_draws_from_a_small_skewed_set() {
        let all: Vec<u32> = draw(KeyStream::hot(5, 0, 60_000), 400, 32).concat();
        let mut distinct = all.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= HOT_KEYS);
        let hottest = all.iter().filter(|&&id| id == all[0]).count();
        assert!(distinct.len() > 100 && hottest >= 1);
    }

    #[test]
    fn uniform_batches_straddle_all_four_shards() {
        // The serve-routed shape: 256 item ids over a table whose rows
        // (items first, then the other entities) split into 4 shards.
        let (n_items, n_rows) = (60_000u32, 72_394u64);
        for b in draw(KeyStream::uniform(11, 0, n_items), 200, 256) {
            assert_eq!(shards_touched(&b, n_rows, 4), 4);
        }
    }

    #[test]
    fn shards_touched_counts_ranges() {
        // 10 rows over 4 shards: [0,3) [3,6) [6,8) [8,10)
        assert_eq!(shards_touched(&[0, 1, 2], 10, 4), 1);
        assert_eq!(shards_touched(&[2, 3], 10, 4), 2);
        assert_eq!(shards_touched(&[0, 5, 7, 9], 10, 4), 4);
        // The stride-17 multiplicative walk the old bin used stays local.
        let stride: Vec<u32> = (0..32u32).map(|i| i * 17).collect();
        assert_eq!(shards_touched(&stride, 11_296, 4), 1);
    }
}
