//! Seeded workload inputs. The benchmark seed alone decides every
//! request the program sees, so one seed always yields the same inputs.

use esp4ml_bench::request::{RunRequest, WorkloadKind};

/// Fig. 8 grid points a `serve_mix` request may select.
pub const SERVE_CONFIGS: usize = 6;
/// Largest frame count of a `serve_mix` request (frames are 1..=this).
pub const SERVE_MAX_FRAMES: u64 = 16;
/// Distinct `serve_mix` requests.
pub const SERVE_KEYS: u64 = SERVE_CONFIGS as u64 * SERVE_MAX_FRAMES;
/// Recent `serve_mix` requests a round replays.
pub const SERVE_REPLAY: u64 = 40;
/// Times a round replays them.
pub const SERVE_REPLAYS: u64 = 3;
/// Requests in one round of the `serve_mix` stream.
pub const SERVE_ROUND: u64 = SERVE_KEYS + SERVE_REPLAYS * SERVE_REPLAY;
/// Campaign seeds `fault_campaign` sweeps; the golden file holds the
/// expected cases of every one of them.
pub const FAULT_SEED_POOL: u64 = 12;

/// SplitMix64: small, fast and fully specified, so the streams do not
/// depend on any library's generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `xs` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// One `serve_mix` request: a single Fig. 8 grid point at 1..=16
/// frames, in the server's wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServeItem {
    /// Index into the Fig. 8 grid.
    pub config: usize,
    /// Frames to simulate.
    pub frames: u64,
}

impl ServeItem {
    /// Every distinct item (96 of them: more than the server's
    /// 64-entry result cache holds).
    pub fn all() -> Vec<ServeItem> {
        (0..SERVE_CONFIGS)
            .flat_map(|config| {
                (1..=SERVE_MAX_FRAMES).map(move |frames| ServeItem { config, frames })
            })
            .collect()
    }

    /// The request this item submits.
    pub fn request(&self) -> RunRequest {
        let mut req = RunRequest::new(WorkloadKind::Fig8);
        req.configs = vec![self.config];
        req.frames = self.frames;
        req
    }

    /// Stable name, used as the golden-digest key.
    pub fn name(&self) -> String {
        format!("fig8/c{}/f{}", self.config, self.frames)
    }
}

/// The `serve_mix` request stream of `seed`, in rounds of
/// [`SERVE_ROUND`] requests. A round sends every distinct item once, in
/// a seeded order of its own, then replays [`SERVE_REPLAY`] of them,
/// newest first, skipping the last two (which two clients may still
/// have in flight), [`SERVE_REPLAYS`] times. From an empty 64-entry
/// cache a round is 96 misses, 32 evictions and 120 hits on any seed,
/// so only the order differs between seeds. Item `i` depends only on `(seed, i)`, so the stream is
/// fixed however the clients interleave.
pub fn serve_item(seed: u64, i: u64) -> ServeItem {
    let round = i / SERVE_ROUND;
    let mut items = ServeItem::all();
    SplitMix64::new(seed ^ round.wrapping_mul(0xd6e8_feb8_6659_fd93)).shuffle(&mut items);
    let k = i % SERVE_ROUND;
    let at = if k < SERVE_KEYS {
        k
    } else {
        SERVE_KEYS - 3 - (k - SERVE_KEYS) % SERVE_REPLAY
    };
    items[at as usize]
}

/// The `fault_campaign` seed list of `seed`: the whole seed pool in a
/// seeded order, so every pass simulates the same work whatever the
/// seed.
pub fn fault_seeds(seed: u64) -> Vec<u64> {
    let mut pool: Vec<u64> = (1..=FAULT_SEED_POOL).collect();
    SplitMix64::new(seed).shuffle(&mut pool);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_seed_always_yields_the_same_stream() {
        let a: Vec<ServeItem> = (0..500).map(|i| serve_item(7, i)).collect();
        let b: Vec<ServeItem> = (0..500).map(|i| serve_item(7, i)).collect();
        assert_eq!(a, b);
        let c: Vec<ServeItem> = (0..500).map(|i| serve_item(8, i)).collect();
        assert_ne!(a, c, "another seed gives another stream");
        assert_eq!(fault_seeds(7), fault_seeds(7));
        assert_ne!(fault_seeds(7), fault_seeds(8));
    }

    #[test]
    fn streams_cover_their_spaces() {
        assert_eq!(ServeItem::all().len() as u64, SERVE_KEYS);
        assert_eq!(SERVE_KEYS, 96);
        let rounds: Vec<Vec<ServeItem>> = (0..3)
            .map(|r| {
                (r * SERVE_ROUND..(r + 1) * SERVE_ROUND)
                    .map(|i| serve_item(1, i))
                    .collect()
            })
            .collect();
        for round in &rounds {
            let (fresh, replays) = round.split_at(SERVE_KEYS as usize);
            let keys: HashSet<&ServeItem> = fresh.iter().collect();
            assert_eq!(keys.len() as u64, SERVE_KEYS, "every item once a round");
            let recent: Vec<ServeItem> = fresh[..fresh.len() - 2]
                .iter()
                .rev()
                .take(SERVE_REPLAY as usize)
                .copied()
                .collect();
            assert_eq!(replays.len() as u64, SERVE_REPLAYS * SERVE_REPLAY);
            for replay in replays.chunks(SERVE_REPLAY as usize) {
                assert_eq!(replay, &recent[..], "replays the newest, newest first");
            }
        }
        assert_ne!(rounds[0], rounds[1], "each round in its own order");
        for seed in 0..50 {
            let mut all = fault_seeds(seed);
            all.sort_unstable();
            assert_eq!(
                all,
                (1..=FAULT_SEED_POOL).collect::<Vec<_>>(),
                "the whole pool, once"
            );
        }
    }
}
