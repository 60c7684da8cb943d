//! API-compatible subset of the `rand` crate for offline builds.
//!
//! Implements exactly the surface the workspace uses — `thread_rng()`, the
//! [`Rng`] trait with `gen::<f64>()`, `gen::<u64>()`, `gen_bool` and
//! `gen_range` over integer ranges, and [`SeedableRng::seed_from_u64`] for
//! [`rngs::StdRng`] — on top of a xoshiro256++ generator seeded per thread
//! from the system clock and a process-wide counter, or from a fixed seed.
//! Not cryptographically secure; the language's `random()` builtin makes no
//! such promise either.

use std::cell::RefCell;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};

/// xoshiro256++ state.
#[derive(Debug, Clone)]
pub struct ThreadRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static SEED_COUNTER: AtomicU64 = AtomicU64::new(0x1234_5678_9ABC_DEF0);

impl ThreadRng {
    fn from_entropy() -> ThreadRng {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        ThreadRng::seed_from_u64(
            nanos
                ^ SEED_COUNTER.fetch_add(0x9E37_79B9, Ordering::Relaxed)
                ^ (std::process::id() as u64) << 32,
        )
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Generators that can be built from a fixed seed (subset of rand's
/// `SeedableRng`): the same seed always yields the same stream.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for ThreadRng {
    fn seed_from_u64(mut seed: u64) -> ThreadRng {
        let s = [
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
        ];
        ThreadRng { s }
    }
}

/// Named generators (subset of rand's `rngs` module).
pub mod rngs {
    /// The seedable generator; the same xoshiro256++ as [`crate::thread_rng`].
    pub type StdRng = crate::ThreadRng;
}

thread_local! {
    static RNG: RefCell<ThreadRng> = RefCell::new(ThreadRng::from_entropy());
}

/// A per-thread generator, mirroring `rand::thread_rng()`. The returned
/// handle owns a snapshot re-synced with the thread-local state on drop, so
/// repeated calls advance the same stream.
pub fn thread_rng() -> ThreadRng {
    RNG.with(|r| {
        // Advance the stored state so the next call gets a fresh stream
        // even if this handle is kept alive.
        let mut stored = r.borrow_mut();
        let handle = stored.clone();
        stored.next_u64();
        handle
    })
}

/// Sampleable output types for [`Rng::gen`] (subset of rand's `Standard`
/// distribution).
pub trait Standard: Sized {
    fn sample(rng: &mut ThreadRng) -> Self;
}

impl Standard for f64 {
    fn sample(rng: &mut ThreadRng) -> f64 {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample(rng: &mut ThreadRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut ThreadRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample(rng: &mut ThreadRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut ThreadRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut ThreadRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut ThreadRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// Subset of rand's `Rng` extension trait.
pub trait Rng {
    fn next(&mut self) -> u64;

    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized;

    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized;

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized;
}

impl Rng for ThreadRng {
    fn next(&mut self) -> u64 {
        self.next_u64()
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        <f64 as Standard>::sample(self) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = thread_rng();
        for _ in 0..1000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn gen_range_inclusive_hits_bounds() {
        let mut rng = thread_rng();
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.gen_range(0i64..=3);
            assert!((0..=3).contains(&v));
            lo_seen |= v == 0;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn equal_seeds_replay_the_same_stream() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        let mut c = rngs::StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..4).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn successive_calls_differ() {
        let mut a = thread_rng();
        let mut b = thread_rng();
        let xs: Vec<u64> = (0..4).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen::<u64>()).collect();
        assert_ne!(xs, ys, "two handles should not replay the same stream");
    }
}
