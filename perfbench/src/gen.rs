//! Seeded input generation: the RNG, the Zipf key sampler, the op streams
//! of each workload, and the value encoding the correctness checks rely on.
//!
//! Everything the program under test receives comes out of this module, so
//! the same seed always yields the same op streams (how far a run gets into
//! a stream depends on its speed, the stream itself does not).

/// SplitMix64: small, fast, and good enough to drive a benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over `m` keys, with ranks scattered over the component space by
/// a seeded bijection so the hot keys do not all land on one shard.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    mul: u64,
    add: u64,
    mask: u64,
}

impl Zipf {
    /// `m` must be a power of two (the scatter is an affine map mod `m`).
    pub fn new(m: usize, s: f64, seed: u64) -> Zipf {
        assert!(
            m.is_power_of_two(),
            "component count must be a power of two"
        );
        let mut cdf = Vec::with_capacity(m);
        let mut total = 0.0;
        for rank in 1..=m {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for p in cdf.iter_mut() {
            *p /= total;
        }
        let mut rng = Rng::stream(seed, 0x5CA7_7E55);
        Zipf {
            cdf,
            mul: rng.next_u64() | 1,
            add: rng.next_u64(),
            mask: m as u64 - 1,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1);
        ((rank as u64).wrapping_mul(self.mul).wrapping_add(self.add) & self.mask) as usize
    }

    /// `r` distinct components, in draw order.
    pub fn distinct(&self, rng: &mut Rng, r: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(r);
        while out.len() < r {
            let c = self.sample(rng);
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

/// One operation a caller issues. Values are not part of the op: the caller
/// stamps them at issue time with [`encode`], so every write is unique.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Write these components atomically (one component for `submit`).
    Update(Vec<usize>),
    /// Linearizable scan.
    Scan(Vec<usize>),
    /// Scan whose answer may be slightly stale (`Freshness::AtMostStale`).
    StaleScan(Vec<usize>),
}

/// The shape of a workload's op stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Components written per update.
    pub batch: usize,
    /// Components per scan.
    pub r: usize,
    /// Share of updates, in percent.
    pub update_pct: u64,
    /// Share of fresh scans, in percent; the rest are stale scans.
    pub scan_pct: u64,
}

/// A caller's deterministic op stream.
pub struct OpStream {
    rng: Rng,
    zipf: std::sync::Arc<Zipf>,
    mix: Mix,
}

impl OpStream {
    pub fn new(seed: u64, caller: u64, zipf: std::sync::Arc<Zipf>, mix: Mix) -> OpStream {
        OpStream {
            rng: Rng::stream(seed, caller + 1),
            zipf,
            mix,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.next_u64() % 100;
        if roll < self.mix.update_pct {
            Op::Update(self.zipf.distinct(&mut self.rng, self.mix.batch))
        } else if roll < self.mix.update_pct + self.mix.scan_pct {
            Op::Scan(self.zipf.distinct(&mut self.rng, self.mix.r))
        } else {
            Op::StaleScan(self.zipf.distinct(&mut self.rng, self.mix.r))
        }
    }
}

/// Bits of a value holding the writer's sequence number.
const SEQ_BITS: u32 = 32;
/// Bits of a value holding the writer's caller id.
const CALLER_BITS: u32 = 4;

/// The value caller `caller` writes into `component` as its `seq`-th write.
/// It stays below 2^53 for `component < 65536`, so it rides the wire as a
/// plain JSON number. The initial value 0 decodes to no writer.
pub fn encode(component: usize, caller: usize, seq: u64) -> u64 {
    debug_assert!(caller < 1 << CALLER_BITS && seq < 1 << SEQ_BITS);
    ((component as u64 + 1) << (SEQ_BITS + CALLER_BITS)) | ((caller as u64) << SEQ_BITS) | seq
}

/// A decoded value: which component it was written to, by whom, as which
/// write. `None` for the initial value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Written {
    pub component: usize,
    pub caller: usize,
    pub seq: u64,
}

pub fn decode(value: u64) -> Option<Written> {
    if value == 0 {
        return None;
    }
    let tag = value >> (SEQ_BITS + CALLER_BITS);
    Some(Written {
        // A nonzero value with a zero tag decodes to component usize::MAX,
        // which matches no request: the component check reports it.
        component: (tag as usize).wrapping_sub(1),
        caller: ((value >> SEQ_BITS) & ((1 << CALLER_BITS) - 1)) as usize,
        seq: value & ((1 << SEQ_BITS) - 1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_stay_json_safe() {
        let v = encode(65535, 15, (1 << SEQ_BITS) - 1);
        assert!(v < 1 << 53);
        assert_eq!(
            decode(v),
            Some(Written {
                component: 65535,
                caller: 15,
                seq: (1 << SEQ_BITS) - 1
            })
        );
        assert_eq!(decode(0), None);
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let zipf = std::sync::Arc::new(Zipf::new(4096, 0.99, 7));
        let mix = Mix {
            batch: 1,
            r: 8,
            update_pct: 50,
            scan_pct: 25,
        };
        let take = |seed| {
            let mut s = OpStream::new(seed, 0, std::sync::Arc::clone(&zipf), mix);
            (0..100).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(1), take(1));
        assert_ne!(take(1), take(2));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(1024, 0.99, 3);
        let mut rng = Rng::new(9);
        let mut hits = vec![0u32; 1024];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        let hottest = *hits.iter().max().expect("non-empty");
        // Rank 1 of Zipf(0.99) over 1024 keys draws about 13% of samples.
        assert!(hottest > 1500, "hottest key drew only {hottest}");
    }
}
